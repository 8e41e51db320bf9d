//! `tracegen` — generate a synthetic workload trace as a Common Log
//! Format file on disk, for use with external log-analysis tools or the
//! paper's own tooling lineage.
//!
//! ```text
//! tracegen <U|G|C|BR|BL> [--scale F] [--seed N] [--out FILE]
//! ```
//!
//! Without `--out` the trace goes to stdout. Input the tool would have to
//! ignore — a flag without its value, a scale outside `(0, 1]`, a second
//! workload — is a usage error: exit 2, nothing on stdout.

use std::io::Write as _;

/// Unix time of 1995-09-17 00:00:00 UTC — the BR/BL collection start.
const EPOCH: i64 = 811_296_000;

const USAGE: &str = "usage: tracegen <U|G|C|BR|BL> [--scale F] [--seed N] [--out FILE]";

/// Report a usage error and exit 2, writing nothing to stdout.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse the next argument as `flag`'s value, refusing missing or
/// malformed input instead of silently falling back to a default.
fn parse_arg<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = it.next() else {
        usage_error(&format!("{flag} requires a value"));
    };
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("invalid value {v:?} for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut scale = 1.0f64;
    let mut seed = 1u64;
    let mut out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_arg(&mut it, "--scale"),
            "--seed" => seed = parse_arg(&mut it, "--seed"),
            "--out" => out = Some(parse_arg(&mut it, "--out")),
            w => {
                if let Some(first) = &workload {
                    usage_error(&format!("one workload at a time: got {first:?} and {w:?}"));
                }
                workload = Some(w.to_string());
            }
        }
    }
    // The range `experiments --scale` accepts: a profile scales down only.
    if !(scale > 0.0 && scale <= 1.0) {
        usage_error(&format!("--scale must be in (0, 1], got {scale}"));
    }
    let Some(workload) = workload else {
        usage_error("no workload named");
    };
    let Some(profile) = webcache_workload::profiles::by_name(&workload) else {
        usage_error(&format!(
            "unknown workload {workload:?}; choose U, G, C, BR or BL"
        ));
    };
    let profile = if scale < 1.0 {
        profile.scaled(scale)
    } else {
        profile
    };
    let trace = webcache_workload::generate(&profile, seed);
    let text = trace.to_clf(EPOCH);
    match out {
        Some(path) => {
            let written = std::fs::File::create(&path).and_then(|mut f| {
                f.write_all(text.as_bytes())?;
                f.flush()
            });
            if let Err(e) = written {
                eprintln!("cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote {} requests ({} days, {:.1} MB transferred) to {path}",
                trace.len(),
                trace.duration_days(),
                trace.total_bytes() as f64 / 1e6
            );
        }
        None => print!("{text}"),
    }
}
