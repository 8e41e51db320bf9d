//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale F] [--seed N] [--json DIR] <command> [args]
//!
//! Commands:
//!   table1 | table3            definitional tables
//!   table4                     file-type mixes of all five workloads
//!   fig1 [WL] | fig2 [WL]      server/URL rank distributions (default BL)
//!   fig13 [WL] | fig14 [WL]    size histogram / interreference scatter
//!   exp1 [WL]                  infinite-cache hit rates + MaxNeeded
//!   exp2 [WL] [FRAC] [SET]     policy comparison (SET: figures|primaries|all36|named)
//!   exp2b [WL] [FRAC]          Fig. 15 secondary-key study (default G)
//!   exp3 [FRAC]                two-level cache
//!   exp3-shared WL [GROUPS]    shared-L2 extension
//!   exp4 [FRAC]                partitioned cache on BR
//!   exp5 [WL] [FRAC]           section 5 extension policies
//!   replicate [WL] [SEEDS]     SIZE vs LRU over several seeds
//!   hitpos [WL]                Appendix A: where in the sorted list hits fall
//!   all                        the tables, figures and experiments 1-4, in order
//! ```

use webcache_experiments::runner::WORKLOADS;
use webcache_experiments::{exp1, exp2, exp3, exp4, exp5, figures, Ctx};

/// Report a usage error and exit with status 2 (conventional bad-usage).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `experiments help` for usage");
    std::process::exit(2);
}

/// Parse a flag's value, rejecting (rather than silently defaulting on)
/// malformed input.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let v = value.unwrap_or_else(|| usage_error(&format!("{flag} requires a value")));
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} got unparseable value {v:?}")))
}

/// Positional argument `i`, parsed like a flag's value: `default` when
/// absent, a usage error when it does not parse or `valid` refuses it.
fn positional<T: std::str::FromStr>(
    rest: &[String],
    i: usize,
    name: &str,
    default: T,
    valid: fn(&T) -> bool,
) -> T {
    match rest.get(i) {
        None => default,
        Some(v) => Some(parse_flag(name, Some(v.clone())))
            .filter(valid)
            .unwrap_or_else(|| usage_error(&format!("{name} got out-of-range value {v:?}"))),
    }
}

/// Write a result JSON atomically via the workspace's shared tmp+rename
/// helper. A crash mid-write can cost the file, never leave a
/// half-written one.
fn write_json_atomic(dir: &str, name: &str, json: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{name}.json");
    webcache_trace::binfmt::write_atomic(std::path::Path::new(&path), json.as_bytes())?;
    Ok(path)
}

/// Warn on stderr about the lanes salvaged out of a partial result, each
/// `(lane, error)` of its `failed` list.
fn report_failed(what: &str, failed: &[(String, String)]) {
    for (lane, err) in failed {
        eprintln!("warning: {what} {lane} failed: {err} (healthy lanes kept, partial: true)");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut seed = 1u64;
    let mut json_dir: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_flag("--scale", it.next()),
            "--seed" => seed = parse_flag("--seed", it.next()),
            "--json" => {
                json_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--json requires a directory")),
                )
            }
            "--help" => rest.insert(0, "help".to_string()),
            f if f.starts_with("--") => usage_error(&format!("unknown flag {f}")),
            _ => rest.push(a),
        }
    }
    let ctx = match Ctx::try_with_scale(scale, seed) {
        Ok(ctx) => ctx,
        Err(e) => usage_error(&e.to_string()),
    };
    run(&ctx, json_dir.as_deref(), &rest);
}

/// Run the command `rest[0]` (`help` if none) with its positional arguments.
fn run(ctx: &Ctx, json_dir: Option<&str>, rest: &[String]) {
    let cmd = rest.first().map(String::as_str).unwrap_or("help");
    let arg = |i: usize| rest.get(i).map(String::as_str);
    // A cache size as a fraction of MaxNeeded.
    let frac = |i: usize| positional(rest, i, "FRAC", 0.1, |f: &f64| *f > 0.0 && *f <= 1.0);
    // Workload-name positional argument: reject unknown names here, with
    // a usage message, rather than panicking deep inside the runner.
    let wl_arg = |i: usize, default: &'static str| -> String {
        let w = rest.get(i).map(String::as_str).unwrap_or(default);
        if webcache_workload::profiles::by_name(w).is_none() {
            usage_error(&format!(
                "unknown workload {w:?} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        w.to_string()
    };
    let save = |name: &str, value: &dyn erased_json::SerializeJson| {
        if let Some(dir) = json_dir {
            match write_json_atomic(dir, name, &value.to_json()) {
                Ok(path) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("error: could not write {dir}/{name}.json: {e}");
                    std::process::exit(1);
                }
            }
        }
    };

    match cmd {
        "table1" => println!("{}", figures::table1()),
        "table3" => println!("{}", figures::table3()),
        "table4" => println!("{}", figures::table4(ctx)),
        "fig1" => {
            let f = figures::fig1(ctx, &wl_arg(1, "BL"));
            save("fig1", &f);
            println!("{}", f.render("requests"));
        }
        "fig2" => {
            let f = figures::fig2(ctx, &wl_arg(1, "BL"));
            save("fig2", &f);
            println!("{}", f.render("bytes"));
        }
        "fig13" => {
            let wl = &wl_arg(1, "BL");
            let h = figures::fig13(ctx, wl);
            save("fig13", &h);
            println!("{}", figures::render_fig13(&h, wl));
        }
        "fig14" => {
            let wl = &wl_arg(1, "BL");
            match figures::fig14(ctx, wl) {
                Some(s) => {
                    save("fig14", &s);
                    println!(
                        "Workload {wl}: {} re-references\n\
                         geometric mean size      {:>12.0} bytes\n\
                         geometric mean interref  {:>12.0} s\n\
                         median size              {:>12} bytes\n\
                         median interref          {:>12} s\n\
                         interref < 1h            {:>11.1}%",
                        s.n,
                        s.geo_mean_size,
                        s.geo_mean_interref,
                        s.median_size,
                        s.median_interref,
                        s.frac_interref_under_hour * 100.0
                    )
                }
                None => println!("workload {wl}: no re-references"),
            }
        }
        "exp1" => {
            let e = match arg(1) {
                Some(_) => exp1::Exp1 {
                    workloads: vec![exp1::run_one(ctx, &wl_arg(1, "BL"))],
                },
                None => exp1::run(ctx),
            };
            save("exp1", &e);
            for w in &e.workloads {
                println!("{}", e.figure(&w.workload).expect("figure"));
            }
            println!("{}", e.summary_table(ctx.scale()));
        }
        "exp2" => {
            let frac = frac(2);
            let set = match arg(3).unwrap_or("figures") {
                "figures" => exp2::PolicySet::Figures,
                "primaries" => exp2::PolicySet::Primaries,
                "all36" => exp2::PolicySet::All36,
                "named" => exp2::PolicySet::Named,
                other => usage_error(&format!(
                    "SET got unknown policy set {other:?} (expected figures, primaries, all36 or named)"
                )),
            };
            let workloads: Vec<String> = match arg(1) {
                Some(_) => vec![wl_arg(1, "BL")],
                None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
            };
            for w in &workloads {
                let e = exp2::run_one(ctx, w, frac, set);
                report_failed(&format!("workload {w} policy"), &e.failed);
                save(&format!("exp2_{w}"), &e);
                println!("{}", e.figure());
                println!("{}", e.table());
            }
        }
        "exp2b" => {
            let wl = &wl_arg(1, "G");
            let frac = frac(2);
            let s = exp2::run_secondary(ctx, wl, frac);
            save("exp2b", &s);
            println!("{}", s.table());
        }
        "exp3" => {
            let out = exp3::run(ctx, &WORKLOADS, frac(1));
            report_failed("workload", &out.failed);
            save("exp3", &out);
            println!("{}", exp3::table(&out.rows));
        }
        "exp3-shared" => {
            let wl = &wl_arg(1, "BL");
            let groups = positional(rest, 2, "GROUPS", 4, |&n: &usize| n >= 1);
            let r = exp3::run_shared(ctx, wl, 0.1, groups);
            save("exp3_shared", &r);
            println!(
                "Shared L2, workload {wl}, {groups} L1 groups: per-L1 HR {:?}, L2 HR {:.2}% WHR {:.2}%",
                r.l1_hrs
                    .iter()
                    .map(|h| format!("{:.1}%", h * 100.0))
                    .collect::<Vec<_>>(),
                r.l2_hr * 100.0,
                r.l2_whr * 100.0
            );
        }
        "exp5" => {
            let wl = &wl_arg(1, "BL");
            let runs = exp5::run(ctx, wl, frac(2));
            save("exp5", &runs);
            println!("{}", exp5::table(wl, &runs));
        }
        "replicate" => {
            let wl = &wl_arg(1, "G");
            let seeds = positional(rest, 2, "SEEDS", 5, |&n: &u64| n >= 1);
            let (shr, lhr, swhr, lwhr) = exp5::replicate(wl, ctx.scale(), 0.1, 1..1 + seeds);
            println!(
                "workload {wl}, {seeds} seeds, 10% cache:\n\
                 SIZE HR {:.2}% ± {:.2} | LRU HR {:.2}% ± {:.2}\n\
                 SIZE WHR {:.2}% ± {:.2} | LRU WHR {:.2}% ± {:.2}",
                shr.mean * 100.0,
                shr.stddev * 100.0,
                lhr.mean * 100.0,
                lhr.stddev * 100.0,
                swhr.mean * 100.0,
                swhr.stddev * 100.0,
                lwhr.mean * 100.0,
                lwhr.stddev * 100.0,
            );
        }
        "hitpos" => {
            // Appendix A: "location in sorted list of each URL hit".
            use webcache_core::cache::Cache;
            use webcache_core::policy::{named, RemovalPolicy};
            use webcache_core::sim::instrument::InstrumentedCache;
            use webcache_core::sim::{run_lanes, Lane};
            let wl = &wl_arg(1, "BL");
            let trace = ctx.trace(wl);
            let capacity = ctx.max_needed(wl) / 10;
            let lanes = [named::lru(), named::size()].map(|policy| {
                let label = policy.name();
                let cache =
                    move || InstrumentedCache::new(Cache::new(capacity, Box::new(policy)), 1000);
                Lane::with(label, &trace, cache, |_, ic| ic.into_report())
            });
            for (label, rep) in run_lanes(lanes.into()) {
                let rep = rep.unwrap_or_else(|e| panic!("lane {label} panicked: {e}"));
                println!(
                    "{label} on {wl}: {:.1}% of hits within 15 places of eviction",
                    rep.hits_within_position(15) * 100.0
                );
                let total: u64 = rep.hit_position_log2.iter().sum();
                for (i, &c) in rep.hit_position_log2.iter().enumerate().take(16) {
                    if c > 0 {
                        println!(
                            "  position [{:>6}..{:>6}): {:>7} hits ({:.1}%)",
                            (1u64 << i) - 1,
                            (1u64 << (i + 1)) - 1,
                            c,
                            100.0 * c as f64 / total.max(1) as f64
                        );
                    }
                }
            }
        }
        "exp4" => {
            let e = exp4::run(ctx, "BR", frac(1));
            report_failed("audio fraction", &e.failed);
            save("exp4", &e);
            println!("{}", e.table());
        }
        "all" => {
            for cmd in ["table1", "table3", "table4"] {
                run(ctx, json_dir, &[cmd.to_string()]);
            }
            println!("{}", figures::fig1(ctx, "BL").render("requests"));
            println!("{}", figures::fig2(ctx, "BL").render("bytes"));
            println!(
                "{}",
                figures::render_fig13(&figures::fig13(ctx, "BL"), "BL")
            );
            let e1 = exp1::run(ctx);
            save("exp1", &e1);
            println!("{}", e1.summary_table(ctx.scale()));
            for w in WORKLOADS {
                let e = exp2::run_one(ctx, w, 0.1, exp2::PolicySet::Figures);
                report_failed(&format!("workload {w} policy"), &e.failed);
                save(&format!("exp2_{w}"), &e);
                println!("{}", e.table());
            }
            for cmd in ["exp2b", "exp3", "exp4"] {
                run(ctx, json_dir, &[cmd.to_string()]);
            }
        }
        "help" => {
            println!(
                "usage: experiments [--scale F] [--seed N] [--json DIR] <command>\n\
                 commands: table1 table3 table4 fig1 fig2 fig13 fig14\n\
                 exp1 [WL] | exp2 [WL] [FRAC] [figures|primaries|all36|named] |\n\
                 exp2b [WL] [FRAC] | exp3 [FRAC] | exp3-shared WL [GROUPS] | exp4 [FRAC] |\n\
                 exp5 [WL] [FRAC] | replicate [WL] [SEEDS] | hitpos [WL] | all"
            );
        }
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

/// Minimal object-safe JSON serialisation shim so `save` can take any
/// serde-serialisable result without generics.
mod erased_json {
    /// Object-safe "serialise to JSON string".
    pub trait SerializeJson {
        /// Produce the JSON text.
        fn to_json(&self) -> String;
    }

    impl<T: serde::Serialize> SerializeJson for T {
        fn to_json(&self) -> String {
            serde_json::to_string_pretty(self).expect("serialisable result")
        }
    }
}
