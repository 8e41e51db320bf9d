//! `wcbench` — measures `webcache-proxy` end to end and layer by layer,
//! with the simulator beside it. See `benchmark/README.md`.
//!
//! ```text
//! wcbench --workload W --seed N --seconds S --trace 0|1   one run; last line is its JSON result
//! wcbench [--seed N] [--seconds S] [--repeat N]          every workload, both passes, result file
//! wcbench --smoke                                        every workload at ~1% size
//! wcbench --compare A.json B.json                        judge B against A by each metric's bound
//! ```

#![forbid(unsafe_code)]

mod child;
mod client;
mod compare;
mod gen;
mod json;
mod metrics;
mod procfs;
mod sim;
mod stages;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{Listed, Metric, METRICS};
use workload::{Kind, Report, RunCfg, RUN_SECONDS};

const USAGE: &str = "\
usage: wcbench --workload NAME --seed N --seconds S --trace 0|1
       wcbench [--seed N] [--seconds S] [--repeat N]
       wcbench --smoke
       wcbench --compare A.json B.json
       wcbench --print-benchmark-json

workloads: hot_small, paper_mix, paper_mix_persist, sim_sweep
";

/// Seconds per run of `--smoke`: about 1% of the requests of a full run.
const SMOKE_SECONDS: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn die(msg: &str) -> ! {
    eprintln!("wcbench: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// The metrics of `report` as `{name: {value, unit}}`, restricted to
/// `keep`. A metric the workload does not have reads 0; one it should
/// have but did not measure is a problem.
fn metrics_json(report: &mut Report, keep: impl Fn(&Metric) -> bool) -> Json {
    let mut fields = Vec::new();
    for m in METRICS.iter().filter(|m| keep(m)) {
        let value = match report.get(m.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                report.problems.push(format!("{} is {v}", m.name));
                0.0
            }
            None if m.on.contains(&report.workload) => {
                report.problems.push(format!("{} was not measured", m.name));
                0.0
            }
            None => 0.0,
        };
        fields.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn result_json(report: &Report, metrics: Json) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct())),
        (
            "attempted".into(),
            Json::Num(report.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), metrics),
    ])
}

fn print_report(report: &Report) {
    println!("== {} ==", report.workload);
    for (name, value) in &report.values {
        let unit = metrics::metric(name).map_or("", |m| m.unit);
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!("  attempted {}, failed {}", report.attempted, report.failed);
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
}

/// One run as the driver asks for it: the last line of stdout is the
/// result object, with every end-to-end metric of `BENCHMARK.json`
/// (`--trace 0`) or every per-layer metric (`--trace 1`).
fn run_one(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<(Report, Json), String> {
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        setups: if trace { 1 } else { SETUPS },
        out_dir: out_dir(),
    };
    let mut report = workload::run(kind, &cfg)?;
    let want = if trace {
        Listed::PerLayer
    } else {
        Listed::EndToEnd
    };
    let metrics = metrics_json(&mut report, |m| m.listed == want);
    print_report(&report);
    let line = result_json(&report, metrics);
    Ok((report, line))
}

/// What a result file says about where its numbers come from.
fn stamp(seed: u64, seconds: f64) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(&repo)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("kernel".into(), Json::Str(kernel)),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("scale".into(), Json::Num((seconds / RUN_SECONDS).min(1.0))),
        ("transport".into(), Json::Str("host loopback".into())),
        ("client_threads".into(), Json::Num(client::CLIENTS as f64)),
        (
            "proxy".into(),
            Json::Str(format!(
                "--shards {} --workers {} --policy {} (reactor)",
                child::SHARDS,
                child::WORKERS,
                child::POLICY
            )),
        ),
    ])
}

/// Every workload, untraced then traced: end-to-end metrics come from
/// the untraced run, per-layer metrics from the traced one.
fn run_all(seed: u64, seconds: f64) -> Result<(bool, Json), String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let (mut plain, _) = run_one(kind, seed, seconds, false)?;
        let mut fields = metrics_json(&mut plain, |m| {
            m.bound.is_some() && m.on.contains(&kind.name())
        });
        let mut ok = plain.correct();
        let (mut attempted, mut failed) = (plain.attempted, plain.failed);
        if kind != Kind::SimSweep {
            let (mut traced, _) = run_one(kind, seed, seconds, true)?;
            let layers = metrics_json(&mut traced, |m| {
                m.bound.is_none() && m.on.contains(&kind.name())
            });
            if let (Json::Obj(f), Json::Obj(l)) = (&mut fields, layers) {
                f.extend(l);
            }
            ok &= traced.correct();
            attempted += traced.attempted;
            failed += traced.failed;
        }
        correct &= ok;
        workloads.push((
            kind.name().to_string(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(ok)),
                ("attempted".into(), Json::Num(attempted as f64)),
                ("failed".into(), Json::Num(failed as f64)),
                ("metrics".into(), fields),
            ]),
        ));
    }
    Ok((
        correct,
        Json::Obj(vec![
            ("stamp".into(), stamp(seed, seconds)),
            ("workloads".into(), Json::Obj(workloads)),
        ]),
    ))
}

fn write_result(path: &Path, result: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(path, result.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `--repeat N`: N full runs, each with its own result file, then one
/// file holding median and quartiles of every metric.
fn run_repeated(seed: u64, seconds: f64, repeat: usize) -> Result<bool, String> {
    let mut correct = true;
    let mut runs = Vec::new();
    for i in 1..=repeat {
        let (ok, result) = run_all(seed, seconds)?;
        correct &= ok;
        let name = if repeat == 1 {
            format!("result_seed{seed}.json")
        } else {
            format!("result_seed{seed}_run{i}.json")
        };
        write_result(&out_dir().join(name), &result)?;
        runs.push(result);
    }
    if repeat > 1 {
        let summary = compare::summarise(&runs);
        compare::print_summary(&summary);
        write_result(
            &out_dir().join(format!("result_seed{seed}_x{repeat}.json")),
            &summary,
        )?;
    }
    Ok(correct)
}

/// `--smoke`: every workload at about 1% size, checking that each run's
/// result line carries exactly the metrics `BENCHMARK.json` names, with
/// its units — the hook a CI job calls.
fn smoke() -> Result<bool, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    let started = std::time::Instant::now();
    let mut ok = true;
    let mut complain = |msg: String| {
        println!("SMOKE FAILURE: {msg}");
        ok = false;
    };
    for w in spec.get("workloads").map_or(&[][..], Json::as_arr) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("");
        let kind = Kind::by_name(name).ok_or(format!("BENCHMARK.json names workload {name:?}"))?;
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (report, line) = run_one(kind, 1, SMOKE_SECONDS, trace)?;
            if !report.correct() {
                complain(format!(
                    "{name} --trace {}: run is not correct",
                    trace as u8
                ));
            }
            let emitted = line.get("metrics").map_or(&[][..], Json::as_obj);
            let wanted = spec.get(list).map_or(&[][..], Json::as_arr);
            if emitted.len() != wanted.len() {
                complain(format!(
                    "{name}: {} {list} metrics emitted, BENCHMARK.json names {}",
                    emitted.len(),
                    wanted.len()
                ));
            }
            for m in wanted {
                let metric = m.get("name").and_then(Json::as_str).unwrap_or("");
                let unit = m.get("unit").and_then(Json::as_str);
                match emitted.iter().find(|(n, _)| n == metric) {
                    None => complain(format!("{name}: {metric} is not emitted")),
                    Some((_, v)) if v.get("unit").and_then(Json::as_str) != unit => {
                        complain(format!("{name}: {metric} has the wrong unit"))
                    }
                    Some((_, v)) if list == "end_to_end" && v.num("value") == Some(0.0) => {
                        complain(format!("{name}: end-to-end metric {metric} is 0"))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    let (report, _) = run_one(Kind::SimSweep, 1, SMOKE_SECONDS, false)?;
    if !report.correct() {
        complain("sim_sweep: run is not correct".into());
    }
    println!(
        "smoke {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut repeat = 1usize;
    let mut args = std::env::args().skip(1);
    let mut mode_smoke = false;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                workload = Some(
                    Kind::by_name(&name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed"))
            }
            "--seconds" => {
                seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| die("bad --seconds"))
            }
            "--trace" => {
                trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                repeat = value("a count")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("bad --repeat"))
            }
            "--smoke" => mode_smoke = true,
            "--compare" => {
                let a = value("two result files");
                let b = value("two result files");
                return match compare::compare_files(Path::new(&a), Path::new(&b)) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("wcbench: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json(RUN_SECONDS as u64).pretty());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let outcome = if mode_smoke {
        smoke()
    } else if let Some(kind) = workload {
        run_one(kind, seed, seconds, trace).map(|(report, line)| {
            // The result object is the last line of stdout.
            println!("{}", line.compact());
            report.correct()
        })
    } else {
        run_repeated(seed, seconds, repeat)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            // No result line: the run could not be made at all.
            eprintln!("wcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
