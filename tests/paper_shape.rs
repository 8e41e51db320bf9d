//! Cross-crate integration tests asserting the paper's qualitative
//! results — who wins, by roughly what factor, where the crossovers fall —
//! on moderately scaled synthetic workloads.

use webcache::core::policy::{named, Key, KeySpec, SortedPolicy};
use webcache::core::sim::{max_needed, simulate_infinite, simulate_policy};
use webcache::workload::{generate, profiles};
use webcache_experiments::{exp2, exp3, exp4, Ctx};

const SCALE: f64 = 0.04;
const SEED: u64 = 123;

fn hr(res: &webcache::core::sim::SimResult) -> f64 {
    res.stream("cache").unwrap().total.hit_rate()
}

fn whr(res: &webcache::core::sim::SimResult) -> f64 {
    res.stream("cache").unwrap().total.weighted_hit_rate()
}

/// "Consistently, in our simulations of all five workloads, primary keys
/// SIZE and ⌊log₂(SIZE)⌋ achieve a higher hit rate than any other policy."
#[test]
fn size_keys_win_hit_rate_on_every_workload() {
    for profile in profiles::all() {
        let trace = generate(&profile.scaled(SCALE), SEED);
        let cap = (max_needed(&trace) / 10).max(1);
        let run = |key| {
            hr(&simulate_policy(
                &trace,
                cap,
                Box::new(SortedPolicy::new(KeySpec::primary(key))),
            ))
        };
        let size = run(Key::Size);
        let log2 = run(Key::Log2Size);
        let best_size = size.max(log2);
        for other in [Key::EntryTime, Key::AccessTime, Key::DayOfAccess, Key::NRef] {
            let o = run(other);
            assert!(
                best_size >= o - 0.005,
                "{}: {:?} HR {o} beats SIZE {best_size}",
                profile.name,
                other
            );
        }
        // And SIZE ≈ LOG2(SIZE), as the paper observes.
        assert!(
            (size - log2).abs() < 0.05,
            "{}: SIZE {size} vs LOG2 {log2}",
            profile.name
        );
    }
}

/// The paper's suggested ranking: "SIZE first, then NREF, then ATIME",
/// with ETIME worst among the non-day keys.
#[test]
fn paper_ranking_holds_on_bl() {
    let trace = generate(&profiles::bl().scaled(SCALE), SEED);
    let cap = (max_needed(&trace) / 10).max(1);
    let run = |key| {
        hr(&simulate_policy(
            &trace,
            cap,
            Box::new(SortedPolicy::new(KeySpec::primary(key))),
        ))
    };
    let size = run(Key::Size);
    let nref = run(Key::NRef);
    let atime = run(Key::AccessTime);
    let etime = run(Key::EntryTime);
    assert!(size > nref, "SIZE {size} vs NREF {nref}");
    assert!(nref > atime - 0.01, "NREF {nref} vs ATIME {atime}");
    assert!(atime > etime - 0.01, "ATIME {atime} vs ETIME {etime}");
    // The gap between SIZE and LRU is substantial, not marginal.
    assert!(size - atime > 0.04, "SIZE {size} barely beats LRU {atime}");
}

/// Section 4.4: on WHR the ranking flips — SIZE is the worst performer.
#[test]
fn size_loses_weighted_hit_rate() {
    let trace = generate(&profiles::bl().scaled(SCALE), SEED);
    let cap = (max_needed(&trace) / 10).max(1);
    let run = |key| {
        whr(&simulate_policy(
            &trace,
            cap,
            Box::new(SortedPolicy::new(KeySpec::primary(key))),
        ))
    };
    let size = run(Key::Size);
    let lru = run(Key::AccessTime);
    let nref = run(Key::NRef);
    // LRU's WHR margin over SIZE is large and robust at any scale; NREF's
    // is clear at full scale but can tie at reduced scale, so assert it
    // weakly.
    assert!(
        lru > size,
        "LRU WHR {lru} should beat SIZE WHR {size} (section 4.4)"
    );
    assert!(
        nref > size - 0.01,
        "NREF WHR {nref} far below SIZE WHR {size}"
    );
}

/// LRU-MIN behaves like the size keys (it is "one of the best policies").
#[test]
fn lru_min_is_competitive_with_size() {
    let trace = generate(&profiles::g().scaled(SCALE), SEED);
    let cap = (max_needed(&trace) / 10).max(1);
    let size = hr(&simulate_policy(&trace, cap, Box::new(named::size())));
    let lru_min = hr(&simulate_policy(
        &trace,
        cap,
        Box::new(webcache::core::policy::LruMin::new()),
    ));
    let lru = hr(&simulate_policy(&trace, cap, Box::new(named::lru())));
    assert!(
        lru_min > lru,
        "LRU-MIN {lru_min} should clearly beat plain LRU {lru}"
    );
    assert!(
        size - lru_min < 0.08,
        "LRU-MIN {lru_min} should be near SIZE {size}"
    );
}

/// "Replacing days-old files dramatically reduced HR and WHR in our
/// study" — Pitkow/Recker trails the size keys.
#[test]
fn pitkow_recker_trails_size() {
    let trace = generate(&profiles::bl().scaled(SCALE), SEED);
    let cap = (max_needed(&trace) / 10).max(1);
    let size = hr(&simulate_policy(&trace, cap, Box::new(named::size())));
    let pr = hr(&simulate_policy(
        &trace,
        cap,
        Box::new(webcache::core::policy::PitkowRecker::default()),
    ));
    assert!(size > pr, "SIZE {size} vs Pitkow/Recker {pr}");
}

/// Experiment 1 sanity: finite caches never beat the infinite cache, and
/// the infinite cache's hit count equals the trace's re-reference count
/// minus modification invalidations.
#[test]
fn infinite_cache_is_an_upper_bound() {
    let trace = generate(&profiles::c().scaled(SCALE), SEED);
    let inf = simulate_infinite(&trace);
    let inf_hits = inf.stream("cache").unwrap().total.hits;
    let cap = max_needed(&trace) / 10;
    for policy in [named::size(), named::lru(), named::fifo()] {
        let fin = simulate_policy(&trace, cap, Box::new(policy));
        assert!(fin.stream("cache").unwrap().total.hits <= inf_hits);
    }
    // Hit definition: re-reference with unchanged size.
    let rerefs = webcache_trace::stats::rereference_count(&trace);
    assert!(inf_hits <= rerefs);
    let changes = trace.validation.size_changes;
    assert!(
        inf_hits + changes >= rerefs,
        "hits {inf_hits} + size changes {changes} < re-references {rerefs}"
    );
}

/// The full 36-policy sweep runs and a size-primary combination tops it.
#[test]
fn all36_sweep_crowns_a_size_primary() {
    let ctx = Ctx::with_scale(SCALE, SEED);
    let e = exp2::run_one(&ctx, "BL", 0.1, exp2::PolicySet::All36);
    assert_eq!(e.runs.len(), 36);
    // The winner must be size-driven: either a size primary, or NREF with
    // a size secondary (LFU ties on NREF=1 for most documents, so its
    // size tie-break decides — a combination the paper's sweep contained
    // but did not single out; on our synthetic traces it edges pure SIZE
    // by a couple of points; see EXPERIMENTS.md).
    let best = e.ranked_by_hr()[0];
    let size_driven = |name: &str| {
        name.starts_with("SIZE/")
            || name.starts_with("LOG2(SIZE)/")
            || name.ends_with("/SIZE")
            || name.ends_with("/LOG2(SIZE)")
    };
    assert!(
        size_driven(&best.policy),
        "winner {} is not size-driven",
        best.policy
    );
    // And the best pure size primary is close behind the overall top.
    let best_size = e
        .runs
        .iter()
        .filter(|r| r.policy.starts_with("SIZE/") || r.policy.starts_with("LOG2(SIZE)/"))
        .map(|r| r.total_hr)
        .fold(0.0, f64::max);
    assert!(
        best_size >= best.total_hr - 0.04,
        "best size-primary HR {best_size} far behind {} at {}",
        best.policy,
        best.total_hr
    );
    // Every DAY(ATIME) and ETIME primary ranks below every SIZE primary.
    let worst_size = e
        .runs
        .iter()
        .filter(|r| r.policy.starts_with("SIZE/"))
        .map(|r| r.total_hr)
        .fold(f64::INFINITY, f64::min);
    let best_etime = e
        .runs
        .iter()
        .filter(|r| r.policy.starts_with("ETIME/"))
        .map(|r| r.total_hr)
        .fold(0.0, f64::max);
    assert!(worst_size > best_etime);
}

/// Experiment 3: the infinite L2 behind a starved L1 catches large
/// documents — L2 WHR exceeds L2 HR on every workload.
#[test]
fn second_level_cache_shape() {
    let ctx = Ctx::with_scale(SCALE, SEED);
    for w in ["U", "G", "C", "BR", "BL"] {
        let r = &exp3::run(&ctx, &[w], 0.1).rows[0];
        assert!(
            r.l2_whr >= r.l2_hr,
            "{w}: L2 WHR {} < L2 HR {}",
            r.l2_whr,
            r.l2_hr
        );
        // L1 + L2 together bound the infinite cache's hit rate.
        let trace = ctx.trace(w);
        let inf = simulate_infinite(&trace);
        let inf_hr = inf.stream("cache").unwrap().total.hit_rate();
        assert!(r.l1_hr + r.l2_hr <= inf_hr + 0.01);
    }
}

/// Experiment 4: the partition trade-off direction and the paper's
/// "equal split maximises overall WHR" tendency.
#[test]
fn partitioned_cache_shape() {
    let ctx = Ctx::with_scale(0.08, SEED);
    let e = exp4::run(&ctx, "BR", 0.1);
    assert_eq!(e.runs.len(), 3);
    // Audio WHR grows with the audio share.
    assert!(e.runs[0].audio_whr <= e.runs[2].audio_whr + 0.01);
    // Non-audio WHR shrinks as its space shrinks.
    assert!(e.runs[0].non_audio_whr >= e.runs[2].non_audio_whr - 0.01);
}

/// MaxNeeded ordering across workloads matches the paper's
/// U ≫ G ≈ BL > C ≈ BR where our traces keep it: every pair but C/BR.
#[test]
fn max_needed_ordering_matches_paper() {
    // 0.08 rather than the file-wide SCALE: at 0.04 the G/BR and BL/BR
    // gaps are within generation noise and their order depends on the
    // generator stream.
    let ctx = Ctx::with_scale(0.08, SEED);
    let mn: std::collections::HashMap<&str, u64> = ["U", "G", "C", "BR", "BL"]
        .into_iter()
        .map(|w| (w, max_needed(&ctx.trace(w))))
        .collect();
    // Only the scale-robust orderings: U is by far the biggest, and G
    // and BL sit above BR. (G vs C flips at reduced scale because C's
    // classroom working sets do not shrink with the request budget. At
    // full scale, `results/full_output.txt` has U 1282 ≫ BL 378 ≈ G 366
    // > BR 292 > C 217 MB: BR overshoots the paper's 198 MB and lands
    // above C, the reverse of the paper's C 221 > BR 198, EXPERIMENTS.md
    // known difference 4.)
    assert!(mn["U"] > mn["G"]);
    assert!(mn["U"] > mn["BL"]);
    assert!(mn["G"] > mn["BR"]);
    assert!(mn["BL"] > mn["BR"]);
}
