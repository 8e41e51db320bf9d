//! `Trace::days()` against a naive per-day filter.
//!
//! `days()` finds each day's end by binary search over the requests it
//! has not yet handed out. Whatever the trace — empty days, requests at
//! exactly `k × SECONDS_PER_DAY`, a single request, no request at all —
//! it must yield, for every day from 0 to `duration_days() - 1`, exactly
//! the requests whose day index is that day, in trace order; and
//! `duration_days()` must be one past the largest day index.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use webcache_trace::{ClientId, DocType, Request, ServerId, Trace, UrlId, SECONDS_PER_DAY};

fn trace(mut times: Vec<u64>) -> Trace {
    times.sort_unstable();
    let requests = (times.iter().enumerate())
        .map(|(i, &time)| Request {
            time,
            client: ClientId(0),
            server: ServerId(0),
            url: UrlId(i as u32),
            size: 1,
            doc_type: DocType::Text,
            last_modified: None,
        })
        .collect();
    Trace {
        name: "days".into(),
        requests,
        ..Trace::default()
    }
}

fn check(times: Vec<u64>) -> Result<(), TestCaseError> {
    let trace = trace(times);
    let days = trace
        .requests
        .iter()
        .map(|r| r.day() + 1)
        .max()
        .unwrap_or(0);
    prop_assert_eq!(trace.duration_days(), days);
    let naive: Vec<(u64, Vec<Request>)> = (0..days)
        .map(|d| {
            let today = trace.requests.iter().filter(|r| r.day() == d);
            (d, today.copied().collect())
        })
        .collect();
    let sliced: Vec<(u64, Vec<Request>)> = trace.days().map(|(d, s)| (d, s.to_vec())).collect();
    prop_assert_eq!(sliced, naive);
    Ok(())
}

/// A time on one of the first few days, at its first second, its second
/// one, its last one, or anywhere in it.
fn time() -> impl Strategy<Value = u64> {
    (0..12u64, 0..4u8, 0..SECONDS_PER_DAY).prop_map(|(day, kind, anywhere)| {
        let offset = match kind {
            0 => 0,
            1 => 1,
            2 => SECONDS_PER_DAY - 1,
            _ => anywhere,
        };
        day * SECONDS_PER_DAY + offset
    })
}

#[test]
fn day_slices_equal_a_naive_filter() {
    let cases = if cfg!(debug_assertions) { 512 } else { 8192 };
    let mut runner = TestRunner::new(ProptestConfig::with_cases(cases));
    let outcome = runner.run(&prop::collection::vec(time(), 0..48), check);
    if let Err(e) = outcome {
        panic!("{e}");
    }
}

#[test]
fn day_slices_at_the_edges() {
    let d = SECONDS_PER_DAY;
    for times in [
        vec![],
        vec![0],
        vec![d],
        vec![7 * d],
        vec![d - 1, d],
        vec![0, d, 2 * d, 3 * d],
        vec![d, d, d, 5 * d - 1, 5 * d],
        vec![3 * d + 1; 4],
    ] {
        check(times.clone()).unwrap_or_else(|e| panic!("{times:?}: {e:?}"));
    }
}
