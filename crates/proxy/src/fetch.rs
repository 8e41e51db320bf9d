//! The resilient origin fetch: one [`Upstream::fetch`] per attempt under
//! retries with exponential backoff and deterministic jitter, guarded by
//! the host's circuit breaker — and the client-facing status when it
//! yields no response.

use crate::breaker::Admission;
use crate::cache_proxy::ProxyState;
use crate::config::ProxyConfig;
use crate::fault::splitmix64;
use crate::http::{HttpError, Response};
use crate::upstream::{Fetched, Upstream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Why a resilient origin fetch returned no response.
#[derive(Debug)]
pub(crate) enum FetchError {
    /// The host's breaker is open; no connection was attempted.
    BreakerOpen,
    /// Every attempt failed; `timed_out` if any attempt hit a timeout.
    Exhausted { timed_out: bool },
}

/// The origin host named by a proxy-form target, for breaker keying.
pub(crate) fn host_of(target: &str) -> &str {
    let rest = target.strip_prefix("http://").unwrap_or(target);
    rest.split('/').next().unwrap_or(rest)
}

fn is_timeout(e: &HttpError) -> bool {
    matches!(e, HttpError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    ))
}

/// Fetch from the origin with retries, backoff, and the host's circuit
/// breaker. Each attempt is one [`Upstream::fetch`]; a `5xx` response
/// counts as a failed attempt. No lock is held across network I/O or
/// backoff sleeps.
pub(crate) fn fetch_origin_resilient(
    up: &mut Upstream,
    target: &str,
    if_modified_since: Option<u64>,
    config: &ProxyConfig,
    state: &Arc<ProxyState>,
    host: &str,
) -> Result<Fetched, FetchError> {
    // Breaker admission: open → fast-fail (or half-open probe after the
    // cooldown); a probe gets exactly one attempt.
    let admission = state.breakers.admit(
        host,
        state.now.load(Ordering::SeqCst),
        config.breaker_cooldown,
    );
    if matches!(admission, Admission::Refused) {
        state.counters.breaker_fast_fails.add(1);
        return Err(FetchError::BreakerOpen);
    }
    let attempts = if matches!(admission, Admission::Probe) {
        1
    } else {
        1 + config.max_retries
    };
    let mut timed_out = false;
    for attempt in 0..attempts {
        if attempt > 0 {
            // Exponential backoff with deterministic jitter: the jitter
            // stream is seeded by a per-proxy counter, not wall time, so
            // runs are reproducible.
            let base_ms = config.backoff_base.as_millis().max(1) as u64;
            state.counters.retries.add(1);
            let seq = state.jitter_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let jitter_ms = splitmix64(seq) % (base_ms / 2 + 1);
            let sleep =
                config.backoff_base * (1 << (attempt - 1)) + Duration::from_millis(jitter_ms);
            std::thread::sleep(sleep);
        }
        match up.fetch(target, if_modified_since) {
            Ok(resp) if resp.status < 500 => {
                if !matches!(admission, Admission::Pristine) {
                    state.breakers.on_success(host);
                }
                return Ok(resp);
            }
            Ok(_server_error) => {}
            Err(e) => {
                if is_timeout(&e) {
                    timed_out = true;
                    state.counters.timeouts.add(1);
                }
            }
        }
    }

    // All attempts failed: record it and account the breaker.
    state.counters.origin_failures.add(1);
    let now = state.now.load(Ordering::SeqCst);
    if state
        .breakers
        .on_failure(host, config.breaker_threshold, now)
    {
        state.counters.breaker_trips.add(1);
    }
    Err(FetchError::Exhausted { timed_out })
}

/// The client-facing status for a fetch that produced no response.
pub(crate) fn error_response(e: &FetchError) -> Response {
    Response::status_only(match e {
        FetchError::BreakerOpen => 503,
        FetchError::Exhausted { timed_out: true } => 504,
        FetchError::Exhausted { timed_out: false } => 502,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_proxy::test_support::{get, orphan_proxy};

    #[test]
    fn host_of_extracts_the_breaker_key() {
        assert_eq!(host_of("http://o.test/a.html"), "o.test");
        assert_eq!(host_of("http://o.test:8080/deep/path"), "o.test:8080");
        assert_eq!(host_of("o.test/x"), "o.test");
    }

    #[test]
    fn dead_origin_yields_5xx_not_a_hang_for_uncached_documents() {
        let proxy = orphan_proxy(
            ProxyConfig::new(100_000)
                .with_retries(1, Duration::from_millis(1))
                .with_breaker(2, 1000),
        );
        let r = get(&proxy, "http://o.test/a.html");
        assert!(r.status >= 500, "expected 5xx, got {}", r.status);
        let s = proxy.stats();
        assert_eq!(s.origin_failures, 1);
        assert_eq!(s.retries, 1);
        // Second failure reaches the threshold and trips the breaker;
        // the third request fast-fails without touching the network.
        get(&proxy, "http://o.test/a.html");
        assert_eq!(proxy.stats().breaker_trips, 1);
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 503);
        assert_eq!(proxy.stats().breaker_fast_fails, 1);
    }
}
