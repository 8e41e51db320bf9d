//! The resilient origin fetch's books: the host's circuit breaker, the
//! attempts a fetch may make, the backoff between them (exponential, with
//! deterministic jitter) — and the client-facing status when it yields no
//! response. The event loop runs the attempts themselves (`reactor.rs`);
//! everything it counts about them is counted here.

use crate::breaker::Admission;
use crate::cache_proxy::ProxyState;
use crate::config::ProxyConfig;
use crate::http::Response;
use std::sync::atomic::Ordering;
use std::time::Duration;
use webcache_core::util::splitmix64;

/// Why a resilient origin fetch returned no response.
#[derive(Debug)]
pub enum FetchError {
    /// The host's breaker is open; no connection was attempted.
    BreakerOpen,
    /// Every attempt failed.
    Exhausted {
        /// Whether any attempt hit a timeout.
        timed_out: bool,
    },
}

/// The origin host named by a proxy-form target, for breaker keying.
pub(crate) fn host_of(target: &str) -> &str {
    let rest = target.strip_prefix("http://").unwrap_or(target);
    rest.split('/').next().unwrap_or(rest)
}

/// The delay before retry `retry` (1 for the first): `base * 2^(retry-1)`
/// plus jitter in `[0, base/2]` whole milliseconds drawn from `seq`. Every
/// step saturates, so no `max_retries` overflows it, and for a base of at
/// least a millisecond it never decreases from one retry to the next.
pub(crate) fn backoff(base: Duration, retry: u32, seq: u64) -> Duration {
    const NANOS: u128 = 1_000_000_000;
    let base_ms = base.as_millis().clamp(1, u64::MAX as u128) as u64;
    let jitter = Duration::from_millis(splitmix64(seq) % (base_ms / 2 + 1));
    let doubling = 1u128
        .checked_shl(retry.saturating_sub(1))
        .unwrap_or(u128::MAX);
    let nanos = base
        .as_nanos()
        .saturating_mul(doubling)
        .saturating_add(jitter.as_nanos());
    match u64::try_from(nanos / NANOS) {
        Ok(secs) => Duration::new(secs, (nanos % NANOS) as u32),
        Err(_) => Duration::MAX,
    }
}

/// One origin fetch's attempts: what the host's breaker admitted, how
/// many attempts are left, and whether any of them timed out.
#[derive(Debug)]
pub(crate) struct Tries {
    admission: Admission,
    /// Attempts left, the one in flight included.
    left: u32,
    /// Retries made so far.
    retries: u32,
    timed_out: bool,
}

impl Tries {
    /// Breaker admission for `target`'s host: open → fast-fail, half-open
    /// → one probe attempt, else `1 + max_retries` attempts.
    pub(crate) fn admit(
        config: &ProxyConfig,
        state: &ProxyState,
        target: &str,
    ) -> Result<Tries, FetchError> {
        let admission = state.breakers.admit(
            host_of(target),
            state.now.load(Ordering::SeqCst),
            config.breaker_cooldown,
        );
        let left = match admission {
            Admission::Refused => {
                state.counters.breaker_fast_fails.add(1);
                return Err(FetchError::BreakerOpen);
            }
            Admission::Probe => 1,
            _ => config.max_retries.saturating_add(1),
        };
        Ok(Tries {
            admission,
            left,
            retries: 0,
            timed_out: false,
        })
    }

    /// The origin answered below `500`: a host with failures on record
    /// is forgiven them.
    pub(crate) fn succeeded(&self, state: &ProxyState, target: &str) {
        if !matches!(self.admission, Admission::Pristine) {
            state.breakers.on_success(host_of(target));
        }
    }

    /// A counted attempt failed (a `5xx`, or a failure on a fresh
    /// connection). `Ok` is the delay before the next attempt; `Err`, once
    /// none is left, is the fetch's failure, recorded and accounted to the
    /// host's breaker.
    pub(crate) fn failed(
        &mut self,
        timed_out: bool,
        config: &ProxyConfig,
        state: &ProxyState,
        target: &str,
    ) -> Result<Duration, FetchError> {
        if timed_out {
            self.timed_out = true;
            state.counters.timeouts.add(1);
        }
        self.left -= 1;
        if self.left > 0 {
            // The jitter stream is seeded by a per-proxy counter, not wall
            // time, so runs are reproducible.
            self.retries += 1;
            state.counters.retries.add(1);
            let seq = state.jitter_seq.fetch_add(1, Ordering::Relaxed) + 1;
            return Ok(backoff(config.backoff_base, self.retries, seq));
        }
        state.counters.origin_failures.add(1);
        let now = state.now.load(Ordering::SeqCst);
        if state
            .breakers
            .on_failure(host_of(target), config.breaker_threshold, now)
        {
            state.counters.breaker_trips.add(1);
        }
        Err(FetchError::Exhausted {
            timed_out: self.timed_out,
        })
    }
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
    fn backoff_saturates_and_never_decreases() {
        for base in [1, 10, 1000, u32::MAX as u64].map(Duration::from_millis) {
            let mut last = Duration::ZERO;
            for retry in 1..=64u32 {
                let delay = backoff(base, retry, u64::from(retry));
                assert!(
                    delay >= last,
                    "{base:?}: retry {retry} {delay:?} < {last:?}"
                );
                assert!(delay >= base, "{base:?}: retry {retry} {delay:?}");
                last = delay;
            }
        }
        assert_eq!(backoff(Duration::MAX, 64, 7), Duration::MAX);
        assert_eq!(
            backoff(Duration::from_millis(10), 1, 0) - Duration::from_millis(10),
            Duration::from_millis(splitmix64(0) % 6)
        );
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
