//! Circuit breakers, one per failing key (an origin host, or
//! `peer#<node>` in cluster mode): closed → open → half-open, the
//! cooldown counted in logical ticks.
//!
//! The table holds only keys with a failure on record. A key with no
//! entry has never failed or has since recovered — entries are created
//! by [`Breakers::on_failure`] and removed by [`Breakers::on_success`],
//! so the path of a healthy origin looks its host up by `&str` and
//! allocates nothing. Hosts that fail and are never asked for again
//! would stay for good, so the table is also capped at [`MAX_ENTRIES`]:
//! a new failing key then replaces the entry that opened longest ago,
//! which at worst gives a host that is still dead a fresh set of
//! attempts before it trips again.

use std::collections::HashMap;

/// Circuit-breaker state for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BreakerState {
    /// Fetches flow normally; consecutive failures are counted.
    #[default]
    Closed,
    /// Fetches fast-fail locally until the cooldown elapses.
    Open,
    /// One probe fetch is allowed through; its outcome decides whether
    /// the breaker closes again or re-opens.
    HalfOpen,
}

#[derive(Debug, Default)]
struct Breaker {
    state: BreakerState,
    /// Consecutive exhausted fetches while closed.
    failures: u32,
    /// Logical tick at which the breaker last opened.
    opened_at: u64,
}

/// Entries the table holds at most.
const MAX_ENTRIES: usize = 1024;

/// What a breaker says to a fetch about to start.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admission {
    /// No failure on record — the common case; a success then has
    /// nothing to clear.
    Pristine,
    /// Closed, with failures a success clears.
    Closed,
    /// Half-open: one probe attempt, whose outcome decides.
    Probe,
    /// Open and inside its cooldown: fail fast.
    Refused,
}

/// The breaker table, owned with the rest of the proxy's state by the
/// event loop.
#[derive(Debug, Default)]
pub(crate) struct Breakers {
    table: HashMap<String, Breaker>,
}

impl Breakers {
    /// Admission for `key` at logical time `now`; an open breaker turns
    /// half-open once `cooldown` ticks have passed.
    pub(crate) fn admit(&mut self, key: &str, now: u64, cooldown: u64) -> Admission {
        let Some(b) = self.table.get_mut(key) else {
            return Admission::Pristine;
        };
        match b.state {
            BreakerState::Closed => Admission::Closed,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open if now.saturating_sub(b.opened_at) >= cooldown => {
                b.state = BreakerState::HalfOpen;
                Admission::Probe
            }
            BreakerState::Open => Admission::Refused,
        }
    }

    /// A healthy answer forgets the key: closed, no failures on record.
    pub(crate) fn on_success(&mut self, key: &str) {
        self.table.remove(key);
    }

    /// Count one failure; `true` when this failure tripped the breaker
    /// open: a failed half-open probe re-opens immediately, a closed
    /// breaker opens once consecutive failures reach `threshold`.
    pub(crate) fn on_failure(&mut self, key: &str, threshold: u32, now: u64) -> bool {
        let table = &mut self.table;
        if !table.contains_key(key) {
            if table.len() >= MAX_ENTRIES {
                // Ties (entries that never opened) go by key, so which
                // one leaves does not depend on the map's iteration order.
                let oldest = table
                    .iter()
                    .min_by_key(|(k, b)| (b.opened_at, k.as_str()))
                    .map(|(k, _)| k.clone())
                    .expect("a full table is not empty");
                table.remove(&oldest);
            }
            table.insert(key.to_string(), Breaker::default());
        }
        let b = table.get_mut(key).expect("present: inserted above");
        b.failures += 1;
        let opens = match b.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.failures >= threshold,
            BreakerState::Open => false,
        };
        if opens {
            b.state = BreakerState::Open;
            b.opened_at = now;
        }
        opens
    }

    /// Keys currently holding an entry (reported as `breaker_entries`).
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::{Admission, Breakers, MAX_ENTRIES};
    use crate::cache_proxy::test_support::{get, orphan_proxy};
    use crate::stats::ADMIN_STATS_TARGET;
    use crate::{DocStore, FaultPlan, FaultyOrigin, OriginServer, ProxyConfig, ProxyServer};
    use std::sync::Arc;
    use std::time::Duration;
    use webcache_core::policy::named;

    #[test]
    fn a_stream_of_distinct_dead_hosts_cannot_grow_the_table() {
        let mut breakers = Breakers::default();
        let hosts = 10 * MAX_ENTRIES as u64;
        for i in 0..hosts {
            // Threshold 1: every host trips on its first failure, at tick i.
            assert!(breakers.on_failure(&format!("dead{i}.test"), 1, i));
            assert!(breakers.len() <= MAX_ENTRIES);
        }
        // `len` is the number `/__webcache/stats` reports as
        // `breaker_entries`.
        assert_eq!(breakers.len(), MAX_ENTRIES);
        // The hosts that opened last are the ones still remembered.
        let newest = format!("dead{}.test", hosts - 1);
        let kept = format!("dead{}.test", hosts - MAX_ENTRIES as u64);
        let gone = format!("dead{}.test", hosts - MAX_ENTRIES as u64 - 1);
        for host in [&newest, &kept] {
            assert!(matches!(
                breakers.admit(host, hosts, u64::MAX),
                Admission::Refused
            ));
        }
        for host in [gone.as_str(), "dead0.test"] {
            assert!(matches!(
                breakers.admit(host, hosts, 0),
                Admission::Pristine
            ));
        }
    }

    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        let proxy = orphan_proxy(
            ProxyConfig::new(100_000)
                .with_retries(0, Duration::from_millis(1))
                .with_breaker(2, 2),
        );
        // Two failures trip the breaker.
        get(&proxy, "http://o.test/a.html");
        get(&proxy, "http://o.test/a.html");
        assert_eq!(proxy.stats().breaker_trips, 1);
        // Inside the cooldown: fast-fail, no network attempt.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 503);
        assert_eq!(proxy.stats().breaker_fast_fails, 1);
        // Cooldown elapsed: the half-open probe gets one real attempt; its
        // failure must re-open the breaker immediately (second trip), not
        // restart the closed-state failure count.
        let probe = get(&proxy, "http://o.test/a.html");
        assert_eq!(
            probe.status, 502,
            "probe is a real attempt, not a fast-fail"
        );
        assert_eq!(proxy.stats().breaker_trips, 2);
        // And the re-opened breaker fast-fails again.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 503);
        let s = proxy.stats();
        assert_eq!(s.breaker_fast_fails, 2);
        assert_eq!(s.origin_failures, 3, "two trip failures + the probe");
    }

    #[test]
    fn successful_probe_forgets_the_host() {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        let origin = OriginServer::start(store).unwrap();
        // The origin's first two connections answer 503, the rest work.
        let flaky = FaultyOrigin::start(
            origin.addr(),
            FaultPlan::new(1).server_error(1.0).active_range(0, 2),
        )
        .unwrap();
        let config = ProxyConfig::new(100_000)
            .with_retries(0, Duration::from_millis(1))
            .with_breaker(2, 2);
        let proxy = ProxyServer::start(flaky.addr(), config, || Box::new(named::size())).unwrap();
        let breaker_entries = |n: usize| {
            let body = get(&proxy, ADMIN_STATS_TARGET).body;
            let json = String::from_utf8(body.to_vec()).unwrap();
            assert!(
                json.contains(&format!("\"breaker_entries\":{n},")),
                "{json}"
            );
        };
        breaker_entries(0);
        // Fail the host open, sit out the cooldown on a fast-fail.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 502);
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 502);
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 503);
        assert_eq!(proxy.stats().breaker_trips, 1);
        breaker_entries(1);
        // The half-open probe succeeds: the entry is removed, not reset.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
        breaker_entries(0);
    }

    #[test]
    fn breakers_are_independent_per_origin_host() {
        let proxy = orphan_proxy(
            ProxyConfig::new(100_000)
                .with_retries(0, Duration::from_millis(1))
                .with_breaker(2, 1000),
        );
        // Trip a.test's breaker.
        get(&proxy, "http://a.test/x");
        get(&proxy, "http://a.test/x");
        assert_eq!(proxy.stats().breaker_trips, 1);
        assert_eq!(get(&proxy, "http://a.test/x").status, 503);
        // b.test must not inherit a.test's open breaker: it still gets a
        // real attempt (502 exhausted, not 503 fast-fail).
        let r = get(&proxy, "http://b.test/y");
        assert_eq!(r.status, 502, "b.test inherited a.test's breaker");
        assert_eq!(
            proxy.stats().breaker_fast_fails,
            1,
            "only a.test fast-failed"
        );
        // And b.test trips on its own failure count.
        get(&proxy, "http://b.test/y");
        assert_eq!(proxy.stats().breaker_trips, 2);
        assert_eq!(get(&proxy, "http://b.test/y").status, 503);
    }

    #[test]
    fn serve_stale_leaves_breaker_state_intact() {
        let store = Arc::new(DocStore::new());
        store.put_synthetic("http://o.test/a.html", 1000, 10);
        let origin = OriginServer::start(store).unwrap();
        let config = ProxyConfig::new(100_000)
            .with_ttl(1)
            .with_retries(0, Duration::from_millis(1))
            .with_breaker(2, 1000);
        let proxy = ProxyServer::start(origin.addr(), config, || Box::new(named::size())).unwrap();
        // Cache a copy, then lose the origin.
        assert_eq!(get(&proxy, "http://o.test/a.html").status, 200);
        drop(origin);
        // Two uncached fetches fail and trip the host's breaker.
        get(&proxy, "http://o.test/b.gif");
        get(&proxy, "http://o.test/c.au");
        assert_eq!(proxy.stats().breaker_trips, 1);
        // The expired copy revalidates into the open breaker: served stale
        // (degraded) off the fast-fail, with no network attempt.
        let r = get(&proxy, "http://o.test/a.html");
        assert_eq!(r.status, 200, "stale copy must survive an open breaker");
        assert!(r.is_cache_hit());
        assert!(r.is_degraded());
        let s = proxy.stats();
        assert_eq!(s.stale_serves, 1);
        assert_eq!(s.breaker_fast_fails, 1);
        // The stale serve must not close, reset, or re-trip the breaker:
        // the next uncached fetch is still fast-failed.
        assert_eq!(get(&proxy, "http://o.test/d.html").status, 503);
        assert_eq!(proxy.stats().breaker_trips, 1);
        assert_eq!(proxy.stats().breaker_fast_fails, 2);
    }
}
