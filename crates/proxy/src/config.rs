//! [`ProxyConfig`]: every tunable of a running proxy, and its defaults.

use std::time::Duration;

/// Proxy configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Number of cache shards (nonzero power of two). `1` — the default —
    /// reproduces the paper's monolithic cache bit-for-bit; higher values
    /// partition the capacity per shard (each shard gets
    /// `capacity / shards` bytes, split as
    /// [`webcache_core::cache::split_capacity`] splits it). Serving
    /// deployments set this from `--shards`.
    pub shards: usize,
    /// Freshness lifetime in seconds: a copy older than this is
    /// revalidated with a conditional GET. `None` trusts copies forever
    /// (the simulator's behaviour for unchanged sizes).
    pub ttl: Option<u64>,
    /// TCP connect timeout for origin fetches.
    pub connect_timeout: Duration,
    /// How long an established origin connection may make no progress
    /// before the attempt on it fails (a timeout). Also the client stall
    /// deadline: a client making no progress on its request for this long
    /// gets `504`, one stalled mid-response is dropped.
    pub read_timeout: Duration,
    /// Retries after the first failed fetch (total attempts = 1 + this).
    pub max_retries: u32,
    /// Base of the exponential backoff between retries: retry `n` waits
    /// `base * 2^(n-1)` (saturating) plus deterministic jitter in
    /// `[0, base/2]`, on the event loop's deadline wheel.
    pub backoff_base: Duration,
    /// Consecutive exhausted fetches to one origin host before its
    /// circuit breaker opens.
    pub breaker_threshold: u32,
    /// Logical-clock ticks an open breaker waits before letting one
    /// half-open probe through. Logical (one tick per proxy request), not
    /// wall time, so breaker behaviour is deterministic under test.
    pub breaker_cooldown: u64,
    /// Serve an expired cached copy (marked degraded) when revalidation
    /// fails, instead of surfacing the origin error.
    pub serve_stale: bool,
}

impl ProxyConfig {
    /// A config with the given capacity, no TTL, one shard, and
    /// resilience defaults: 1 s connect / 2 s read timeouts, 2 retries
    /// with 10 ms backoff base, breaker opening after 5 failures for 32
    /// ticks, serve-stale on.
    pub fn new(capacity: u64) -> ProxyConfig {
        ProxyConfig {
            capacity,
            shards: 1,
            ttl: None,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            breaker_threshold: 5,
            breaker_cooldown: 32,
            serve_stale: true,
        }
    }

    /// Set the shard count (must be a nonzero power of two).
    pub fn with_shards(mut self, shards: usize) -> ProxyConfig {
        self.shards = shards;
        self
    }

    /// Set the freshness lifetime (logical seconds).
    pub fn with_ttl(mut self, ttl: u64) -> ProxyConfig {
        self.ttl = Some(ttl);
        self
    }

    /// Set retry count and backoff base.
    pub fn with_retries(mut self, max_retries: u32, backoff_base: Duration) -> ProxyConfig {
        self.max_retries = max_retries;
        self.backoff_base = backoff_base;
        self
    }

    /// Set connect and read timeouts.
    pub fn with_timeouts(mut self, connect: Duration, read: Duration) -> ProxyConfig {
        self.connect_timeout = connect;
        self.read_timeout = read;
        self
    }

    /// Set circuit-breaker threshold and cooldown (in logical ticks).
    pub fn with_breaker(mut self, threshold: u32, cooldown: u64) -> ProxyConfig {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Enable or disable serve-stale-on-error.
    pub fn with_serve_stale(mut self, on: bool) -> ProxyConfig {
        self.serve_stale = on;
        self
    }
}
