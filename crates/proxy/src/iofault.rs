//! Deterministic disk-fault injection for the persistence write paths.
//!
//! The same seeded-plan idea as [`crate::fault`], aimed at the disk
//! instead of the network: an [`IoFaultPlan`] is a pure function of
//! `(seed, persist-op index)` deciding which journal appends, fsyncs, and
//! snapshot writes fail — with `ENOSPC`/`EIO` errors, short writes that
//! leave a real torn tail on disk, and slow or failing fsyncs. An
//! [`IoFaultInjector`] carries the plan plus a shared op counter and is
//! threaded through every write path in [`crate::persist`]
//! ([`crate::persist::JournalWriter`], the snapshot writers), so tests
//! drive real files, real torn tails, and real recovery through the
//! production code — and can precompute the exact fault schedule
//! ([`IoFaultPlan::schedule`]) to assert the proxy's degradation counters
//! against.
//!
//! Fault kinds are grouped into op classes: journal appends (and the
//! degraded-mode re-arm probe) consult the *append* class, fsyncs the
//! *sync* class, snapshot file writes the *snapshot* class. One
//! monotone op counter spans all classes, so a single plan describes a
//! whole episode of disk misbehaviour.

use crate::fault::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected disk failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A journal append fails outright with `ENOSPC` — no bytes written.
    AppendError,
    /// A journal append writes only a prefix of its bytes to the file,
    /// then fails with `EIO` — a real torn tail recovery must truncate.
    ShortWrite,
    /// An fsync fails with `EIO` after the data may or may not have
    /// reached the platter — the classic unreportable-loss fsync.
    SyncError,
    /// An fsync succeeds but only after
    /// [`IoFaultPlan::slow_sync_for`] — a saturated or degrading disk.
    SlowSync,
    /// A snapshot file write fails with `ENOSPC` before its
    /// atomic rename — the previous generation stays the newest.
    SnapshotError,
}

impl IoFaultKind {
    /// Every fault kind, in cumulative-probability order.
    pub const ALL: [IoFaultKind; 5] = [
        IoFaultKind::AppendError,
        IoFaultKind::ShortWrite,
        IoFaultKind::SyncError,
        IoFaultKind::SlowSync,
        IoFaultKind::SnapshotError,
    ];
}

/// The class of persistence operation consulting the plan; each class
/// draws only against its own kinds, so `append=1.0` means *every*
/// append fails while snapshots still commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOpClass {
    /// A journal append (or the degraded-mode write probe).
    Append,
    /// A journal group-fsync (or the probe's fsync).
    Sync,
    /// A snapshot file write.
    Snapshot,
}

impl IoOpClass {
    /// The fault kinds applicable to this op class.
    fn kinds(self) -> &'static [IoFaultKind] {
        match self {
            IoOpClass::Append => &[IoFaultKind::AppendError, IoFaultKind::ShortWrite],
            IoOpClass::Sync => &[IoFaultKind::SyncError, IoFaultKind::SlowSync],
            IoOpClass::Snapshot => &[IoFaultKind::SnapshotError],
        }
    }
}

/// A seeded, deterministic plan of which persist ops fail and how.
///
/// The decision for op `i` depends only on the seed, the per-kind
/// probabilities, and the active range — never on timing — so a fault
/// episode is exactly reproducible.
#[derive(Debug, Clone)]
pub struct IoFaultPlan {
    seed: u64,
    /// Probability of each kind, indexed as [`IoFaultKind::ALL`].
    rates: [f64; 5],
    /// Only ops in `[active_from, active_to)` are faulted.
    active_from: u64,
    active_to: u64,
    /// Hold time for [`IoFaultKind::SlowSync`].
    pub slow_sync_for: Duration,
}

impl IoFaultPlan {
    /// A plan injecting nothing; compose with the rate builders.
    pub fn new(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rates: [0.0; 5],
            active_from: 0,
            active_to: u64::MAX,
            slow_sync_for: Duration::from_millis(50),
        }
    }

    fn rate(mut self, kind: IoFaultKind, p: f64) -> IoFaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let i = IoFaultKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL covers every kind");
        self.rates[i] = p;
        for class in [IoOpClass::Append, IoOpClass::Sync, IoOpClass::Snapshot] {
            let sum: f64 = class
                .kinds()
                .iter()
                .map(|k| {
                    self.rates[IoFaultKind::ALL
                        .iter()
                        .position(|a| a == k)
                        .expect("ALL covers every kind")]
                })
                .sum();
            assert!(sum <= 1.0 + 1e-9, "fault probabilities sum past 1");
        }
        self
    }

    /// Fail a fraction `p` of journal appends with `ENOSPC`.
    pub fn append_error(self, p: f64) -> IoFaultPlan {
        self.rate(IoFaultKind::AppendError, p)
    }

    /// Short-write a fraction `p` of journal appends: a prefix reaches
    /// the file (a real torn tail), then `EIO`.
    pub fn short_write(self, p: f64) -> IoFaultPlan {
        self.rate(IoFaultKind::ShortWrite, p)
    }

    /// Fail a fraction `p` of fsyncs with `EIO`.
    pub fn sync_error(self, p: f64) -> IoFaultPlan {
        self.rate(IoFaultKind::SyncError, p)
    }

    /// Delay a fraction `p` of fsyncs by `hold` before succeeding.
    pub fn slow_sync(mut self, p: f64, hold: Duration) -> IoFaultPlan {
        self.slow_sync_for = hold;
        self.rate(IoFaultKind::SlowSync, p)
    }

    /// Fail a fraction `p` of snapshot writes with `ENOSPC`.
    pub fn snapshot_error(self, p: f64) -> IoFaultPlan {
        self.rate(IoFaultKind::SnapshotError, p)
    }

    /// Restrict faults to ops `from..to` (half-open) — a bounded fault
    /// episode the store can heal from once it passes.
    pub fn active_range(mut self, from: u64, to: u64) -> IoFaultPlan {
        self.active_from = from;
        self.active_to = to;
        self
    }

    /// Aggregate fault probability (all classes) while active.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The fault (if any) injected on persist op `op` of class `class`.
    pub fn decide(&self, op: u64, class: IoOpClass) -> Option<IoFaultKind> {
        if op < self.active_from || op >= self.active_to {
            return None;
        }
        // 53 high bits → uniform draw in [0, 1).
        let draw = (splitmix64(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
            / (1u64 << 53) as f64;
        let mut cumulative = 0.0;
        for &kind in class.kinds() {
            let i = IoFaultKind::ALL
                .iter()
                .position(|&a| a == kind)
                .expect("ALL covers every kind");
            cumulative += self.rates[i];
            if draw < cumulative {
                return Some(kind);
            }
        }
        None
    }

    /// The fault schedule for the first `n` ops, all of class `class`.
    pub fn schedule(&self, n: u64, class: IoOpClass) -> Vec<Option<IoFaultKind>> {
        (0..n).map(|op| self.decide(op, class)).collect()
    }

    /// Parse a compact flag spec: comma-separated `key=value` pairs with
    /// keys `seed`, `append`, `short`, `sync`, `slow`, `slow-ms`,
    /// `snapshot`, `from`, `to` — e.g.
    /// `seed=7,append=1.0,sync=0.5,from=100,to=500`. Rates are
    /// probabilities in `[0,1]`; `slow-ms` is the slow-fsync hold.
    pub fn parse(spec: &str) -> Result<IoFaultPlan, String> {
        let mut seed = 1u64;
        let mut rates = [0.0f64; 5];
        let mut from = 0u64;
        let mut to = u64::MAX;
        let mut slow_ms = 50u64;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("iofault: expected key=value, got {part:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_rate = || -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("iofault: bad rate {value:?} for {key}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("iofault: rate {value} for {key} out of [0,1]"));
                }
                Ok(p)
            };
            let parse_u64 = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("iofault: bad integer {value:?} for {key}"))
            };
            match key {
                "seed" => seed = parse_u64()?,
                "append" => rates[0] = parse_rate()?,
                "short" => rates[1] = parse_rate()?,
                "sync" => rates[2] = parse_rate()?,
                "slow" => rates[3] = parse_rate()?,
                "snapshot" => rates[4] = parse_rate()?,
                "slow-ms" => slow_ms = parse_u64()?,
                "from" => from = parse_u64()?,
                "to" => to = parse_u64()?,
                _ => return Err(format!("iofault: unknown key {key:?}")),
            }
        }
        if rates[0] + rates[1] > 1.0 + 1e-9 || rates[2] + rates[3] > 1.0 + 1e-9 {
            return Err("iofault: class probabilities sum past 1".to_string());
        }
        let mut plan = IoFaultPlan::new(seed).active_range(from, to);
        plan.rates = rates;
        plan.slow_sync_for = Duration::from_millis(slow_ms);
        Ok(plan)
    }
}

/// Per-kind counters of faults actually injected, plus clean ops.
#[derive(Debug, Default)]
pub struct IoFaultStats {
    /// Journal appends failed outright.
    pub append_errors: AtomicU64,
    /// Journal appends that tore mid-record.
    pub short_writes: AtomicU64,
    /// Fsyncs failed.
    pub sync_errors: AtomicU64,
    /// Fsyncs delayed, then allowed through.
    pub slow_syncs: AtomicU64,
    /// Snapshot writes failed before their rename.
    pub snapshot_errors: AtomicU64,
    /// Ops that passed through untouched.
    pub passed: AtomicU64,
}

impl IoFaultStats {
    /// Total faults injected (everything but clean pass-throughs).
    pub fn injected(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
            + self.short_writes.load(Ordering::Relaxed)
            + self.sync_errors.load(Ordering::Relaxed)
            + self.slow_syncs.load(Ordering::Relaxed)
            + self.snapshot_errors.load(Ordering::Relaxed)
    }
}

/// Marker for an injected short write: the caller must write a *prefix*
/// of its bytes (tearing the record on disk for real), then surface
/// [`IoFaultInjector::short_write_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortWrite;

fn enospc() -> std::io::Error {
    // Raw errno keeps the error honest (`No space left on device`)
    // without depending on the still-unstable io_error_more kinds.
    std::io::Error::from_raw_os_error(28) // ENOSPC
}

fn eio() -> std::io::Error {
    std::io::Error::from_raw_os_error(5) // EIO
}

/// A plan plus the shared op counter and injection stats: the hook
/// [`crate::persist`] consults on every write path. Cheap to share
/// (`Arc`) between the per-shard journal writers and the snapshot
/// writer; the counter is global so one plan spans them all.
#[derive(Debug)]
pub struct IoFaultInjector {
    plan: IoFaultPlan,
    ops: AtomicU64,
    stats: IoFaultStats,
}

impl IoFaultInjector {
    /// Wrap a plan for injection.
    pub fn new(plan: IoFaultPlan) -> IoFaultInjector {
        IoFaultInjector {
            plan,
            ops: AtomicU64::new(0),
            stats: IoFaultStats::default(),
        }
    }

    /// Persist ops decided so far (fault indices run `0..ops`).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Injection counters.
    pub fn stats(&self) -> &IoFaultStats {
        &self.stats
    }

    fn next(&self, class: IoOpClass) -> Option<IoFaultKind> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let fault = self.plan.decide(op, class);
        if fault.is_none() {
            self.stats.passed.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Consult the plan for one journal append (or probe write).
    pub fn on_append(&self) -> Result<Option<ShortWrite>, std::io::Error> {
        match self.next(IoOpClass::Append) {
            Some(IoFaultKind::AppendError) => {
                self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
                Err(enospc())
            }
            Some(IoFaultKind::ShortWrite) => {
                self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
                Ok(Some(ShortWrite))
            }
            _ => Ok(None),
        }
    }

    /// The error a short write surfaces after tearing the file.
    pub fn short_write_error(&self) -> std::io::Error {
        eio()
    }

    /// Consult the plan for one fsync; sleeps through a
    /// [`IoFaultKind::SlowSync`] before allowing it.
    pub fn on_sync(&self) -> Result<(), std::io::Error> {
        match self.next(IoOpClass::Sync) {
            Some(IoFaultKind::SyncError) => {
                self.stats.sync_errors.fetch_add(1, Ordering::Relaxed);
                Err(eio())
            }
            Some(IoFaultKind::SlowSync) => {
                self.stats.slow_syncs.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.slow_sync_for);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Consult the plan for one snapshot file write.
    pub fn on_snapshot(&self) -> Result<(), std::io::Error> {
        match self.next(IoOpClass::Snapshot) {
            Some(IoFaultKind::SnapshotError) => {
                self.stats.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                Err(enospc())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let plan = IoFaultPlan::new(42).append_error(0.2).short_write(0.1);
        let a = plan.schedule(10_000, IoOpClass::Append);
        let b = plan.schedule(10_000, IoOpClass::Append);
        assert_eq!(a, b, "same seed must give the same schedule");
        let fails = a
            .iter()
            .filter(|f| **f == Some(IoFaultKind::AppendError))
            .count() as f64;
        let shorts = a
            .iter()
            .filter(|f| **f == Some(IoFaultKind::ShortWrite))
            .count() as f64;
        assert!((fails / 10_000.0 - 0.2).abs() < 0.02, "append rate off");
        assert!((shorts / 10_000.0 - 0.1).abs() < 0.02, "short rate off");
        let other = IoFaultPlan::new(43).append_error(0.2).short_write(0.1);
        assert_ne!(other.schedule(10_000, IoOpClass::Append), a);
    }

    #[test]
    fn classes_draw_independently() {
        // Only appends fail: the same op indices consulted as sync or
        // snapshot ops must pass clean.
        let plan = IoFaultPlan::new(7).append_error(1.0);
        assert!(plan
            .schedule(100, IoOpClass::Append)
            .iter()
            .all(|f| *f == Some(IoFaultKind::AppendError)));
        assert!(plan
            .schedule(100, IoOpClass::Sync)
            .iter()
            .all(|f| f.is_none()));
        assert!(plan
            .schedule(100, IoOpClass::Snapshot)
            .iter()
            .all(|f| f.is_none()));
    }

    #[test]
    fn active_range_gates_faults() {
        let plan = IoFaultPlan::new(9).snapshot_error(1.0).active_range(3, 6);
        let s = plan.schedule(10, IoOpClass::Snapshot);
        for (i, f) in s.iter().enumerate() {
            if (3..6).contains(&i) {
                assert_eq!(*f, Some(IoFaultKind::SnapshotError));
            } else {
                assert_eq!(*f, None);
            }
        }
    }

    #[test]
    fn injector_counts_and_errors() {
        let inj = IoFaultInjector::new(IoFaultPlan::new(1).append_error(1.0));
        let e = inj.on_append().expect_err("every append must fail");
        assert_eq!(e.raw_os_error(), Some(28), "ENOSPC");
        assert_eq!(inj.stats().append_errors.load(Ordering::Relaxed), 1);
        assert_eq!(inj.ops(), 1);
        // Sync class is untouched by an append-only plan.
        assert!(inj.on_sync().is_ok());
    }

    #[test]
    fn spec_parse_round_trips() {
        let plan = IoFaultPlan::parse("seed=7,append=0.5,short=0.25,sync=1.0,from=10,to=20")
            .expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rates[0], 0.5);
        assert_eq!(plan.rates[1], 0.25);
        assert_eq!(plan.rates[2], 1.0);
        assert_eq!((plan.active_from, plan.active_to), (10, 20));
        assert!(IoFaultPlan::parse("append=2.0").is_err());
        assert!(IoFaultPlan::parse("bogus=1").is_err());
        assert!(IoFaultPlan::parse("append=0.8,short=0.8").is_err());
        let empty = IoFaultPlan::parse("").expect("empty spec is a no-op plan");
        assert_eq!(empty.total_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sum past 1")]
    fn overfull_class_is_rejected() {
        let _ = IoFaultPlan::new(1).append_error(0.6).short_write(0.6);
    }
}
