//! The proxy side of crash-safe persistence ([`crate::persist`] owns the
//! file formats): the [`PersistHealth`] state machine, the per-shard
//! journal buffers the serving path logs into, the background persister
//! thread that drains, fsyncs and snapshots them, and the application of
//! recovered snapshots and journals to a cold cache.
//!
//! The persister never touches a shard. While the proxy serves, the event
//! loop owns them: the persister asks on its [`line()`] for every shard's
//! records, or for every shard captured, rings the loop's eventfd, and
//! reads back what the loop took in its next turn. The journal buffers
//! stay the loop's, in each shard's `ShardExt`. When the loop exits, its
//! last act is to capture every shard for the persister's final drain and
//! snapshot. Recovery ([`apply_recovery`], [`install_journals`]) runs on
//! the proxy's state before the loop starts and takes it over.
//!
//! The write path is proportional to what is still resident when the
//! persister gets to it (DESIGN.md D24): a buffered `Insert` whose
//! document is evicted before the drain is rewritten as an `Evict` and
//! its body never reaches the disk; an idle persister neither fsyncs nor
//! snapshots; and what was written (`journal_elided`, `journal_bytes`,
//! `snapshot_bytes`, `snapshots`, `snapshots_skipped`) is counted in the
//! proxy's counter table for `/__webcache/stats`.

use crate::cache_proxy::{ProxyState, RecoveryReport, Resident, ShardCache, ShardExt};
use crate::iofault::IoFaultInjector;
use crate::persist::{self, JournalOp, PersistConfig, PersistError};
use crate::reactor::EventFd;
use crate::serve::{install, refresh_resident, touch_resident};
use crate::stats::{Counters, ProxyStats};
use crate::url_table::UrlTable;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_core::cache::{CacheState, DocMeta, RestoreOutcome};
use webcache_trace::UrlId;

/// Persistence health, as seen by operators and the exit status.
///
/// The proxy *serves* in every state; only durability varies:
///
/// * [`Healthy`](PersistHealth::Healthy) — journal + snapshots as
///   designed; loss window is the journal fsync interval.
/// * [`Degraded`](PersistHealth::Degraded) — a persist write failed.
///   Journaling is suspended (an errored journal file may be torn, so
///   further appends would be unreadable anyway) but snapshots continue
///   on cadence: the loss window widens from the fsync interval to the
///   snapshot interval. A re-arm probe retries the disk with capped
///   exponential backoff; on success one full snapshot heals the gap
///   and journaling resumes.
/// * [`Disabled`](PersistHealth::Disabled) — the probe failed
///   `degraded_max_retries` times in a row. Persistence is switched off
///   entirely (journal buffers freed); the proxy keeps serving from
///   memory and the exit status reports the loss.
///
/// Invariant in every state: a degraded or healed store may restart
/// *colder*, never *wrong* — replay truncates at the first torn frame
/// or sequence gap, and every recovered body is checksum-verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistHealth {
    /// Journal + snapshots operating normally.
    Healthy,
    /// Journaling suspended, snapshot-grade durability, probing to heal.
    Degraded,
    /// Persistence off; serving continues from memory only.
    Disabled,
}

impl PersistHealth {
    /// Lowercase state name as printed in log lines.
    pub fn name(&self) -> &'static str {
        match self {
            PersistHealth::Healthy => "healthy",
            PersistHealth::Degraded => "degraded",
            PersistHealth::Disabled => "disabled",
        }
    }

    fn from_u8(v: u8) -> PersistHealth {
        match v {
            0 => PersistHealth::Healthy,
            1 => PersistHealth::Degraded,
            _ => PersistHealth::Disabled,
        }
    }
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_DISABLED: u8 = 2;

/// Shared persistence-health state: the current [`PersistHealth`], which
/// the event loop reads on every journaled mutation and only the persister
/// thread transitions, and the demand for a forced snapshot. Its edges and
/// the records lost are counted in the proxy's counter table.
#[derive(Debug)]
pub struct PersistHealthState {
    /// Encoded [`PersistHealth`] (`0`/`1`/`2`).
    state: AtomicU8,
    /// Set when dropped records mean the journal alone no longer covers
    /// the snapshot gap; the persister must snapshot before trusting it.
    force_snapshot: AtomicBool,
    /// The proxy's counter table.
    counters: Arc<Counters>,
}

impl PersistHealthState {
    /// A healthy store counting into `counters`.
    pub(crate) fn new(counters: Arc<Counters>) -> PersistHealthState {
        PersistHealthState {
            state: AtomicU8::new(HEALTH_HEALTHY),
            force_snapshot: AtomicBool::new(false),
            counters,
        }
    }

    /// Current health.
    pub fn health(&self) -> PersistHealth {
        PersistHealth::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The proxy's counters: like [`crate::ProxyServer::stats`], but
    /// readable after the server is dropped, once its final snapshot ran.
    pub fn stats(&self) -> ProxyStats {
        self.counters.snapshot()
    }

    /// Whether new journal records are being accepted.
    fn is_accepting(&self) -> bool {
        self.state.load(Ordering::Acquire) == HEALTH_HEALTHY
    }

    /// Count `n` records that never reached the journal.
    fn count_lost(&self, n: u64) {
        self.counters.journal_lost_records.add(n);
    }

    /// Count `n` records evicted drop-oldest and demand a snapshot: the
    /// journal's tail no longer joins up with the last snapshot.
    fn record_overflow(&self, n: u64) {
        self.counters.journal_dropped.add(n);
        self.force_snapshot.store(true, Ordering::Release);
    }

    /// Consume a pending forced-snapshot demand.
    fn take_force_snapshot(&self) -> bool {
        self.force_snapshot.swap(false, Ordering::AcqRel)
    }

    /// Begin a fault episode. Only a `Healthy` store transitions (a
    /// store already degraded stays in its episode); returns whether
    /// this call was the edge.
    fn degrade(&self, context: &str, e: &PersistError) -> bool {
        let edged = self
            .state
            .compare_exchange(
                HEALTH_HEALTHY,
                HEALTH_DEGRADED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if edged {
            self.counters.degraded_transitions.add(1);
            println!(
                "webcache-proxy: persist: health degraded ({context}: {e}); \
                 journaling suspended, snapshots continue, serving unaffected"
            );
        }
        edged
    }

    /// End a fault episode after a successful probe + snapshot.
    fn heal(&self) {
        let edged = self
            .state
            .compare_exchange(
                HEALTH_DEGRADED,
                HEALTH_HEALTHY,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if edged {
            self.counters.heals.add(1);
            println!(
                "webcache-proxy: persist: health healed \
                 (snapshot committed, journaling resumed)"
            );
        }
    }

    /// Give up on the disk after `probes` consecutive failed probes.
    fn disable(&self, probes: u32) {
        if self.state.swap(HEALTH_DISABLED, Ordering::AcqRel) != HEALTH_DISABLED {
            println!(
                "webcache-proxy: persist: health disabled after {probes} failed \
                 probe(s); serving continues without persistence"
            );
        }
    }
}

/// Per-shard buffer of journal records awaiting the persister's next
/// drain. Sequence numbers are assigned here, on the event loop, so
/// records for one shard are totally ordered. The buffer is bounded
/// (`PersistConfig::journal_buf_records`): a stalled persister costs
/// the oldest records (counted, snapshot forced), never unbounded
/// memory.
///
/// A document evicted while its `Insert` is still buffered never reaches
/// the disk: the `Insert` is rewritten in place as `Evict` of the same
/// document (DESIGN.md D24), keeping its sequence number and dropping its
/// body and URL. Under SIZE, which removes the largest document first,
/// that is most of the bytes inserted.
#[derive(Debug)]
pub(crate) struct JournalBuf {
    /// Records not yet handed to the persister thread, sequence numbers
    /// contiguous.
    pending: VecDeque<(u64, JournalOp)>,
    /// `old_id -> seq` of the newest `Insert` in `pending` per document.
    /// Every entry names a record still in `pending`.
    inserts: HashMap<u32, u64>,
    /// Next sequence number to assign (starts at 1; replay treats
    /// `seq <= snapshot.seq` as already covered).
    next_seq: u64,
    /// Maximum `pending` length before drop-oldest kicks in.
    cap: usize,
    /// Shared health: gates acceptance and takes the loss accounting.
    health: Arc<PersistHealthState>,
}

impl JournalBuf {
    /// An empty buffer whose first record will carry `next_seq`.
    pub(crate) fn new(next_seq: u64, cap: usize, health: Arc<PersistHealthState>) -> JournalBuf {
        JournalBuf {
            pending: VecDeque::new(),
            inserts: HashMap::new(),
            next_seq,
            cap,
            health,
        }
    }

    /// Buffer one cache mutation.
    pub(crate) fn log(&mut self, op: JournalOp) {
        if !self.health.is_accepting() {
            // Journaling suspended (degraded disk): the mutation is
            // durability loss until the next snapshot covers it.
            // `next_seq` does not advance, so post-heal records stay
            // contiguous with the healing snapshot's sequence.
            self.health.count_lost(1);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        match op {
            JournalOp::Insert { old_id, .. } => {
                self.inserts.insert(old_id, seq);
            }
            JournalOp::Evict { old_id } => {
                let front = self.pending.front().map_or(seq, |(front, _)| *front);
                let buffered = self
                    .inserts
                    .remove(&old_id)
                    .and_then(|at| self.pending.get_mut(at.checked_sub(front)? as usize));
                if let Some((_, insert)) = buffered {
                    // Replay removes the document here instead of
                    // storing it; whatever was logged about it between
                    // this record and the `Evict` pushed below then finds
                    // it absent, which replay treats as nothing to do.
                    *insert = JournalOp::Evict { old_id };
                    self.health.counters.journal_elided.add(1);
                }
            }
            JournalOp::Touch { .. } | JournalOp::Refresh { .. } => {}
        }
        self.pending.push_back((seq, op));
        let mut dropped = 0u64;
        while self.pending.len() > self.cap {
            if let Some((seq, JournalOp::Insert { old_id, .. })) = self.pending.pop_front() {
                if self.inserts.get(&old_id) == Some(&seq) {
                    self.inserts.remove(&old_id);
                }
            }
            dropped += 1;
        }
        if dropped > 0 {
            self.health.record_overflow(dropped);
        }
    }

    /// Empty the buffer: the records awaiting the persister.
    fn take(&mut self) -> VecDeque<(u64, JournalOp)> {
        self.inserts.clear();
        std::mem::take(&mut self.pending)
    }

    /// Sequence number of the newest record assigned so far.
    fn newest_seq(&self) -> u64 {
        self.next_seq - 1
    }
}

fn log_persist_error(context: &str, e: &PersistError) {
    eprintln!("webcache-proxy: persist: {context}: {e}");
}

/// What the event loop took from every shard, in shard order, in one
/// turn: the answer to an ask, or, `last`, the capture it makes before
/// it exits.
struct Answer {
    shards: Vec<Taken>,
    last: bool,
}

/// What the event loop took from one shard, in one visit.
struct Taken {
    /// The records buffered since the last visit.
    pending: VecDeque<(u64, JournalOp)>,
    /// Sequence number of the newest record assigned so far: a capture
    /// made in the same visit covers every record up to it.
    newest_seq: u64,
    /// The logical clock at the visit.
    now: u64,
    /// For a capture, the shard's state and each entry's URL, body and
    /// fetch time, in the order of the state's documents: refcount
    /// clones, no text copied.
    capture: Option<(CacheState, Vec<Resident>)>,
}

/// The event loop's end of the persister's line. An ask is for every
/// shard's buffered journal records and, `true`, for every shard itself,
/// for a snapshot.
pub(crate) struct LoopEnd {
    asks: Receiver<bool>,
    answers: Sender<Answer>,
    health: Arc<PersistHealthState>,
    /// The journal buffers are gone: persistence is disabled.
    freed: bool,
}

/// The persister's end of its line to the event loop.
pub(crate) struct PersisterEnd {
    asks: Sender<bool>,
    answers: Receiver<Answer>,
}

/// The line between the event loop and the persister: asks one way,
/// answers the other.
pub(crate) fn line(health: &Arc<PersistHealthState>) -> (LoopEnd, PersisterEnd) {
    let (ask, asks) = mpsc::channel();
    let (answer, answers) = mpsc::channel();
    let loop_end = LoopEnd {
        asks,
        answers: answer,
        health: Arc::clone(health),
        freed: false,
    };
    (loop_end, PersisterEnd { asks: ask, answers })
}

impl LoopEnd {
    /// On the event loop, rung by the persister: once persistence is
    /// disabled, free every shard's journal buffer (`ShardExt::log_op`
    /// becomes a no-op again and the memory is returned); then answer
    /// every queued ask.
    pub(crate) fn answer(&mut self, state: &mut ProxyState) {
        if !self.freed && self.health.health() == PersistHealth::Disabled {
            for (_, ext) in &mut state.shards {
                ext.journal = None;
            }
            self.freed = true;
        }
        while let Ok(capture) = self.asks.try_recv() {
            let shards = take_all(state, capture);
            let _ = self.answers.send(Answer {
                shards,
                last: false,
            });
        }
    }

    /// The event loop's last act, once it has closed every connection:
    /// every shard captured for the persister's final drain and snapshot.
    /// Nothing once persistence is disabled.
    pub(crate) fn finish(self, state: &mut ProxyState) {
        if self.health.health() != PersistHealth::Disabled {
            let shards = take_all(state, true);
            let _ = self.answers.send(Answer { shards, last: true });
        }
    }
}

/// Take every shard's records, and with `capture` the shard itself, one
/// visit each.
fn take_all(state: &mut ProxyState, capture: bool) -> Vec<Taken> {
    let now = state.now;
    let take = |(cache, ext): &mut (ShardCache, ShardExt)| Taken {
        pending: take_pending(ext),
        newest_seq: newest_seq(ext),
        now,
        capture: capture.then(|| cache.export_entries()),
    };
    state.shards.iter_mut().map(take).collect()
}

/// The background persister: drains the per-shard journal buffers every
/// tick, group-fsyncs on [`PersistConfig::journal_fsync`], snapshots on
/// [`PersistConfig::snapshot_interval`], and — with the event loop's last
/// capture — performs a final drain + fsync + snapshot before exiting. It
/// never touches a shard: it posts an ask, rings the loop, and the loop
/// answers in its next turn ([`LoopEnd::answer`]), so all file I/O
/// happens off the loop and the serving path never waits on the disk.
///
/// This loop also drives the [`PersistHealth`] state machine:
///
/// * **Healthy** — as above, except that a journal nothing was appended
///   to is not fsynced, and a snapshot due on cadence is skipped when no
///   shard had logged a record since the last committed one at this
///   tick's drain (what is on disk is what is in memory). Any persist
///   write error (append, sync, snapshot) transitions to Degraded; the
///   first re-arm probe is scheduled one `degraded_backoff` out. A
///   forced-snapshot demand (buffer overflow dropped records) snapshots
///   immediately.
/// * **Degraded** — journaling is suspended ([`JournalBuf::log`] counts
///   instead of buffering; anything still pending is discarded as
///   counted loss, since appending past a torn tail would be unreadable
///   anyway). Snapshots continue on cadence — degraded durability is
///   snapshot-grade rather than none, and with the journal path dead
///   snapshots may still succeed (different files, different fault
///   classes). When due, a disk probe runs through the same injection
///   hook; success is confirmed by a full snapshot, which covers every
///   suspended/dropped record and rotates the torn journals clean —
///   only then does journaling resume (heal). Probe failures back off
///   exponentially (capped at 32x) and after
///   [`PersistConfig::degraded_max_retries`] in a row persistence is
///   Disabled.
/// * **Disabled** — the loop, rung, frees the journal buffers itself; the
///   persister idles until the loop exits. The proxy serves
///   from memory; the exit status reports it.
///
/// With the loop's last capture the persister makes one final drain +
/// sync + snapshot in Healthy, or one final snapshot in Degraded (never
/// probing, so a dead disk cannot delay shutdown), and exits in whatever
/// state it reached.
pub(crate) fn persister_loop(
    cfg: &PersistConfig,
    writers: Vec<persist::JournalWriter>,
    gen: u64,
    line: PersisterEnd,
    bell: Arc<EventFd>,
    health: &PersistHealthState,
    hook: Option<&IoFaultInjector>,
) {
    let tick = cfg
        .journal_fsync
        .min(cfg.snapshot_interval)
        .clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut p = Persister {
        cfg,
        writers,
        gen,
        covered: None,
        line,
        bell,
        last: None,
        health,
        hook,
    };
    let mut last_sync = Instant::now();
    let mut last_snap = Instant::now();
    let mut probe_failures: u32 = 0;
    let mut next_probe = Instant::now();
    // A visit that comes back `None` means the loop has exited: its last
    // capture, if any, is in `p.last`.
    loop {
        match p.line.answers.recv_timeout(tick) {
            // No ask is outstanding between ticks: only the last capture
            // comes unasked.
            Ok(answer) => {
                p.last = Some(answer.shards);
                break;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        match health.health() {
            PersistHealth::Healthy => {
                let Some(newest) = p.drain() else { break };
                if health.health() == PersistHealth::Healthy
                    && last_sync.elapsed() >= cfg.journal_fsync
                {
                    p.sync();
                    last_sync = Instant::now();
                }
                let force = health.take_force_snapshot();
                if health.health() == PersistHealth::Healthy
                    && (force || last_snap.elapsed() >= cfg.snapshot_interval)
                {
                    // On cadence alone, a cache no record has touched
                    // since the last snapshot is already on disk.
                    if !force && p.covered.as_ref() == Some(&newest) {
                        health.counters.snapshots_skipped.add(1);
                    } else {
                        let Some(snapshot) = p.snapshot() else { break };
                        if let Err(e) = snapshot {
                            health.degrade("snapshot", &e);
                        }
                    }
                    last_snap = Instant::now();
                }
                if health.health() != PersistHealth::Healthy {
                    // A fresh fault episode: first probe one backoff out.
                    probe_failures = 0;
                    next_probe = Instant::now() + cfg.degraded_backoff;
                }
            }
            PersistHealth::Degraded => {
                let Some(()) = p.discard() else { break };
                if last_snap.elapsed() >= cfg.snapshot_interval {
                    let Some(snapshot) = p.snapshot() else { break };
                    if let Err(e) = snapshot {
                        log_persist_error("degraded snapshot", &e);
                    }
                    last_snap = Instant::now();
                }
                if Instant::now() >= next_probe {
                    let healed = match persist::probe_disk(&cfg.dir, hook) {
                        Ok(()) => {
                            let Some(snapshot) = p.snapshot() else { break };
                            last_snap = Instant::now();
                            snapshot
                                .map_err(|e| log_persist_error("re-arm snapshot", &e))
                                .is_ok()
                        }
                        Err(e) => {
                            log_persist_error("disk probe", &e);
                            false
                        }
                    };
                    if healed {
                        health.heal();
                        probe_failures = 0;
                        // What changed between that snapshot's capture
                        // and this moment was counted, not numbered: the
                        // next cadence snapshot is not one to skip.
                        p.covered = None;
                    } else {
                        probe_failures += 1;
                        if probe_failures >= cfg.degraded_max_retries {
                            health.disable(probe_failures);
                            // The loop frees the journal buffers.
                            p.bell.notify();
                        } else {
                            let shift = probe_failures.min(5); // cap at 32x
                            next_probe = Instant::now() + cfg.degraded_backoff * (1 << shift);
                        }
                    }
                }
            }
            PersistHealth::Disabled => {}
        }
    }
    if let Some(last) = p.last.take() {
        p.finish(last);
    }
}

/// The persister's working state: its journal files, the next snapshot
/// generation, what the last committed snapshot covers, and its line to
/// the event loop.
struct Persister<'a> {
    cfg: &'a PersistConfig,
    writers: Vec<persist::JournalWriter>,
    /// Every snapshot attempt consumes a generation, success or not: a
    /// retry must never reuse a generation some file may already carry.
    gen: u64,
    /// Per shard, the sequence number the last committed snapshot covers.
    covered: Option<Vec<u64>>,
    line: PersisterEnd,
    bell: Arc<EventFd>,
    /// The loop's last capture, once it has exited.
    last: Option<Vec<Taken>>,
    health: &'a PersistHealthState,
    hook: Option<&'a IoFaultInjector>,
}

impl Persister<'_> {
    /// Every shard's records, and with `capture` every shard, taken in one
    /// turn of the event loop. `None` once the loop has exited.
    fn visit(&mut self, capture: bool) -> Option<Vec<Taken>> {
        let _ = self.line.asks.send(capture);
        self.bell.notify();
        let answer = self.line.answers.recv().ok()?;
        if answer.last {
            self.last = Some(answer.shards);
            return None;
        }
        Some(answer.shards)
    }

    /// Move `taken`'s records to the journal files (append only —
    /// durability comes from the group fsync). An append failure is
    /// explicit durability loss: the batch is counted (the next
    /// successful snapshot covers the state it described) and the store
    /// degrades; remaining shards still get theirs, since their journal
    /// files may be on healthier ground.
    fn append(&mut self, taken: &mut [Taken]) {
        for (w, t) in self.writers.iter_mut().zip(taken) {
            if let Err(e) = append_counted(w, &mut t.pending, self.health) {
                self.health.degrade("journal append", &e);
            }
        }
    }

    /// Drain every shard into the journal files; each shard's newest
    /// sequence number at the drain.
    fn drain(&mut self) -> Option<Vec<u64>> {
        let mut taken = self.visit(false)?;
        self.append(&mut taken);
        Some(taken.iter().map(|t| t.newest_seq).collect())
    }

    /// Throw away buffered records while degraded, counting them as loss.
    /// Appending them would be futile: an errored journal file may end in
    /// a torn frame, making everything after it unreadable on replay. The
    /// healing snapshot covers the live state they described.
    fn discard(&mut self) -> Option<()> {
        let mut taken = self.visit(false)?;
        self.lose(&mut taken);
        Some(())
    }

    /// Count `taken`'s records as lost, and drop them.
    fn lose(&self, taken: &mut [Taken]) {
        let lost = taken
            .iter_mut()
            .map(|t| std::mem::take(&mut t.pending).len());
        let lost = lost.sum::<usize>() as u64;
        if lost > 0 {
            self.health.count_lost(lost);
        }
    }

    /// Group-fsync every journal; the first failure degrades the store.
    fn sync(&mut self) {
        for w in &mut self.writers {
            if let Err(e) = w.sync() {
                self.health.degrade("journal sync", &e);
                break;
            }
        }
    }

    /// Capture every shard and write it as the next snapshot generation.
    fn snapshot(&mut self) -> Option<Result<(), PersistError>> {
        let captured = self.visit(true)?;
        Some(self.commit(captured))
    }

    /// Write `captured` as the next snapshot generation: per-shard
    /// snapshots, then rotate the journals. Every attempt consumes a
    /// generation, success or not. Crash-ordering argument:
    ///
    /// 1. Records taken in the capture (all `seq <= snap_seq`) are appended
    ///    *before* the snapshot that supersedes them — a crash before the
    ///    snapshot commits still replays them from the journal.
    /// 2. A shard's snapshot is one file, written atomically (tmp + fsync +
    ///    rename: the rename is its commit), so recovery sees either the old
    ///    or the new generation of the shard, never a torn one.
    /// 3. Journals rotate only after every snapshot of this generation is
    ///    durable; every record dropped has `seq <= snap_seq`, which replay
    ///    skips anyway — a crash between commit and rotation is harmless.
    ///
    /// Committed, each shard's `snap_seq` is what the snapshots cover.
    fn commit(&mut self, mut captured: Vec<Taken>) -> Result<(), PersistError> {
        let (gen, health) = (self.gen, self.health);
        self.gen += 1;
        let nshards = self.writers.len();
        for (w, t) in self.writers.iter_mut().zip(&mut captured) {
            // A failed append here is tolerable: every taken record has
            // `seq <= snap_seq`, so the snapshot about to be written
            // covers the same state. Count the loss (a crash before
            // the snapshot commits would lose them) and carry on.
            if let Err(e) = append_counted(w, &mut t.pending, health) {
                log_persist_error("snapshot pre-append", &e);
            }
        }
        let covered = captured.iter().map(|t| t.newest_seq).collect();
        for (s, t) in captured.into_iter().enumerate() {
            // Every snapshot is written from a visit that captured.
            let Some((cs, residents)) = t.capture else {
                continue;
            };
            let docs = std::iter::zip(cs.docs, residents)
                .map(|(meta, resident)| persist::SnapshotDoc {
                    meta,
                    url: resident.url.to_string(),
                    fetched_at: resident.fetched_at,
                    body: resident.body,
                })
                .collect();
            let written = persist::write_shard_snapshot_hooked(
                &self.cfg.dir,
                &persist::ShardSnapshot {
                    shard: s as u32,
                    nshards: nshards as u32,
                    gen,
                    seq: t.newest_seq,
                    now: t.now,
                    capacity: cs.capacity,
                    current_day: cs.current_day,
                    stats: cs.stats,
                    policy_state: cs.policy_state,
                    docs,
                },
                self.hook,
            )?;
            health.counters.snapshot_bytes.add(written);
        }
        for w in self.writers.iter_mut() {
            w.sync()?;
            w.rotate()?;
        }
        persist::gc_old_generations(&self.cfg.dir, nshards as u32, gen);
        health.counters.snapshots.add(1);
        self.covered = Some(covered);
        Ok(())
    }

    /// The loop's last capture: a final drain + sync + snapshot in
    /// Healthy, a final snapshot in Degraded.
    fn finish(mut self, mut last: Vec<Taken>) {
        match self.health.health() {
            PersistHealth::Healthy => {
                self.append(&mut last);
                if self.health.health() == PersistHealth::Healthy {
                    self.sync();
                }
                if self.health.health() == PersistHealth::Healthy {
                    if let Err(e) = self.commit(last) {
                        self.health.degrade("snapshot", &e);
                    }
                }
            }
            PersistHealth::Degraded => {
                self.lose(&mut last);
                if let Err(e) = self.commit(last) {
                    log_persist_error("degraded snapshot", &e);
                }
            }
            PersistHealth::Disabled => {}
        }
    }
}

/// Append `pending` to `w`, counting the bytes that reached the file and,
/// when the append fails, its records as lost.
fn append_counted(
    w: &mut persist::JournalWriter,
    pending: &mut VecDeque<(u64, JournalOp)>,
    health: &PersistHealthState,
) -> Result<(), PersistError> {
    let before = w.bytes_appended();
    let appended = w.append(pending.make_contiguous());
    health
        .counters
        .journal_bytes
        .add(w.bytes_appended() - before);
    if appended.is_err() {
        health.count_lost(pending.len() as u64);
    }
    appended
}

/// Empty a shard's journal buffer: the records awaiting the persister.
/// Nothing without a buffer.
pub(crate) fn take_pending(ext: &mut ShardExt) -> VecDeque<(u64, JournalOp)> {
    let pending = ext.journal.as_deref_mut().map(JournalBuf::take);
    pending.unwrap_or_default()
}

/// Give every shard a journal buffer of `cap` records whose sequence
/// numbers continue above everything `rec` found on its disk.
pub(crate) fn install_journals(
    state: &mut ProxyState,
    rec: &persist::RecoveredData,
    cap: usize,
    health: &Arc<PersistHealthState>,
) {
    for (s, (_, ext)) in state.shards.iter_mut().enumerate() {
        let snap_seq = rec.shards.get(s).and_then(|r| Some(r.as_ref()?.snap.seq));
        let last_seq = rec.journals.get(s).and_then(|jr| Some(jr.ops.last()?.0));
        let next_seq = snap_seq.max(last_seq).unwrap_or(0) + 1;
        ext.journal = Some(Box::new(JournalBuf::new(next_seq, cap, Arc::clone(health))));
    }
}

/// Sequence number of the newest record a shard's journal buffer has
/// assigned so far; zero without a buffer.
fn newest_seq(ext: &ShardExt) -> u64 {
    ext.journal.as_deref().map_or(0, JournalBuf::newest_seq)
}

/// Reinstate recovered snapshots + journals into a freshly built (empty)
/// [`ProxyState`]. Never fails: anything that cannot be applied is
/// skipped, leaving those documents as cache misses.
pub(crate) fn apply_recovery(
    state: &mut ProxyState,
    rec: &persist::RecoveredData,
) -> RecoveryReport {
    let nshards = state.shards.len();
    let mut report = RecoveryReport {
        quarantined: rec.shards.iter().flatten().map(|r| r.quarantined).sum(),
        truncated_journals: rec.journals.iter().filter(|j| j.note.is_some()).count() as u64,
        ..RecoveryReport::default()
    };

    // Route every verified document to the shard its URL hashes to,
    // newest generation first: a crash between two shards' snapshots of
    // a generation that moved documents (another shard count, the
    // placement before D26) leaves a URL in two of them.
    let mut snaps: Vec<(usize, &persist::ShardSnapshot)> = rec
        .shards
        .iter()
        .enumerate()
        .filter_map(|(from, rs)| Some((from, &rs.as_ref()?.snap)))
        .collect();
    snaps.sort_by_key(|(_, snap)| std::cmp::Reverse(snap.gen));
    let mut routed = HashSet::new();
    let mut per_shard: Vec<Vec<(usize, DocMeta, Resident)>> =
        (0..nshards).map(|_| Vec::new()).collect();
    for (from, snap) in &snaps {
        for d in snap.docs.iter().filter(|d| routed.insert(d.url.as_str())) {
            let copy = Resident {
                url: Arc::from(d.url.as_str()),
                body: d.body.clone(),
                fetched_at: d.fetched_at,
            };
            per_shard[state.shard_of(&d.url)].push((*from, d.meta, copy));
        }
    }

    let mut max_now = snaps.iter().map(|(_, snap)| snap.now).max().unwrap_or(0);

    for (s, mut docs) in per_shard.into_iter().enumerate() {
        if docs.is_empty() {
            continue;
        }
        let capacity = state.shards[s].0.capacity();
        // A changed shard layout can overfill a shard: shed the least
        // recently used documents until the snapshot fits.
        let mut total: u64 = docs.iter().map(|(_, m, _)| m.size).sum();
        if total > capacity {
            docs.sort_by_key(|(_, m, _)| std::cmp::Reverse(m.last_access));
            while total > capacity {
                let Some((_, m, _)) = docs.pop() else { break };
                total -= m.size;
            }
        }
        // Policy rank state and stats are in the writing shard's slot
        // ids. They transfer when the shard comes back whole: written for
        // this shard count, nothing routed in from another snapshot, ids
        // distinct and no sparser than a slab should grow for (a file
        // need not be one a table wrote). Otherwise ids are dealt afresh
        // and the policy order is rebuilt by replaying inserts
        // ([`Cache::restore_entries`]).
        docs.sort_by_key(|(_, m, _)| m.url.0);
        let whole = rec.shards[s].as_ref().map(|rs| &rs.snap).filter(|snap| {
            snap.nshards as usize == nshards
                && docs.iter().all(|(from, ..)| *from == s)
                && docs.windows(2).all(|w| w[0].1.url != w[1].1.url)
                && docs
                    .last()
                    .is_some_and(|(_, m, _)| (m.url.0 as usize) < 4 * docs.len() + 1024)
        });
        if whole.is_none() {
            for (id, (_, meta, _)) in docs.iter_mut().enumerate() {
                meta.url = UrlId(id as u32);
            }
        }
        let cache_state = CacheState {
            capacity,
            current_day: whole.map_or(0, |snap| snap.current_day),
            stats: whole.map(|snap| snap.stats).unwrap_or_default(),
            docs: docs.iter().map(|(_, m, _)| *m).collect(),
            policy_state: whole
                .map(|snap| snap.policy_state.clone())
                .unwrap_or_default(),
        };
        let (cache, ext) = &mut state.shards[s];
        ext.urls = UrlTable::restore(docs.iter().map(|(_, m, c)| (Arc::clone(&c.url), m.url)));
        let outcome =
            cache.restore_entries(&cache_state, docs.into_iter().map(|(_, _, copy)| copy));
        debug_assert_ne!(outcome, RestoreOutcome::Failed, "shard {s} was shed to fit");
    }

    // Replay journal records newer than each shard's snapshot, in append
    // order, under the bindings the snapshot was taken with.
    for (old_shard, jr) in rec.journals.iter().enumerate() {
        let snap = rec
            .shards
            .get(old_shard)
            .and_then(|o| o.as_ref())
            .map(|r| &r.snap);
        let snap_seq = snap.map_or(0, |snap| snap.seq);
        let mut names = Names::default();
        for d in snap.into_iter().flat_map(|snap| &snap.docs) {
            names.bind(d.meta.url.0, &d.url);
        }
        for (seq, op) in &jr.ops {
            if *seq <= snap_seq {
                continue;
            }
            max_now = max_now.max(apply_journal_op(state, op, &mut names));
            report.replayed += 1;
        }
    }

    report.bytes = state.cached_bytes();
    report.docs = state
        .shards
        .iter()
        .map(|(cache, _)| cache.len() as u64)
        .sum();
    if max_now > 0 {
        state.now = max_now;
    }
    report
}

/// What the writing shard's slot ids mean at one point of its journal.
/// Ids are reused, so an id means what the last `Insert` under it said;
/// and a URL has one id at a time, so an `Insert` under a new id ends what
/// the old one meant — the `Insert` that re-bound the old id may have been
/// elided to an `Evict`, or never logged (a document too big to store),
/// and a record under it must find nothing rather than this document.
#[derive(Default)]
struct Names<'a> {
    url_of: HashMap<u32, &'a str>,
    id_of: HashMap<&'a str, u32>,
}

impl<'a> Names<'a> {
    fn bind(&mut self, id: u32, url: &'a str) {
        if let Some(unbound) = self.url_of.insert(id, url).filter(|old| *old != url) {
            self.id_of.remove(unbound);
        }
        if let Some(freed) = self.id_of.insert(url, id).filter(|old| *old != id) {
            self.url_of.remove(&freed);
        }
    }
}

/// Apply one replayed journal record; returns the record's clock stamp
/// (0 when it carries none) so recovery can restore the logical clock.
fn apply_journal_op<'a>(state: &mut ProxyState, op: &'a JournalOp, names: &mut Names<'a>) -> u64 {
    // Run `f` on the document `old_id` names, if this cache holds it.
    let mut resident = |old_id: &u32, f: &mut dyn FnMut(&mut ShardCache, &mut ShardExt, UrlId)| {
        if let Some(url) = names.url_of.get(old_id) {
            let (cache, ext) = state.shard_for(url);
            if let Some(id) = ext.urls.get(url) {
                f(cache, ext, id);
            }
        }
    };
    match op {
        JournalOp::Insert {
            old_id,
            url,
            now,
            size,
            doc_type,
            last_modified,
            fetched_at,
            body,
        } => {
            names.bind(*old_id, url);
            // The frame checksum already covered the body; the length
            // check is belt-and-braces against a logic bug upstream.
            if body.len() as u64 != *size {
                return *now;
            }
            let copy = Resident {
                url: Arc::from(url.as_str()),
                body: body.clone(),
                fetched_at: *fetched_at,
            };
            let (cache, ext) = state.shard_for(url);
            install(cache, ext, *now, *doc_type, *last_modified, &copy);
            *now
        }
        JournalOp::Touch { old_id, now, size } => {
            resident(old_id, &mut |cache, ext, id| {
                let Some((meta, copy)) = cache.entry(id).map(|(m, c)| (*m, c.clone())) else {
                    return;
                };
                if meta.size == *size {
                    touch_resident(cache, ext, id, &meta, &copy, *now);
                }
            });
            *now
        }
        JournalOp::Evict { old_id } => {
            resident(old_id, &mut |cache, _, id| {
                cache.remove(id);
            });
            0
        }
        JournalOp::Refresh { old_id, fetched_at } => {
            resident(old_id, &mut |cache, ext, id| {
                if let Some((meta, copy)) = cache.entry(id).map(|(m, c)| (*m, c.clone())) {
                    refresh_resident(cache, ext, id, &meta, &copy, *fetched_at);
                }
            });
            *fetched_at
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, Fetched};
    use bytes::Bytes;
    use webcache_core::policy::named;
    use webcache_trace::DocType;

    fn insert(id: u32, body: &'static [u8]) -> JournalOp {
        JournalOp::Insert {
            old_id: id,
            url: format!("http://j.test/{id}"),
            now: 1,
            size: body.len() as u64,
            doc_type: DocType::Text,
            last_modified: None,
            fetched_at: 1,
            body: Bytes::copy_from_slice(body),
        }
    }

    fn evict(id: u32) -> JournalOp {
        JournalOp::Evict { old_id: id }
    }

    fn buf(cap: usize) -> JournalBuf {
        JournalBuf::new(1, cap, Arc::new(PersistHealthState::new(Arc::default())))
    }

    fn seqs(j: &JournalBuf) -> Vec<u64> {
        j.pending.iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn evict_in_the_window_of_its_insert_takes_the_body_out() {
        let mut j = buf(16);
        j.log(insert(7, b"seven"));
        j.log(JournalOp::Touch {
            old_id: 7,
            now: 2,
            size: 5,
        });
        j.log(insert(8, b"eight"));
        j.log(evict(7));
        // Same records, same sequence numbers; only the first lost its
        // body, and the index forgot it.
        assert_eq!(seqs(&j), vec![1, 2, 3, 4]);
        assert_eq!(j.pending[0].1, evict(7));
        assert_eq!(j.pending[2].1, insert(8, b"eight"));
        assert_eq!(j.pending[3].1, evict(7));
        assert_eq!(j.inserts, HashMap::from([(8, 3)]));
        assert_eq!(j.health.stats().journal_elided, 1);
    }

    #[test]
    fn evict_after_the_drain_is_a_plain_evict() {
        let mut j = buf(16);
        j.log(insert(7, b"seven"));
        let drained = j.take();
        assert_eq!(drained, VecDeque::from([(1, insert(7, b"seven"))]));
        assert!(j.inserts.is_empty(), "the drain clears the index");
        j.log(evict(7));
        assert_eq!(j.pending, VecDeque::from([(2, evict(7))]));
        assert_eq!(j.health.stats().journal_elided, 0);
    }

    #[test]
    fn reinsert_after_an_elided_insert_keeps_its_body() {
        let mut j = buf(16);
        j.log(insert(7, b"first"));
        j.log(evict(7));
        j.log(insert(7, b"second"));
        assert_eq!(
            j.pending,
            VecDeque::from([(1, evict(7)), (2, evict(7)), (3, insert(7, b"second"))])
        );
        assert_eq!(j.inserts, HashMap::from([(7, 3)]));
        // A replacement leaves the older copy alone: only the newest
        // insert of a document is indexed.
        j.log(insert(7, b"third"));
        j.log(evict(7));
        assert_eq!(j.pending[2].1, insert(7, b"second"));
        assert_eq!(j.pending[3].1, evict(7));
        assert_eq!(j.health.stats().journal_elided, 2);
    }

    #[test]
    fn insert_dropped_oldest_first_leaves_the_index_with_it() {
        let mut j = buf(2);
        j.log(insert(7, b"seven"));
        j.log(insert(8, b"eight"));
        j.log(insert(9, b"nine")); // drops seq 1
        assert_eq!(seqs(&j), vec![2, 3]);
        assert_eq!(j.inserts, HashMap::from([(8, 2), (9, 3)]));
        assert_eq!(j.health.stats().journal_dropped, 1);
        // The evict finds nothing to rewrite and must not touch the
        // record now at the front.
        j.log(evict(7)); // drops seq 2
        assert_eq!(
            j.pending,
            VecDeque::from([(3, insert(9, b"nine")), (4, evict(7))])
        );
        assert_eq!(j.inserts, HashMap::from([(9, 3)]));
        assert_eq!(j.health.stats().journal_elided, 0);
        // An index entry that outlived its record would point before the
        // front: that reads as gone, not as a position.
        j.inserts.insert(5, 1);
        j.log(evict(5));
        assert_eq!(seqs(&j), vec![4, 5]);
        assert_eq!(j.health.stats().journal_elided, 0);
    }

    #[test]
    fn degraded_logging_neither_indexes_nor_numbers() {
        let mut j = buf(16);
        let e = PersistError::Io(std::io::ErrorKind::Other.into());
        assert!(j.health.degrade("test", &e));
        j.log(insert(7, b"seven"));
        j.log(evict(7));
        assert!(j.pending.is_empty() && j.inserts.is_empty());
        assert_eq!(j.next_seq, 1);
        assert_eq!(j.health.stats().journal_lost_records, 2);
        j.health.heal();
        j.log(evict(7));
        assert_eq!(j.pending, VecDeque::from([(1, evict(7))]));
    }

    #[test]
    fn freeing_the_buffers_frees_the_index() {
        let config = crate::ProxyConfig::new(1 << 20);
        let mut shard = Driver::new(config, || Box::new(named::size()), Some(16), None);
        let served = |body: &'static str| {
            let body = body.into();
            move |_| {
                Ok(Fetched {
                    status: 200,
                    last_modified: None,
                    body,
                })
            }
        };
        shard.request("http://j.test/a.html", served("hello"));
        let indexed = |ext: &ShardExt| ext.journal.as_deref().map(|j| j.inserts.len());
        assert_eq!(indexed(&shard.state.shards[0].1), Some(1));
        shard.state.shards[0].1.journal = None;
        assert_eq!(indexed(&shard.state.shards[0].1), None);
        // Logging is a no-op again.
        shard.request("http://j.test/b.html", served("world"));
        assert!(shard.drain(0).is_empty());
    }
}
