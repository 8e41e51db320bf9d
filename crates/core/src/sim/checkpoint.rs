//! Crash-safe resumable sweeps: checkpointed simulation state.
//!
//! A full-scale experiment sweep is the longest-lived process in this
//! repository, and before this module it was all-or-nothing: a crash or
//! SIGKILL at hour N lost every lane. [`run_resumable`] drives the same
//! lane model as [`MultiSim`](crate::sim::MultiSim) but snapshots the
//! complete per-lane simulator state — cache contents, policy rank state,
//! accumulated per-day counters, and the trace cursor — into a
//! [`SweepCheckpoint`] at a configurable record interval. The checkpoint
//! serialises into the FNV-checksummed `.wcp` section container
//! (`webcache_trace::binfmt`), and a later process can decode it, validate
//! it against the trace's content hash / seed / scale, and continue the
//! sweep **bit-identically** to an uninterrupted run (asserted by proptest
//! over kill points in `webcache-experiments` and a CI kill-and-resume
//! smoke job).
//!
//! ## Cursor invariant
//!
//! A checkpoint carries a cursor `(day, pos)` meaning: `pos` requests of
//! day `day` have been fully applied to every lane, and exactly `day`
//! per-day counter deltas have been pushed (`daily.len() == day`). The
//! day-end snapshot for day `day` is *not* part of the checkpoint — resume
//! replays the remainder of the day (possibly zero requests) and then
//! takes the day-end snapshot itself, so a checkpoint written at the last
//! record of a day and one written at the first record of the next day
//! resume identically.
//!
//! ## What is replayed vs. stored
//!
//! Cache contents are stored as plain [`DocMeta`](crate::cache::DocMeta);
//! policy order is reconstructed by replaying `on_insert` (every taxonomy
//! policy's order is a pure function of resident metadata), and only
//! history-dependent state (GreedyDual-Size's inflation and frozen H
//! values) travels as opaque [`RemovalPolicy::export_state`] bytes. See
//! DESIGN.md D11 for the proof obligations.

use crate::cache::{Cache, CacheState, CacheStats, Counts, DocMeta};
use crate::policy::RemovalPolicy;
use crate::sim::{CacheSystem, SimResult, StreamResult};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use webcache_trace::binfmt::{
    doc_type_from_tag, doc_type_tag, read_sections, sections_to_bytes, BinError, Cursor,
};
use webcache_trace::{Trace, UrlId};

/// Identity of a sweep cell: everything a checkpoint must match before it
/// may be resumed. A mismatch in any field means the checkpoint describes
/// a different computation and resuming it would silently poison results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMeta {
    /// Experiment name (e.g. `"exp2"`).
    pub experiment: String,
    /// Workload / trace name.
    pub workload: String,
    /// Per-lane cache capacity in bytes.
    pub capacity: u64,
    /// [`trace_content_hash`](webcache_trace::binfmt::trace_content_hash)
    /// of the driving trace.
    pub trace_hash: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Workload scale in parts-per-million (`scale * 1e6`), kept integral
    /// so equality is exact.
    pub scale_ppm: u64,
}

/// One lane's complete mid-sweep state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneState {
    /// The lane's caller-assigned label.
    pub label: String,
    /// Cumulative counters at the last day-end snapshot.
    pub prev: Counts,
    /// Per-day counter deltas pushed so far (`daily.len() == day`).
    pub daily: Vec<Counts>,
    /// The cache snapshot (resident set, stats, policy state).
    pub cache: CacheState,
}

/// A complete, resumable snapshot of a sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCheckpoint {
    /// The cell identity this checkpoint belongs to.
    pub meta: SweepMeta,
    /// Trace day of the cursor.
    pub day: u64,
    /// Requests of day [`day`](SweepCheckpoint::day) already applied.
    pub pos: u64,
    /// Total records applied across the whole trace.
    pub records_done: u64,
    /// Every lane's state, in spec order.
    pub lanes: Vec<LaneState>,
}

/// Why a checkpoint could not be resumed. All variants are recoverable by
/// discarding the checkpoint and restarting the cell from scratch.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint's [`SweepMeta`] differs from the requested sweep
    /// (wrong trace hash, seed, scale, capacity, experiment or workload).
    MetaMismatch(String),
    /// Lane labels or count differ from the freshly constructed specs.
    LaneMismatch(String),
    /// A lane's cache state failed to restore (inconsistent snapshot).
    RestoreFailed(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::MetaMismatch(m) => write!(f, "checkpoint metadata mismatch: {m}"),
            ResumeError::LaneMismatch(m) => write!(f, "checkpoint lane mismatch: {m}"),
            ResumeError::RestoreFailed(m) => write!(f, "checkpoint restore failed: {m}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// How a resumable sweep ended.
pub enum SweepOutcome {
    /// The trace was fully consumed; per-lane results in spec order, each
    /// bit-identical to an uninterrupted
    /// [`simulate_policy`](crate::sim::simulate_policy) run.
    Complete(Vec<(String, SimResult)>),
    /// A stop was requested; the final flushed checkpoint is returned (it
    /// was also passed to the `on_checkpoint` sink).
    Interrupted(Box<SweepCheckpoint>),
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_counts(out: &mut Vec<u8>, c: &Counts) {
    push_u64(out, c.requests);
    push_u64(out, c.hits);
    push_u64(out, c.bytes_requested);
    push_u64(out, c.bytes_hit);
}

fn read_counts(cur: &mut Cursor) -> Result<Counts, BinError> {
    Ok(Counts {
        requests: cur.u64()?,
        hits: cur.u64()?,
        bytes_requested: cur.u64()?,
        bytes_hit: cur.u64()?,
    })
}

/// Fixed 64-byte document-metadata record.
fn push_doc_meta(out: &mut Vec<u8>, m: &DocMeta) {
    out.extend_from_slice(&m.url.0.to_le_bytes());
    out.push(doc_type_tag(m.doc_type));
    out.push(m.type_priority);
    out.push(m.expires.is_some() as u8);
    out.push(m.last_modified.is_some() as u8);
    push_u64(out, m.size);
    push_u64(out, m.entry_time);
    push_u64(out, m.last_access);
    push_u64(out, m.nrefs);
    push_u64(out, m.expires.unwrap_or(0));
    push_u64(out, m.refetch_latency_ms);
    push_u64(out, m.last_modified.unwrap_or(0));
}

fn read_doc_meta(cur: &mut Cursor) -> Result<DocMeta, BinError> {
    let url = UrlId(cur.u32()?);
    let tag = cur.take(1)?[0];
    let type_priority = cur.take(1)?[0];
    let has_expires = cur.take(1)?[0] != 0;
    let has_lm = cur.take(1)?[0] != 0;
    let size = cur.u64()?;
    let entry_time = cur.u64()?;
    let last_access = cur.u64()?;
    let nrefs = cur.u64()?;
    let expires = cur.u64()?;
    let refetch_latency_ms = cur.u64()?;
    let last_modified = cur.u64()?;
    Ok(DocMeta {
        url,
        size,
        doc_type: doc_type_from_tag(tag)?,
        entry_time,
        last_access,
        nrefs,
        expires: has_expires.then_some(expires),
        refetch_latency_ms,
        type_priority,
        last_modified: has_lm.then_some(last_modified),
    })
}

fn push_stats(out: &mut Vec<u8>, s: &CacheStats) {
    push_counts(out, &s.counts);
    push_u64(out, s.evictions);
    push_u64(out, s.evicted_bytes);
    push_u64(out, s.periodic_evictions);
    push_u64(out, s.modified_invalidations);
    push_u64(out, s.too_big);
    push_u64(out, s.max_used);
}

fn read_stats(cur: &mut Cursor) -> Result<CacheStats, BinError> {
    Ok(CacheStats {
        counts: read_counts(cur)?,
        evictions: cur.u64()?,
        evicted_bytes: cur.u64()?,
        periodic_evictions: cur.u64()?,
        modified_invalidations: cur.u64()?,
        too_big: cur.u64()?,
        max_used: cur.u64()?,
    })
}

impl SweepCheckpoint {
    /// Serialise into a `.wcp` section container: section 0 holds the
    /// sweep metadata and cursor, sections `1..=n` hold one lane each.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = Vec::new();
        push_string(&mut head, &self.meta.experiment);
        push_string(&mut head, &self.meta.workload);
        push_u64(&mut head, self.meta.capacity);
        push_u64(&mut head, self.meta.trace_hash);
        push_u64(&mut head, self.meta.seed);
        push_u64(&mut head, self.meta.scale_ppm);
        push_u64(&mut head, self.day);
        push_u64(&mut head, self.pos);
        push_u64(&mut head, self.records_done);

        let mut sections = Vec::with_capacity(1 + self.lanes.len());
        sections.push(head);
        for lane in &self.lanes {
            let mut s = Vec::new();
            push_string(&mut s, &lane.label);
            push_counts(&mut s, &lane.prev);
            push_u64(&mut s, lane.daily.len() as u64);
            for d in &lane.daily {
                push_counts(&mut s, d);
            }
            push_u64(&mut s, lane.cache.capacity);
            push_u64(&mut s, lane.cache.current_day);
            push_stats(&mut s, &lane.cache.stats);
            push_u64(&mut s, lane.cache.docs.len() as u64);
            for m in &lane.cache.docs {
                push_doc_meta(&mut s, m);
            }
            push_u64(&mut s, lane.cache.policy_state.len() as u64);
            s.extend_from_slice(&lane.cache.policy_state);
            sections.push(s);
        }
        sections_to_bytes(&sections)
    }

    /// Decode a `.wcp` container produced by
    /// [`to_bytes`](SweepCheckpoint::to_bytes). Every checksum is verified
    /// before any field is interpreted; malformed content yields a typed
    /// [`BinError`], never a partially decoded checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<SweepCheckpoint, BinError> {
        let sections = read_sections(bytes)?;
        let (head, lane_sections) = sections.split_first().ok_or(BinError::Truncated)?;
        let mut cur = Cursor::new(head);
        let meta = SweepMeta {
            experiment: cur.string()?,
            workload: cur.string()?,
            capacity: cur.u64()?,
            trace_hash: cur.u64()?,
            seed: cur.u64()?,
            scale_ppm: cur.u64()?,
        };
        let day = cur.u64()?;
        let pos = cur.u64()?;
        let records_done = cur.u64()?;
        if !cur.is_at_end() {
            return Err(BinError::TrailingBytes);
        }

        let mut lanes = Vec::with_capacity(lane_sections.len());
        for s in lane_sections {
            let mut cur = Cursor::new(s);
            let label = cur.string()?;
            let prev = read_counts(&mut cur)?;
            let days = cur.u64()? as usize;
            let mut daily = Vec::with_capacity(days.min(s.len() / 32 + 1));
            for _ in 0..days {
                daily.push(read_counts(&mut cur)?);
            }
            let capacity = cur.u64()?;
            let current_day = cur.u64()?;
            let stats = read_stats(&mut cur)?;
            let ndocs = cur.u64()? as usize;
            let mut docs = Vec::with_capacity(ndocs.min(s.len() / 64 + 1));
            for _ in 0..ndocs {
                docs.push(read_doc_meta(&mut cur)?);
            }
            let plen = cur.u64()? as usize;
            let policy_state = cur.take(plen)?.to_vec();
            if !cur.is_at_end() {
                return Err(BinError::TrailingBytes);
            }
            lanes.push(LaneState {
                label,
                prev,
                daily,
                cache: CacheState {
                    capacity,
                    current_day,
                    stats,
                    docs,
                    policy_state,
                },
            });
        }
        Ok(SweepCheckpoint {
            meta,
            day,
            pos,
            records_done,
            lanes,
        })
    }
}

// ---------------------------------------------------------------------------
// Completed-cell result codec
// ---------------------------------------------------------------------------
//
// The workspace's (vendored) serde substitute serialises but never parses
// JSON, so salvaged cell results persist in the same checksummed `.wcp`
// section container as checkpoints: one section per `(label, SimResult)`.
// Experiment modules rebuild their derived JSON rows from the decoded
// `SimResult`s — a pure function, so salvage preserves bit-identity of the
// final output.

/// Serialise a completed cell's per-lane results for crash-safe salvage.
pub fn encode_results(results: &[(String, SimResult)]) -> Vec<u8> {
    let sections: Vec<Vec<u8>> = results
        .iter()
        .map(|(label, r)| {
            let mut s = Vec::new();
            push_string(&mut s, label);
            push_string(&mut s, &r.workload);
            push_string(&mut s, &r.system);
            push_u64(&mut s, r.streams.len() as u64);
            for stream in &r.streams {
                push_string(&mut s, &stream.name);
                push_u64(&mut s, stream.daily.len() as u64);
                for d in &stream.daily {
                    push_counts(&mut s, d);
                }
                push_counts(&mut s, &stream.total);
            }
            push_u64(&mut s, r.gauges.len() as u64);
            for (name, v) in &r.gauges {
                push_string(&mut s, name);
                push_u64(&mut s, *v);
            }
            s
        })
        .collect();
    sections_to_bytes(&sections)
}

/// Decode results written by [`encode_results`], verifying every checksum.
pub fn decode_results(bytes: &[u8]) -> Result<Vec<(String, SimResult)>, BinError> {
    let sections = read_sections(bytes)?;
    let mut results = Vec::with_capacity(sections.len());
    for s in &sections {
        let mut cur = Cursor::new(s);
        let label = cur.string()?;
        let workload = cur.string()?;
        let system = cur.string()?;
        let nstreams = cur.u64()? as usize;
        let mut streams = Vec::with_capacity(nstreams.min(s.len() / 40 + 1));
        for _ in 0..nstreams {
            let name = cur.string()?;
            let days = cur.u64()? as usize;
            let mut daily = Vec::with_capacity(days.min(s.len() / 32 + 1));
            for _ in 0..days {
                daily.push(read_counts(&mut cur)?);
            }
            let total = read_counts(&mut cur)?;
            streams.push(StreamResult { name, daily, total });
        }
        let ngauges = cur.u64()? as usize;
        let mut gauges = Vec::with_capacity(ngauges.min(s.len() / 12 + 1));
        for _ in 0..ngauges {
            let name = cur.string()?;
            gauges.push((name, cur.u64()?));
        }
        if !cur.is_at_end() {
            return Err(BinError::TrailingBytes);
        }
        results.push((
            label,
            SimResult {
                workload,
                system,
                streams,
                gauges,
            },
        ));
    }
    Ok(results)
}

// ---------------------------------------------------------------------------
// The resumable engine
// ---------------------------------------------------------------------------

struct ResumeLane {
    label: String,
    cache: Cache,
    prev: Counts,
    daily: Vec<Counts>,
}

/// Drive `policies` over `trace` exactly like
/// [`MultiSim::run`](crate::sim::MultiSim::run), but checkpointably.
///
/// * `meta` — cell identity, validated against `start` and embedded in
///   every checkpoint written.
/// * `start` — a previously flushed checkpoint to continue from, or `None`
///   for a cold start. Lane labels and count must match `policies`.
/// * `interval` — flush a checkpoint to `on_checkpoint` every `interval`
///   records (0 = only when `stop` is raised).
/// * `stop` — cooperative stop flag (typically set by a SIGINT/SIGTERM
///   handler). Checked between request strides; when raised, a final
///   checkpoint is flushed and [`SweepOutcome::Interrupted`] returned.
/// * `on_checkpoint` — sink for flushed checkpoints (typically an atomic
///   `.wcp` writer).
///
/// Completion yields per-lane results bit-identical to an uninterrupted
/// run, regardless of how many interrupt/resume cycles preceded it.
pub fn run_resumable(
    trace: &Trace,
    meta: &SweepMeta,
    policies: Vec<(String, Box<dyn RemovalPolicy>)>,
    start: Option<&SweepCheckpoint>,
    interval: u64,
    stop: Option<&AtomicBool>,
    on_checkpoint: &mut dyn FnMut(&SweepCheckpoint),
) -> Result<SweepOutcome, ResumeError> {
    let (mut lanes, start_day, start_pos, mut records_done) = match start {
        None => {
            let lanes = policies
                .into_iter()
                .map(|(label, policy)| ResumeLane {
                    label,
                    cache: Cache::new(meta.capacity, policy),
                    prev: Counts::default(),
                    daily: Vec::new(),
                })
                .collect::<Vec<_>>();
            (lanes, 0u64, 0usize, 0u64)
        }
        Some(ckpt) => {
            if ckpt.meta != *meta {
                return Err(ResumeError::MetaMismatch(format!(
                    "checkpoint is for {:?}, sweep wants {:?}",
                    ckpt.meta, meta
                )));
            }
            if ckpt.lanes.len() != policies.len() {
                return Err(ResumeError::LaneMismatch(format!(
                    "checkpoint has {} lanes, sweep has {}",
                    ckpt.lanes.len(),
                    policies.len()
                )));
            }
            let mut lanes = Vec::with_capacity(policies.len());
            for ((label, policy), state) in policies.into_iter().zip(&ckpt.lanes) {
                if label != state.label {
                    return Err(ResumeError::LaneMismatch(format!(
                        "lane label {:?} in checkpoint, {:?} in sweep",
                        state.label, label
                    )));
                }
                let mut cache = Cache::new(meta.capacity, policy);
                if !cache.restore_state(&state.cache) {
                    return Err(ResumeError::RestoreFailed(format!(
                        "lane {label:?} snapshot is inconsistent"
                    )));
                }
                lanes.push(ResumeLane {
                    label,
                    cache,
                    prev: state.prev,
                    daily: state.daily.clone(),
                });
            }
            (lanes, ckpt.day, ckpt.pos as usize, ckpt.records_done)
        }
    };

    let mut since_ckpt = 0u64;
    for (day, requests) in trace.days() {
        if day < start_day {
            continue;
        }
        let mut pos = if day == start_day { start_pos } else { 0 };
        while pos < requests.len() {
            let remaining = requests.len() - pos;
            let stride = if interval == 0 {
                remaining
            } else {
                remaining.min((interval - since_ckpt).max(1) as usize)
            };
            let slice = &requests[pos..pos + stride];
            lanes.par_chunks_mut(1).for_each(|chunk| {
                for lane in chunk {
                    for r in slice {
                        lane.cache.handle(r);
                    }
                }
            });
            pos += stride;
            records_done += stride as u64;
            since_ckpt += stride as u64;

            let stop_requested = stop.is_some_and(|s| s.load(Ordering::SeqCst));
            if (interval > 0 && since_ckpt >= interval) || stop_requested {
                let ckpt = snapshot(meta, day, pos as u64, records_done, &lanes);
                on_checkpoint(&ckpt);
                since_ckpt = 0;
                // Re-check after the sink: a stop raised while the
                // checkpoint was being written is already covered by the
                // checkpoint just flushed, so exit now rather than burn
                // another interval of work.
                if stop_requested || stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(SweepOutcome::Interrupted(Box::new(ckpt)));
                }
            }
        }
        // Day-end snapshot, exactly as MultiSim / simulate() take it.
        // Checkpoints are only written between strides, where
        // `daily.len() == day` holds for every lane; a stop raised during
        // the final stride of a day returns above, *before* this push, so
        // the resumed process recomputes the day-end delta itself.
        for lane in &mut lanes {
            let counts = lane.cache.counts();
            lane.daily.push(counts.delta(&lane.prev));
            lane.prev = counts;
        }
    }

    let results = lanes
        .into_iter()
        .map(|lane| {
            let result = SimResult {
                workload: trace.name.clone(),
                system: lane.cache.policy_name(),
                streams: vec![StreamResult {
                    name: "cache".to_string(),
                    daily: lane.daily,
                    total: lane.cache.counts(),
                }],
                gauges: lane.cache.gauges(),
            };
            (lane.label, result)
        })
        .collect();
    Ok(SweepOutcome::Complete(results))
}

fn snapshot(
    meta: &SweepMeta,
    day: u64,
    pos: u64,
    records_done: u64,
    lanes: &[ResumeLane],
) -> SweepCheckpoint {
    SweepCheckpoint {
        meta: meta.clone(),
        day,
        pos,
        records_done,
        lanes: lanes
            .iter()
            .map(|lane| LaneState {
                label: lane.label.clone(),
                prev: lane.prev,
                daily: lane.daily.clone(),
                cache: lane.cache.export_state(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{named, GreedyDualSize, LruMin, PitkowRecker};
    use webcache_trace::binfmt::trace_content_hash;
    use webcache_trace::RawRequest;

    fn trace() -> Trace {
        let day = webcache_trace::SECONDS_PER_DAY;
        let raws: Vec<RawRequest> = (0..600u64)
            .map(|i| RawRequest {
                time: i * day / 90,
                client: "c".into(),
                url: format!("http://s/{}.html", (i * 13) % 37),
                status: 200,
                size: 100 + (i % 17) * 110,
                last_modified: (i % 5 == 0).then_some(i * 3),
            })
            .collect();
        Trace::from_raw("ckpt-T", &raws)
    }

    fn specs() -> Vec<(String, Box<dyn RemovalPolicy>)> {
        vec![
            ("LRU".into(), Box::new(named::lru()) as _),
            ("SIZE".into(), Box::new(named::size()) as _),
            ("GDS".into(), Box::new(GreedyDualSize::new()) as _),
            ("LRU-MIN".into(), Box::new(LruMin::new()) as _),
            ("PR".into(), Box::new(PitkowRecker::default()) as _),
        ]
    }

    fn meta_for(t: &Trace, capacity: u64) -> SweepMeta {
        SweepMeta {
            experiment: "test".into(),
            workload: t.name.clone(),
            capacity,
            trace_hash: trace_content_hash(t),
            seed: 7,
            scale_ppm: 10_000,
        }
    }

    fn complete(outcome: SweepOutcome) -> Vec<(String, SimResult)> {
        match outcome {
            SweepOutcome::Complete(r) => r,
            SweepOutcome::Interrupted(_) => panic!("unexpected interruption"),
        }
    }

    fn results_json(results: &[(String, SimResult)]) -> String {
        results
            .iter()
            .map(|(label, r)| format!("{label}:{}", serde_json::to_string(r).unwrap()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Uninterrupted run_resumable matches MultiSim lane for lane.
    #[test]
    fn uninterrupted_matches_multisim() {
        let t = trace();
        let cap = 3_000;
        let meta = meta_for(&t, cap);
        let ours = complete(run_resumable(&t, &meta, specs(), None, 0, None, &mut |_| {}).unwrap());
        let reference = crate::sim::MultiSim::new(&t, cap).run(specs());
        assert_eq!(results_json(&ours), results_json(&reference));
    }

    /// Kill at an exact record count, cold-restore from serialized bytes,
    /// resume: byte-identical JSON to the uninterrupted run.
    #[test]
    fn kill_and_resume_is_bit_identical() {
        let t = trace();
        let cap = 3_000;
        let meta = meta_for(&t, cap);
        let control =
            complete(run_resumable(&t, &meta, specs(), None, 0, None, &mut |_| {}).unwrap());
        // Kill points include day boundaries (90 requests/day-ish), the
        // very first record, and mid-day positions.
        for kill_at in [1u64, 7, 89, 90, 91, 300, 599] {
            let stop = AtomicBool::new(false);
            let mut saved: Option<Vec<u8>> = None;
            let outcome = run_resumable(
                &t,
                &meta,
                specs(),
                None,
                kill_at,
                Some(&stop),
                &mut |ckpt| {
                    saved = Some(ckpt.to_bytes());
                    stop.store(true, Ordering::SeqCst);
                },
            )
            .unwrap();
            let ckpt_bytes = match outcome {
                SweepOutcome::Interrupted(c) => {
                    assert_eq!(c.records_done, kill_at, "kill point drifted");
                    saved.expect("sink saw the final checkpoint")
                }
                SweepOutcome::Complete(_) => panic!("run completed before kill point"),
            };
            let ckpt = SweepCheckpoint::from_bytes(&ckpt_bytes).unwrap();
            let resumed = complete(
                run_resumable(&t, &meta, specs(), Some(&ckpt), 0, None, &mut |_| {}).unwrap(),
            );
            assert_eq!(
                results_json(&control),
                results_json(&resumed),
                "divergence after kill at record {kill_at}"
            );
        }
    }

    /// Checkpoint bytes survive an encode/decode round trip exactly.
    #[test]
    fn checkpoint_round_trips() {
        let t = trace();
        let meta = meta_for(&t, 3_000);
        let stop = AtomicBool::new(false);
        let mut got: Option<SweepCheckpoint> = None;
        let _ = run_resumable(&t, &meta, specs(), None, 250, Some(&stop), &mut |c| {
            got = Some(c.clone());
            stop.store(true, Ordering::SeqCst);
        })
        .unwrap();
        let ckpt = got.unwrap();
        let decoded = SweepCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, decoded);
    }

    /// Stale or mismatched checkpoints are rejected with a typed error.
    #[test]
    fn resume_rejects_mismatched_meta_and_lanes() {
        let t = trace();
        let meta = meta_for(&t, 3_000);
        let stop = AtomicBool::new(false);
        let mut got: Option<SweepCheckpoint> = None;
        let _ = run_resumable(&t, &meta, specs(), None, 100, Some(&stop), &mut |c| {
            got = Some(c.clone());
            stop.store(true, Ordering::SeqCst);
        })
        .unwrap();
        let ckpt = got.unwrap();

        let mut wrong_hash = meta.clone();
        wrong_hash.trace_hash ^= 1;
        assert!(matches!(
            run_resumable(&t, &wrong_hash, specs(), Some(&ckpt), 0, None, &mut |_| {}),
            Err(ResumeError::MetaMismatch(_))
        ));

        let mut wrong_seed = meta.clone();
        wrong_seed.seed += 1;
        assert!(matches!(
            run_resumable(&t, &wrong_seed, specs(), Some(&ckpt), 0, None, &mut |_| {}),
            Err(ResumeError::MetaMismatch(_))
        ));

        let fewer: Vec<(String, Box<dyn RemovalPolicy>)> =
            vec![("LRU".into(), Box::new(named::lru()) as _)];
        assert!(matches!(
            run_resumable(&t, &meta, fewer, Some(&ckpt), 0, None, &mut |_| {}),
            Err(ResumeError::LaneMismatch(_))
        ));

        let relabelled: Vec<(String, Box<dyn RemovalPolicy>)> = specs()
            .into_iter()
            .map(|(l, p)| (format!("x-{l}"), p))
            .collect();
        assert!(matches!(
            run_resumable(&t, &meta, relabelled, Some(&ckpt), 0, None, &mut |_| {}),
            Err(ResumeError::LaneMismatch(_))
        ));
    }

    /// Results survive the salvage codec exactly.
    #[test]
    fn result_codec_round_trips() {
        let t = trace();
        let meta = meta_for(&t, 3_000);
        let results =
            complete(run_resumable(&t, &meta, specs(), None, 0, None, &mut |_| {}).unwrap());
        let bytes = encode_results(&results);
        let decoded = decode_results(&bytes).unwrap();
        assert_eq!(results_json(&results), results_json(&decoded));
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(decode_results(&bad).is_err());
    }

    /// Corrupted checkpoint bytes fail decoding with a checksum error.
    #[test]
    fn corrupt_checkpoint_bytes_are_detected() {
        let t = trace();
        let meta = meta_for(&t, 3_000);
        let stop = AtomicBool::new(false);
        let mut bytes: Option<Vec<u8>> = None;
        let _ = run_resumable(&t, &meta, specs(), None, 100, Some(&stop), &mut |c| {
            bytes = Some(c.to_bytes());
            stop.store(true, Ordering::SeqCst);
        })
        .unwrap();
        let good = bytes.unwrap();
        assert!(SweepCheckpoint::from_bytes(&good).is_ok());
        for at in [0, 5, good.len() / 2, good.len() - 3] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                SweepCheckpoint::from_bytes(&bad).is_err(),
                "corruption at byte {at} went undetected"
            );
        }
    }
}
