//! The trace generator: turns a [`WorkloadProfile`] into a validated
//! [`Trace`] with the statistical structure the paper published for the
//! real logs.
//!
//! Generation is fully deterministic for a `(profile, seed)` pair and is
//! split into two phases so the expensive part parallelises:
//!
//! 1. **Event drawing** (parallel, per day): each day gets an independent
//!    RNG stream seeded from `(seed, day)` via a splitmix64 mix, and every
//!    request pre-draws *all* of its randomness — document pick, the
//!    modification/zero-size/error coins, the size perturbation factor,
//!    the client number — into a plain `Event`. No draw depends on
//!    cross-day mutable state, so days can be generated on any number of
//!    threads in any order.
//! 2. **Folding** (serial, cheap): the day event lists are concatenated in
//!    day order and folded through the per-document state machine (size
//!    evolution, last-modified stamps) and the section 1.1 validator,
//!    emitting interned-id [`webcache_trace::Request`]s directly — no
//!    per-request strings are built. The fold touches no RNG, so
//!    [`generate`] (parallel) and [`generate_serial`] are bit-identical by
//!    construction; a test asserts it anyway.
//!
//! The raw event stream deliberately includes non-200 entries and
//! zero-size entries so that the section 1.1 validation pipeline is
//! exercised exactly as it was on the real logs; the `total_requests`
//! budget counts *valid* accesses, matching how the paper reports its
//! workloads.

use crate::dist::{diurnal_second, ZipfSampler, ZipfWeights};
use crate::profile::WorkloadProfile;
use crate::universe::Universe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt::Write as _;
use webcache_trace::{ClientId, ServerId, Trace, UrlId, Validator, SECONDS_PER_DAY};

/// Per-document state during the serial fold, from the document's first
/// request on.
#[derive(Debug, Clone, Copy)]
struct DocState {
    url: UrlId,
    server: ServerId,
    size: u64,
    last_modified: u64,
}

/// One fully pre-drawn request event.
///
/// All randomness is resolved when the event is drawn; the coins record
/// *intent* ("modify if already seen") and the fold applies them against
/// cross-day document state without consuming any RNG.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: u64,
    /// Universe index of the requested document.
    url: u32,
    /// Client number in `0..profile.clients`.
    client: u32,
    /// Modify the document's size (effective only once seen).
    change_coin: bool,
    /// Touch last-modified without a size change (effective only once seen).
    same_mod_coin: bool,
    /// Log a zero size (effective only once seen).
    zero_coin: bool,
    /// Size perturbation factor, drawn iff `change_coin`.
    mod_factor: f64,
    /// Status of a trailing error entry the validator must drop, if any.
    error: Option<u16>,
}

/// Mix `(seed, day)` into an independent per-day stream seed (the shared
/// SplitMix64 finaliser in `webcache_core::util`, with this call site's
/// historical constants — bit-identical to the original inline copy).
/// Adjacent days or seeds must not produce correlated streams.
fn day_stream_seed(seed: u64, day: u64) -> u64 {
    webcache_core::util::stream_seed(
        seed,
        day,
        webcache_core::util::SPLITMIX64_GAMMA,
        0xBF58_476D_1CE4_E5B9,
    )
}

/// Split the request budget across days proportionally to the profile's
/// day weights, fixing rounding drift on the last active day.
fn requests_per_day(profile: &WorkloadProfile) -> Vec<u64> {
    let wsum: f64 = profile.day_weights.iter().sum();
    let mut counts: Vec<u64> = profile
        .day_weights
        .iter()
        .map(|w| (profile.total_requests as f64 * w / wsum).round() as u64)
        .collect();
    let assigned: u64 = counts.iter().sum();
    let last_active = counts
        .iter()
        .rposition(|&c| c > 0)
        .expect("validate() guarantees an active day");
    let c = &mut counts[last_active];
    *c = (*c + profile.total_requests)
        .saturating_sub(assigned)
        .max(1);
    counts
}

/// Split the request budget between the base universe and the
/// fresh-phase universe: `(base_draws, fresh_draws)`.
fn draws_per_universe(profile: &WorkloadProfile, day_requests: &[u64]) -> (u64, u64) {
    let fresh_draws: u64 = profile.fresh.map_or(0, |f| {
        day_requests[f.start_day as usize..]
            .iter()
            .map(|&n| (n as f64 * f.prob) as u64)
            .sum()
    });
    (profile.total_requests - fresh_draws, fresh_draws)
}

/// The `(draws, target distinct)` pairs [`generate`] calibrates the size
/// of `profile`'s base universe and, when it has a fresh phase, of its
/// fresh universe against (see [`crate::dist::calibrate_universe`]).
pub fn calibration_inputs(profile: &WorkloadProfile) -> [Option<(u64, u64)>; 2] {
    profile.validate();
    let (base_draws, fresh_draws) = draws_per_universe(profile, &requests_per_day(profile));
    let fresh_draws = fresh_draws.max(1);
    [
        Some((base_draws, profile.target_unique_urls.min(base_draws))),
        profile
            .fresh
            .map(|f| (fresh_draws, f.target_unique.min(fresh_draws))),
    ]
}

/// Everything the day-event drawers and the fold share, built once per
/// generation. Immutable after construction, so `&GenCtx` is `Sync` and
/// day streams can be drawn on worker threads.
struct GenCtx<'a> {
    profile: &'a WorkloadProfile,
    universe: Universe,
    base_sampler: ZipfSampler,
    fresh_sampler: Option<ZipfSampler>,
    review_sampler: Option<ZipfSampler>,
    day_requests: Vec<u64>,
}

impl<'a> GenCtx<'a> {
    fn prepare(profile: &'a WorkloadProfile, seed: u64) -> GenCtx<'a> {
        profile.validate();
        let day_requests = requests_per_day(profile);
        let (base_draws, fresh_draws) = draws_per_universe(profile, &day_requests);

        // Calibrate each universe size to its distinct-URL target, both
        // searches and the size rescale reading one weight table.
        let mut weights = ZipfWeights::new(profile.zipf_alpha);
        let [base_size, fresh_size] = calibration_inputs(profile)
            .map(|input| input.map_or(0, |(draws, target)| weights.calibrate(draws, target)));

        let universe = Universe::build_calibrated(
            profile,
            &mut weights,
            base_size,
            fresh_size,
            base_draws,
            fresh_draws,
            seed,
        );
        let base_sampler = ZipfSampler::new(base_size, profile.zipf_alpha);
        let fresh_sampler =
            (fresh_size > 0).then(|| ZipfSampler::new(fresh_size, profile.zipf_alpha));
        let review_sampler = profile.review.map(|r| {
            let top = ((base_size as f64 * r.top_fraction) as usize).max(1);
            ZipfSampler::new(top, profile.zipf_alpha)
        });
        GenCtx {
            profile,
            universe,
            base_sampler,
            fresh_sampler,
            review_sampler,
            day_requests,
        }
    }

    /// `(day, request_count)` pairs for every non-idle day, in day order.
    fn active_days(&self) -> Vec<(u64, u64)> {
        self.day_requests
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(d, &n)| (d as u64, n))
            .collect()
    }

    /// Draw every event of one day from that day's independent stream.
    ///
    /// Draw order is fixed per request and never short-circuits on
    /// cross-day state: each coin is drawn unconditionally (only the
    /// perturbation factor piggybacks on its own coin, which lives in the
    /// same stream), so a day's events do not depend on what earlier days
    /// produced.
    fn day_events(&self, day: u64, n_d: u64, seed: u64) -> Vec<Event> {
        let p = self.profile;
        let mut rng = StdRng::seed_from_u64(day_stream_seed(seed, day));

        // Classroom working set: the documents the instructor walks the
        // class through today. First-draw order (not HashSet iteration
        // order, which varies per process and would break determinism).
        let working_set: Option<Vec<usize>> = p.classroom.map(|c| {
            let sampler = match (&self.review_sampler, p.review) {
                (Some(rs), Some(r)) if day >= r.start_day => rs,
                _ => &self.base_sampler,
            };
            // Cap the working set at the sampler's support: a heavily
            // scaled-down profile can shrink the universe below the
            // configured set size, and rejection sampling for more
            // distinct documents than exist would never terminate. When
            // the whole universe fits, the "class" simply walks all of
            // it; otherwise draws are unchanged from before the cap.
            let want = c.working_set_size.min(sampler.len());
            let mut set: Vec<usize> = Vec::with_capacity(want);
            if want == sampler.len() {
                set.extend(0..want);
            } else {
                while set.len() < want {
                    let doc = sampler.sample(&mut rng);
                    if !set.contains(&doc) {
                        set.push(doc);
                    }
                }
            }
            set
        });

        // Draw the day's request times up front and sort them, so that
        // per-document state evolution (size modifications) happens in
        // chronological order — the order validation and simulation see.
        let mut times: Vec<u64> = (0..n_d)
            .map(|_| day * SECONDS_PER_DAY + diurnal_second(&mut rng))
            .collect();
        times.sort_unstable();

        times
            .into_iter()
            .map(|time| {
                let url = self.pick_url(day, working_set.as_deref(), &mut rng) as u32;
                let change_coin = rng.gen::<f64>() < p.p_size_change;
                let mod_factor = if change_coin {
                    Universe::modification_factor(&mut rng)
                } else {
                    1.0
                };
                let same_mod_coin = rng.gen::<f64>() < p.p_same_size_mod;
                let zero_coin = rng.gen::<f64>() < p.p_zero_size;
                let client = rng.gen_range(0..p.clients);
                let error = (rng.gen::<f64>() < p.p_error).then(|| match rng.gen_range(0..4) {
                    0 => 304u16,
                    1 => 404,
                    2 => 403,
                    _ => 500,
                });
                Event {
                    time,
                    url,
                    client,
                    change_coin,
                    same_mod_coin,
                    zero_coin,
                    mod_factor,
                    error,
                }
            })
            .collect()
    }

    fn pick_url(&self, day: u64, working_set: Option<&[usize]>, rng: &mut StdRng) -> usize {
        let p = self.profile;
        if let (Some(f), Some(fs)) = (p.fresh, &self.fresh_sampler) {
            if day >= f.start_day && rng.gen::<f64>() < f.prob {
                return self.universe.base_count + fs.sample(rng);
            }
        }
        if let (Some(c), Some(set)) = (p.classroom, working_set) {
            if rng.gen::<f64>() < c.in_set_prob {
                return set[rng.gen_range(0..set.len())];
            }
        }
        if let (Some(r), Some(rs)) = (p.review, &self.review_sampler) {
            if day >= r.start_day && rng.gen::<f64>() < r.review_prob {
                return rs.sample(rng);
            }
        }
        self.base_sampler.sample(rng)
    }

    /// Fold day event lists (in day order) through document state and the
    /// validator, emitting interned requests. RNG-free and allocation-light:
    /// URL/server ids resolve once per document and client ids once per
    /// client, not once per request, each text formatted into one reused
    /// buffer.
    fn fold(&self, per_day: Vec<Vec<Event>>) -> Trace {
        let p = self.profile;
        let mut v = Validator::new();
        // `slot[idx]` is 1 + the index of document `idx`'s state in
        // `docs`, 0 until its first request: a zeroed table, so the many
        // documents never requested cost no state at all.
        let mut slot: Vec<u32> = vec![0; self.universe.len()];
        let mut docs: Vec<DocState> = Vec::new();
        let mut server_ids: Vec<Option<ServerId>> = vec![None; p.servers];
        let mut client_ids: Vec<Option<ClientId>> = vec![None; p.clients as usize];

        let total: usize = per_day.iter().map(Vec::len).sum();
        let mut requests = Vec::with_capacity(total);
        let mut text = String::new();
        for events in &per_day {
            for ev in events {
                let idx = ev.url as usize;
                let spec = &self.universe.urls[idx];
                let (doc, logged_size) = match slot[idx] {
                    0 => {
                        // First request for this document: materialise and
                        // intern its URL text now — never-requested
                        // documents never pay for a string.
                        self.universe.write_url(idx, &mut text);
                        let url = v.interner_mut().url(&text);
                        let server = match server_ids[spec.server] {
                            Some(id) => id,
                            None => {
                                self.universe.write_host(idx, &mut text);
                                let id = v.interner_mut().server(&text);
                                server_ids[spec.server] = Some(id);
                                id
                            }
                        };
                        let doc = DocState {
                            url,
                            server,
                            size: spec.base_size,
                            last_modified: 0,
                        };
                        docs.push(doc);
                        slot[idx] = docs.len() as u32;
                        (doc, doc.size)
                    }
                    s => {
                        let st = &mut docs[s as usize - 1];
                        if ev.change_coin {
                            st.size = Universe::apply_modification(
                                spec.base_size,
                                st.size,
                                ev.mod_factor,
                            );
                            st.last_modified = ev.time;
                        } else if ev.same_mod_coin {
                            st.last_modified = ev.time;
                        }
                        // Occasionally log a zero size for an already-seen
                        // document; validation restores the last known size.
                        (*st, if ev.zero_coin { 0 } else { st.size })
                    }
                };
                let client = match client_ids[ev.client as usize] {
                    Some(id) => id,
                    None => {
                        text.clear();
                        let _ = write!(text, "client{}.clients.example", ev.client);
                        let id = v.interner_mut().client(&text);
                        client_ids[ev.client as usize] = Some(id);
                        id
                    }
                };
                let DocState { url, server, .. } = doc;
                let last_modified = p.record_last_modified.then_some(doc.last_modified);
                if let Ok(r) = v.validate_interned(
                    ev.time,
                    client,
                    server,
                    url,
                    spec.doc_type,
                    200,
                    logged_size,
                    last_modified,
                ) {
                    requests.push(r);
                }
                // Error noise the validator must drop. Ids are unused on
                // the non-200 path (the original string pipeline never
                // interned dropped entries), so reuse the main record's.
                if let Some(status) = ev.error {
                    let _ = v.validate_interned(
                        ev.time,
                        client,
                        server,
                        url,
                        spec.doc_type,
                        status,
                        0,
                        None,
                    );
                }
            }
        }
        let validation = v.stats();
        Trace {
            name: p.name.clone(),
            requests,
            interner: v.into_interner(),
            validation,
        }
    }
}

/// Generate a complete validated trace from a profile, drawing day event
/// streams across [`rayon::current_num_threads`] threads. Bit-identical to
/// [`generate_serial`] for every `(profile, seed)` pair.
pub fn generate(profile: &WorkloadProfile, seed: u64) -> Trace {
    let ctx = GenCtx::prepare(profile, seed);
    let days = ctx.active_days();
    let per_day: Vec<Vec<Event>> = days
        .par_iter()
        .map(|&(day, n_d)| ctx.day_events(day, n_d, seed))
        .collect();
    ctx.fold(per_day)
}

/// Generate a complete validated trace on the calling thread only — the
/// reference path the parallel [`generate`] is asserted against.
pub fn generate_serial(profile: &WorkloadProfile, seed: u64) -> Trace {
    let ctx = GenCtx::prepare(profile, seed);
    let per_day: Vec<Vec<Event>> = ctx
        .active_days()
        .into_iter()
        .map(|(day, n_d)| ctx.day_events(day, n_d, seed))
        .collect();
    ctx.fold(per_day)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use webcache_trace::stats::{TraceSummary, TypeMix};
    use webcache_trace::DocType;

    #[test]
    fn generation_is_deterministic() {
        let p = profiles::bl().scaled(0.02);
        let a = generate(&p, 11);
        let b = generate(&p, 11);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.requests.first(), b.requests.first());
        assert_eq!(a.total_bytes(), b.total_bytes());
        let c = generate(&p, 12);
        assert_ne!(a.total_bytes(), c.total_bytes());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let p = profiles::g().scaled(0.02);
        let a = generate(&p, 3);
        let b = generate_serial(&p, 3);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.validation, b.validation);
        assert_eq!(a.interner.url_count(), b.interner.url_count());
    }

    #[test]
    fn classroom_generation_is_deterministic_across_runs() {
        // The working set used to be materialised through HashSet
        // iteration order, which varies per process; first-draw order makes
        // workload C reproducible.
        let p = profiles::c().scaled(0.02);
        let a = generate(&p, 21);
        let b = generate_serial(&p, 21);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn day_stream_seeds_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            for day in 0..365 {
                assert!(seen.insert(day_stream_seed(seed, day)));
            }
        }
    }

    #[test]
    fn request_budget_is_met() {
        let p = profiles::g().scaled(0.05);
        let t = generate(&p, 1);
        let n = t.len() as f64;
        let target = p.total_requests as f64;
        assert!(
            (n - target).abs() / target < 0.02,
            "generated {n} valid requests, wanted {target}"
        );
    }

    #[test]
    fn byte_budget_is_met_roughly() {
        let p = profiles::bl().scaled(0.05);
        let t = generate(&p, 2);
        let b = t.total_bytes() as f64;
        let target = p.total_bytes as f64;
        assert!(
            (b - target).abs() / target < 0.35,
            "generated {b} bytes, wanted {target}"
        );
    }

    #[test]
    fn type_mix_matches_table4_shares() {
        let p = profiles::bl().scaled(0.1);
        let t = generate(&p, 3);
        let mix = TypeMix::of(&t);
        for spec in &p.types {
            let got = mix.share(spec.doc_type).refs;
            assert!(
                (got - spec.ref_share).abs() < 0.03,
                "{}: ref share {} vs target {}",
                spec.doc_type,
                got,
                spec.ref_share
            );
        }
    }

    #[test]
    fn unique_urls_match_target() {
        let p = profiles::bl().scaled(0.1);
        let t = generate(&p, 4);
        let s = TraceSummary::of(&t);
        let target = p.target_unique_urls as f64;
        let got = s.unique_urls as f64;
        assert!(
            (got - target).abs() / target < 0.12,
            "unique URLs {got} vs target {target}"
        );
    }

    #[test]
    fn size_change_fraction_is_near_profile_rate() {
        let p = profiles::bl().scaled(0.1);
        let t = generate(&p, 5);
        let f = t.validation.size_change_fraction();
        assert!(
            (f - p.p_size_change).abs() < 0.02,
            "size-change fraction {f} vs {}",
            p.p_size_change
        );
    }

    #[test]
    fn validation_noise_was_present_and_dropped() {
        let p = profiles::g().scaled(0.05);
        let t = generate(&p, 6);
        assert!(
            t.validation.dropped_not_ok > 0,
            "no error entries generated"
        );
        assert!(
            t.validation.assigned_last_known > 0,
            "no zero-size entries generated"
        );
    }

    #[test]
    fn classroom_days_are_idle_for_c() {
        let p = profiles::c().scaled(0.05);
        let t = generate(&p, 7);
        let idle = t.days().filter(|(_, reqs)| reqs.is_empty()).count();
        // 3 idle days per week over ~14 weeks.
        assert!(idle >= 30, "only {idle} idle days");
    }

    #[test]
    fn br_audio_concentrates_bytes_on_one_server() {
        let p = profiles::br().scaled(0.05);
        let t = generate(&p, 8);
        let mix = TypeMix::of(&t);
        assert!(
            mix.share(DocType::Audio).bytes > 0.7,
            "audio bytes {}",
            mix.share(DocType::Audio).bytes
        );
        // All audio requests name server 0's host.
        for r in &t.requests {
            if r.doc_type == DocType::Audio {
                assert!(t
                    .interner
                    .server_text(r.server)
                    .unwrap()
                    .starts_with("server0."));
            }
        }
    }

    #[test]
    fn requests_per_day_totals_match() {
        let p = profiles::u().scaled(0.02);
        let counts = requests_per_day(&p);
        let total: u64 = counts.iter().sum();
        let target = p.total_requests;
        assert!(
            (total as i64 - target as i64).unsigned_abs() < target / 50,
            "assigned {total} vs {target}"
        );
        // Fall surge: later days busier than spring days.
        assert!(counts[158] > counts[30] * 2); // weekday vs weekday
    }
}
