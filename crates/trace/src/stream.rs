//! The [`Trace`] container: a validated, time-ordered request sequence plus
//! the interner that names its URLs, servers and clients.

use crate::clf;
use crate::record::{Interner, RawRequest, RawRequestRef, Request};
use crate::validate::{ValidationStats, Validator};

/// A complete validated workload trace.
///
/// This is the input to every simulation in the paper: "All experiments are
/// initiated with an empty cache and run for the full duration of the
/// workload" (section 3.2).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Human-readable workload name (`"U"`, `"G"`, `"C"`, `"BR"`, `"BL"`, …).
    pub name: String,
    /// Validated requests in non-decreasing time order.
    pub requests: Vec<Request>,
    /// Names behind the interned ids in `requests`.
    pub interner: Interner,
    /// What validation did to the raw log this trace came from.
    pub validation: ValidationStats,
}

impl Trace {
    /// Build a trace by validating raw log entries.
    ///
    /// Entries are validated in time order (stable for equal timestamps):
    /// the section 1.1 rules — last-known sizes, size-change detection —
    /// are defined over the trace as a time-ordered sequence, so ordering
    /// must be fixed *before* validation or a log written out of order
    /// would validate differently than its time-sorted round trip.
    pub fn from_raw(name: &str, raws: &[RawRequest]) -> Self {
        let mut order: Vec<usize> = (0..raws.len()).collect();
        order.sort_by_key(|&i| raws[i].time);
        let mut v = Validator::new();
        let requests: Vec<crate::record::Request> = order
            .into_iter()
            .filter_map(|i| v.validate(&raws[i]).ok())
            .collect();
        let validation = v.stats();
        Trace {
            name: name.to_string(),
            requests,
            interner: v.into_interner(),
            validation,
        }
    }

    /// Parse a Common Log Format text into a trace. `epoch` is the absolute
    /// Unix time of trace time zero. Returns the trace and the count of
    /// unparseable lines.
    pub fn from_clf(name: &str, text: &str, epoch: i64) -> (Self, usize) {
        Self::from_clf_bytes(name, text.as_bytes(), epoch)
    }

    /// Parse a Common Log Format byte buffer into a trace without building
    /// per-line strings: lines are tokenized in place
    /// ([`clf::parse_line_bytes`]), stably time-sorted as borrowed views,
    /// and their text interned directly from the buffer during validation.
    /// `epoch` is the absolute Unix time of trace time zero. Returns the
    /// trace and the count of unparseable lines.
    pub fn from_clf_bytes(name: &str, text: &[u8], epoch: i64) -> (Self, usize) {
        let (mut refs, bad) = clf::parse_log_bytes(text, epoch);
        // Stable sort, as in `from_raw`: the section 1.1 rules are defined
        // over the time-ordered sequence.
        refs.sort_by_key(|r| r.time);
        let mut v = Validator::new();
        let requests: Vec<Request> = refs.iter().filter_map(|r| v.validate_ref(r).ok()).collect();
        let validation = v.stats();
        (
            Trace {
                name: name.to_string(),
                requests,
                interner: v.into_interner(),
                validation,
            },
            bad,
        )
    }

    /// Serialise the trace back to CLF text (status 200 for every validated
    /// request). Round-trips through [`Trace::from_clf`].
    pub fn to_clf(&self, epoch: i64) -> String {
        let mut out = String::with_capacity(self.requests.len() * 96);
        for r in &self.requests {
            let raw = RawRequestRef {
                time: r.time,
                client: self.interner.client_text(r.client).unwrap_or("-"),
                url: self.interner.url_text(r.url).unwrap_or("-"),
                status: 200,
                size: r.size,
                last_modified: r.last_modified,
            };
            clf::write_line(&mut out, &raw, epoch);
            out.push('\n');
        }
        out
    }

    /// Number of valid requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes across all requests (the "requiring transmission of …"
    /// figures in section 2 of the paper).
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.size).sum()
    }

    /// Duration in whole days (last request's day index + 1); 0 if empty.
    pub fn duration_days(&self) -> u64 {
        self.requests.last().map_or(0, |r| r.day() + 1)
    }

    /// Iterate over `(day_index, requests_in_day)` slices, including empty
    /// days, in order. Useful for building daily hit-rate series.
    ///
    /// Each day's end is found by binary search over the requests not yet
    /// handed out, so the iteration costs O(days × log n) and reads only
    /// the requests the search probes: that relies on `requests` being in
    /// non-decreasing time order, as every constructor leaves it.
    pub fn days(&self) -> DayIter<'_> {
        debug_assert!(
            self.requests.is_sorted_by_key(|r| r.time),
            "Trace::days needs requests in time order"
        );
        DayIter {
            rest: &self.requests,
            next_day: 0,
            total_days: self.duration_days(),
        }
    }
}

/// Iterator over per-day slices of a trace. See [`Trace::days`].
pub struct DayIter<'a> {
    /// The requests of `next_day` and every later day.
    rest: &'a [Request],
    next_day: u64,
    total_days: u64,
}

impl<'a> Iterator for DayIter<'a> {
    type Item = (u64, &'a [Request]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_day >= self.total_days {
            return None;
        }
        let day = self.next_day;
        self.next_day += 1;
        // Comparing day indices, not `time < (day + 1) * SECONDS_PER_DAY`,
        // cannot overflow on the last day a `u64` time can reach.
        let end = self.rest.partition_point(|r| r.day() <= day);
        let (today, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some((day, today))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SECONDS_PER_DAY;

    fn raw(time: u64, url: &str, size: u64) -> RawRequest {
        RawRequest {
            time,
            client: "c".into(),
            url: url.into(),
            status: 200,
            size,
            last_modified: None,
        }
    }

    #[test]
    fn from_raw_sorts_and_validates() {
        let raws = vec![
            raw(10, "http://s/b", 2),
            raw(5, "http://s/a", 1),
            RawRequest {
                status: 404,
                ..raw(1, "http://s/x", 9)
            },
        ];
        let t = Trace::from_raw("t", &raws);
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[0].time, 5);
        assert_eq!(t.requests[1].time, 10);
        assert_eq!(t.validation.dropped_not_ok, 1);
        assert_eq!(t.total_bytes(), 3);
    }

    #[test]
    fn day_iteration_covers_every_day_and_request() {
        let raws = vec![
            raw(0, "http://s/a", 1),
            raw(SECONDS_PER_DAY - 1, "http://s/b", 1),
            // day 1 empty
            raw(2 * SECONDS_PER_DAY + 5, "http://s/c", 1),
        ];
        let t = Trace::from_raw("t", &raws);
        assert_eq!(t.duration_days(), 3);
        let days: Vec<(u64, usize)> = t.days().map(|(d, s)| (d, s.len())).collect();
        assert_eq!(days, vec![(0, 2), (1, 0), (2, 1)]);
        let total: usize = t.days().map(|(_, s)| s.len()).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn clf_round_trip_preserves_requests() {
        let epoch = 811_296_000;
        let raws = vec![
            raw(1, "http://a.cs.vt.edu/x.gif", 120),
            raw(2, "http://b.cs.vt.edu/y.html", 999),
            raw(SECONDS_PER_DAY + 3, "http://a.cs.vt.edu/x.gif", 120),
        ];
        let t = Trace::from_raw("t", &raws);
        let text = t.to_clf(epoch);
        let (t2, bad) = Trace::from_clf("t", &text, epoch);
        assert_eq!(bad, 0);
        assert_eq!(t2.len(), t.len());
        for (a, b) in t.requests.iter().zip(&t2.requests) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.size, b.size);
            assert_eq!(a.doc_type, b.doc_type);
            assert_eq!(t.interner.url_text(a.url), t2.interner.url_text(b.url));
        }
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = Trace::from_raw("empty", &[]);
        assert!(t.is_empty());
        assert_eq!(t.duration_days(), 0);
        assert_eq!(t.days().count(), 0);
        assert_eq!(t.total_bytes(), 0);
    }
}
