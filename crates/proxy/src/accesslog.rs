//! The proxy's access log: a bounded ring of CLF-like lines.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Lines the log retains.
const LINES: usize = 4096;

/// The last [`LINES`] access-log lines. Once the ring is full a new line
/// is written into the buffer of the line it replaces, so a long-running
/// proxy neither grows nor allocates here.
pub(crate) struct AccessLog {
    lines: VecDeque<String>,
}

impl AccessLog {
    pub fn new() -> AccessLog {
        AccessLog {
            lines: VecDeque::with_capacity(LINES),
        }
    }

    /// Append the line for a `200` of `size` bytes answering `GET
    /// target` at logical time `now`, served as `outcome` (`HIT`,
    /// `MISS`, …).
    pub fn record(&mut self, now: u64, target: &str, size: u64, outcome: &str) {
        let mut line = if self.lines.len() == LINES {
            self.lines.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        line.clear();
        // Writing to a String cannot fail.
        let _ = write!(
            line,
            "client - - [t{now}] \"GET {target} HTTP/1.0\" 200 {size} {outcome}"
        );
        self.lines.push_back(line);
    }

    /// The retained lines, oldest first, newline-separated.
    pub fn tail(&self) -> String {
        let lines: Vec<&str> = self.lines.iter().map(String::as_str).collect();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_the_most_recent_lines() {
        let mut log = AccessLog::new();
        for now in 1..=(LINES as u64 + 10) {
            log.record(now, "http://o.test/a.html", 1000, "HIT");
        }
        let tail = log.tail();
        assert_eq!(tail.lines().count(), LINES);
        assert!(tail.starts_with("client - - [t11] "));
        assert!(tail.ends_with(&format!(
            "client - - [t{}] \"GET http://o.test/a.html HTTP/1.0\" 200 1000 HIT",
            LINES + 10
        )));
    }
}
