//! What the kernel says about the proxy process: CPU time, peak
//! resident memory, threads and context switches, read from
//! `/proc/<pid>` so nothing inside the proxy has to cooperate.

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds a process has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse `/proc/<pid>/stat`. The command name sits in parentheses and
/// may itself hold spaces or parentheses, so fields are counted from
/// the last `)`: utime and stime are the 14th and 15th of the line.
pub fn parse_stat(text: &str) -> Option<CpuTime> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name come state (3rd field) .. cutime; utime is 11 on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime / TICKS_PER_SEC,
        sys_s: stime / TICKS_PER_SEC,
    })
}

/// The fields of `/proc/<pid>/status` the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size in KiB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// Resident set size now, in KiB (`VmRSS`).
    pub vm_rss_kb: u64,
    pub threads: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

/// Parse `/proc/<pid>/status`; fields that are missing stay 0.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => s.vm_hwm_kb = number(),
            "VmRSS" => s.vm_rss_kb = number(),
            "Threads" => s.threads = number(),
            "voluntary_ctxt_switches" => s.voluntary_switches = number(),
            "nonvoluntary_ctxt_switches" => s.involuntary_switches = number(),
            _ => {}
        }
    }
    s
}

pub fn cpu_time(pid: u32) -> Option<CpuTime> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

pub fn status(pid: u32) -> Option<Status> {
    Some(parse_status(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
    ))
}

/// Context switches of every thread of the process. `/proc/<pid>/status`
/// counts the main thread alone, so the per-task files are summed.
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_switches + s.involuntary_switches
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name holding spaces and a parenthesis.
        let line = "4242 (web cache) proxy) S 1 4242 4242 0 -1 4194304 523 0 0 0 \
                    731 269 0 0 20 0 5 0 8765 1234 99";
        let cpu = parse_stat(line).expect("parses");
        assert_eq!(cpu.user_s, 7.31);
        assert_eq!(cpu.sys_s, 2.69);
        assert_eq!(cpu.total_s(), 10.0);
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_reads_the_named_fields_and_skips_the_rest() {
        let text =
            "Name:\twebcache-proxy\nVmPeak:\t  999 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30720 kB\n\
                    Threads:\t5\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t7\ngarbage line\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 40960,
                vm_rss_kb: 30720,
                threads: 5,
                voluntary_switches: 120,
                involuntary_switches: 7,
            }
        );
        assert_eq!(parse_status(""), Status::default());
    }

    #[test]
    fn reads_this_very_process() {
        let pid = std::process::id();
        assert!(cpu_time(pid).is_some());
        let s = status(pid).expect("own status");
        assert!(s.vm_hwm_kb > 0 && s.threads >= 1);
        let earlier = CpuTime {
            user_s: 1.0,
            sys_s: 0.5,
        };
        let later = CpuTime {
            user_s: 1.75,
            sys_s: 0.75,
        };
        assert_eq!(later.since(&earlier).total_s(), 1.0);
    }
}
