//! Process-level readings from `/proc/self`.

use std::fs;

/// Linux reports process times in clock ticks of 1/100 s on every
/// mainstream configuration (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of the whole process, in seconds. The kernel
/// scales the two so their sum is the scheduler's exact run time; only
/// the split between them is sampled.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") / TICKS_PER_SECOND
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces, so fields are counted from
/// the closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Name:   <number> ...` line of a `/proc/.../status` file.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field(&status, "VmHWM").expect("VmHWM is reported") as f64 / 1024.0
}

/// Voluntary + involuntary context switches summed over every live
/// thread of the process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_spaces_in_the_command_name() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(1000.0));
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "VmRSS"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
