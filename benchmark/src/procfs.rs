//! CPU time and peak memory of this process, from `/proc/self`.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::OnceLock;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Field 3 (state) is the first after the command name; utime and
    // stime are fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU time (user + system, all threads) this process has used so far.
///
/// The query workloads read this around every call, so the file stays
/// open: a positioned read costs a few microseconds, an open more.
pub fn cpu_time() -> Duration {
    static STAT: OnceLock<File> = OnceLock::new();
    let file =
        STAT.get_or_init(|| File::open("/proc/self/stat").expect("/proc/self/stat is readable"));
    let mut buf = [0u8; 1024];
    let len = file
        .read_at(&mut buf, 0)
        .expect("/proc/self/stat is readable");
    let ticks = std::str::from_utf8(&buf[..len])
        .ok()
        .and_then(parse_stat_cpu_ticks)
        .expect("/proc/self/stat has utime and stime");
    Duration::from_nanos(ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (drug tree) (x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
        731 19 0 0 20 0 3 0 8675309 123456789 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 19));
    }

    #[test]
    fn malformed_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12"),
            None
        );
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tdrugtree\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_time();
        assert!(cpu_time() >= before);
    }
}
