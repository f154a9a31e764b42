//! Per-process CPU time, peak memory and thread counts, read from
//! `/proc` for live servers and from `wait4(2)` for a child that exits.

use std::io;
use std::process::Child;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const SC_CLK_TCK: i32 = 2;
pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let (_, after) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // fields[0] is the state (field 3 of stat(5)); utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

fn bad(what: &str, pid: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unreadable {what} for pid {pid}"),
    )
}

/// CPU seconds (user + system) a live process has used.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_ticks(&text).ok_or_else(|| bad("stat", pid))?;
    // SAFETY: sysconf reads a constant system parameter; no memory is
    // passed.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    Ok(ticks as f64 / hz as f64)
}

/// Peak resident set of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = parse_vm_hwm_kb(&text).ok_or_else(|| bad("status", pid))?;
    Ok(kb as f64 / 1024.0)
}

/// Threads of a live process.
pub fn thread_count(pid: u32) -> io::Result<usize> {
    Ok(std::fs::read_dir(format!("/proc/{pid}/task"))?.count())
}

/// Sends `sig` to a child process.
pub fn signal(child: &Child, sig: i32) {
    // SAFETY: kill(2) takes plain integers; a stale pid at worst yields
    // ESRCH, which is ignored.
    unsafe {
        kill(child.id() as i32, sig);
    }
}

/// What a reaped child used: exit status, CPU seconds, peak RSS in MiB.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    pub success: bool,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Waits for `child` to exit and reaps it with `wait4(2)`, which returns
/// that one child's resource usage. The `Child` must not be waited on
/// afterwards.
pub fn wait_reaped(child: &Child) -> io::Result<Reaped> {
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: both pointers are to live, writable locals of the types
        // wait4 expects (`int` and `struct rusage`).
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    // Exited normally with code 0: WIFEXITED and WEXITSTATUS == 0.
    Ok(Reaped {
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        cpu_s: secs(usage.utime) + secs(usage.stime),
        peak_rss_mb: usage.rest[0] as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_command_with_spaces_and_parens() {
        let stat = "4242 (bbs (serve) x) S 1 4242 4242 0 -1 4194560 9 0 0 0 \
                    150 25 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_ticks(stat), Some(175));
        assert_eq!(parse_stat_ticks("4242 (short) S 1"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbbs\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12288));
        assert_eq!(parse_vm_hwm_kb("Name:\tbbs\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.5);
        assert!(thread_count(pid).unwrap() >= 1);
    }

    #[test]
    #[allow(clippy::zombie_processes)] // wait_reaped reaps them with wait4
    fn reaping_reports_a_child_cpu_and_memory() {
        let child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .unwrap();
        let reaped = wait_reaped(&child).unwrap();
        assert!(reaped.success);
        assert!(reaped.cpu_s > 0.0, "{reaped:?}");
        assert!(reaped.peak_rss_mb > 0.0, "{reaped:?}");
        let failing = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .unwrap();
        assert!(!wait_reaped(&failing).unwrap().success);
    }
}
