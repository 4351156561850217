//! What the benchmark asks the operating system: CPU time and peak
//! resident set of this process and of the children it reaps, and the
//! facts about the machine every result file records.
//!
//! Linux only: it reads `/proc` and binds `getrusage`/`wait4` by hand,
//! the way `insitu_util::shm` binds `mmap` (the workspace has no libc
//! crate).

use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const WNOHANG: i32 = 1;

fn cpu_ms_of(u: &Rusage) -> f64 {
    let us = |t: Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    (us(u.utime) + us(u.stime)) / 1e3
}

fn rusage_cpu_ms(who: i32) -> f64 {
    let mut u = Rusage::default();
    // SAFETY: `u` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    cpu_ms_of(&u)
}

/// User + system CPU this process has used so far, in milliseconds.
pub fn self_cpu_ms() -> f64 {
    rusage_cpu_ms(RUSAGE_SELF)
}

/// User + system CPU of every child this process has reaped so far, in
/// milliseconds.
pub fn reaped_children_cpu_ms() -> f64 {
    rusage_cpu_ms(RUSAGE_CHILDREN)
}

/// What a reaped child cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    /// Whether it exited with status 0.
    pub success: bool,
    /// User + system CPU, milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
}

/// Reap `child` with `wait4`, which (unlike `Child::wait`) also returns
/// the child's own resource usage. Polls until `deadline`; a child
/// still running then is killed and reported as failed. Consumes the
/// handle: after `wait4` the pid is gone and must not be signalled.
pub fn reap(mut child: std::process::Child, deadline: Instant) -> ChildUsage {
    let pid = child.id() as i32;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut u = Rusage::default();
        // SAFETY: `status` and `u` are valid for writes; `pid` is a
        // child of this process that has not been waited on yet.
        let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut u) };
        if rc == pid {
            return ChildUsage {
                success: !killed && status == 0,
                cpu_ms: cpu_ms_of(&u),
                peak_rss_mib: u.maxrss_kib as f64 / 1024.0,
            };
        }
        if rc < 0 {
            // Not our child any more (already reaped): nothing to report.
            return ChildUsage::default();
        }
        if !killed && Instant::now() >= deadline {
            let _ = child.kill();
            killed = true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn proc_status_kib(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix(key))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set (`VmHWM`) of a live process, MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    proc_status_kib(pid, "VmHWM:").map(|kib| kib / 1024.0)
}

/// Restart this process's peak accounting at its current resident set,
/// so the next [`peak_rss_mib`] of it reads the peak since now (writing
/// 5 to `clear_refs` resets `VmHWM`). Where the kernel refuses, the
/// peak stays the process's lifetime high-water mark.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU of a live process from `/proc/<pid>/stat`, in
/// milliseconds. The kernel reports clock ticks; Linux fixes the
/// user-visible tick at 100 Hz.
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, 12th and 13th after `)`.
    let rest = text.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo` ("unknown" when absent).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-minute load average ("0" when unreadable).
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Names of `/dev/shm` segments created by `pid` that still exist.
pub fn shm_segments_of(pid: u32) -> Vec<String> {
    let dir = insitu_util::shm::segment_dir();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| insitu_util::shm::segment_pid(name) == Some(pid))
        .collect()
}
