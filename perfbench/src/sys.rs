//! Process clocks and memory readings (Linux).
//!
//! CPU time comes from the POSIX CPU-time clocks, so the sender thread's
//! share can be subtracted exactly; memory and thread counts come from
//! `/proc/self/status`.

use std::os::unix::thread::RawPthread;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: RawPthread, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: the one clock every
/// timestamp of a run (due, receive, seal, ..., apply) is taken on.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn own_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU-time clock of a running thread.
pub fn thread_cpu_clock(thread: RawPthread) -> i32 {
    let mut clock = 0i32;
    // SAFETY: `thread` is a live pthread handle (its JoinHandle is held by
    // the caller) and `clock` is a valid out-pointer.
    let rc = unsafe { pthread_getcpuclockid(thread, &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    clock
}

/// CPU time consumed so far by the thread owning `clock`.
pub fn thread_cpu_ns(clock: i32) -> u64 {
    read_clock(clock)
}

fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Threads currently alive in the process.
pub fn thread_count() -> u64 {
    status_field("Threads:")
}
