//! Process resource readings: CPU time and peak resident set size.
//!
//! Both come from one `getrusage(RUSAGE_SELF)` call, so the benchmark
//! reads no file and needs no crate beyond the standard library (which
//! already links the C library).

use std::os::raw::{c_int, c_long};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which only `ru_maxrss` (KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

fn rusage(who: c_int) -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `RUsage` whose layout matches the
    // C `struct rusage` on 64-bit Linux (2 timevals + 14 longs), and
    // `getrusage` writes only within that struct.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    u
}

/// User + system CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    let u = rusage(RUSAGE_THREAD);
    let secs = |t: TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}
