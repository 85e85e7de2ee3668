//! Process plumbing: resident-memory high-water marks of this process
//! and of a child, and the machine's parallelism.

use std::process::Child;

/// Threads and connections the harness may use at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's resident high-water mark (`VmHWM`), MB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` in KB.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
pub struct Reaped {
    /// Exit code; `None` when a signal killed it.
    pub code: Option<i32>,
    /// The child's own resident high-water mark, MB.
    pub peak_rss_mb: f64,
}

/// Wait for `child` to exit and return its exit code and peak RSS. The
/// standard library's `wait` drops the kernel's resource report, so this
/// reaps through `wait4(2)`; `child` is consumed because its pid is no
/// longer waitable afterwards.
pub fn reap(child: Child) -> std::io::Result<Reaped> {
    let mut status = 0i32;
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `ru` are valid for writes for the whole call,
    // `Rusage` has the layout of the C struct on this target, and the
    // pid is a child of this process that nothing else waits on.
    let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if got < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let exited = status & 0x7f == 0;
    Ok(Reaped {
        code: exited.then_some((status >> 8) & 0xff),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    })
}
