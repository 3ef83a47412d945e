//! CPU time of this process and of the calling thread.
//!
//! Both clocks read the kernel's per-task run-time accounting, which
//! leaves out time the task waited for a core: time other threads of
//! this host ran, and on a guest with steal-time accounting, time the
//! hypervisor gave to other guests. A figure built on them moves with
//! the work the program does, not with how busy the host is.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the 64-bit
    // Linux layout, and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds of CPU every thread of this process has used so far.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds of CPU the calling thread has used so far.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 20 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let (dp, dt) = (process_s() - p0, thread_s() - t0);
        assert!(dt > 0.005, "thread clock moved {dt} s over 20 ms of work");
        assert!(dp >= dt, "process clock {dp} s behind thread clock {dt} s");
    }
}
