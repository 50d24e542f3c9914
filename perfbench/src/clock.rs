//! Host time as the benchmark thread's on-CPU time.
//!
//! Every measured run is single-threaded, and on a shared virtual
//! machine its wall time also counts the stretches the hypervisor ran
//! someone else (steal time): identical runs of `sched-3072` read from
//! 138 k to 355 k server-steps per wall second within half an hour.
//! The kernel's per-thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`) leaves
//! steal out when it accounts paravirtual time, so the end-to-end
//! timings are read from it; wall time is kept beside it for the one
//! comparison that needs it (plan 1 against plan 2, where the measuring
//! thread waits for its workers).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run so far.
///
/// # Panics
///
/// Panics if the kernel rejects the thread CPU clock, which Linux has
/// supported since 2.6.12.
#[must_use]
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // on 64-bit Linux is two 64-bit signed integers — exactly
    // `Timespec` — through a pointer to a live, writable local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("nanoseconds fit in u32");
    Duration::new(secs, nanos)
}

/// Measures an interval on both the thread CPU clock and the wall
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: Duration,
    wall: Instant,
}

impl Stopwatch {
    /// Starts both clocks.
    #[must_use]
    pub fn start() -> Self {
        Self {
            cpu: thread_cpu(),
            wall: Instant::now(),
        }
    }

    /// Thread CPU time since [`start`](Self::start) — the host time
    /// every end-to-end metric is measured in.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        thread_cpu().saturating_sub(self.cpu)
    }

    /// Wall time since [`start`](Self::start).
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.wall.elapsed()
    }
}

/// Elements of the reference kernel's buffer (16 MiB of `f64`): past
/// the private caches, inside the shared last-level cache, so the kernel
/// feels the same cache and memory contention the simulator does.
const BUFFER_LEN: usize = 2 << 20;

/// Thread CPU milliseconds of one pass of a fixed reference kernel that
/// shares no code with the simulator: a streaming sum over a 16 MiB
/// buffer and a chain of dependent floating-point operations.
#[must_use]
pub fn reference_ms() -> f64 {
    static BUFFER: OnceLock<Vec<f64>> = OnceLock::new();
    let buffer = BUFFER.get_or_init(|| (0..BUFFER_LEN).map(|i| (i % 1_000) as f64).collect());
    let watch = Stopwatch::start();
    let mut acc = std::hint::black_box(buffer).iter().sum::<f64>();
    for _ in 0..500_000 {
        acc = std::hint::black_box(acc * 1.000_000_1 + 1e-9);
    }
    std::hint::black_box(acc);
    watch.elapsed().as_secs_f64() * 1e3
}

/// [`reference_ms`] on the reference machine (2-core Xeon VM) in a
/// quiet phase.
pub const REFERENCE_MS: f64 = 5.0;

/// Passes of [`reference_ms`] per [`calibrate`] call.
const PASSES: usize = 5;

/// Appends [`PASSES`] timings of the reference kernel to `samples`.
pub fn calibrate(samples: &mut Vec<f64>) {
    samples.extend((0..PASSES).map(|_| reference_ms()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_appends_positive_timings() {
        let mut samples = Vec::new();
        calibrate(&mut samples);
        assert_eq!(samples.len(), PASSES);
        assert!(samples.iter().all(|&ms| ms > 0.0 && ms.is_finite()));
    }

    #[test]
    fn cpu_clock_advances_with_work_but_not_with_sleep() {
        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(30));
        let slept = watch.elapsed();
        assert!(watch.wall() >= Duration::from_millis(30));
        assert!(slept < Duration::from_millis(20), "sleeping used {slept:?}");

        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.wall() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(watch.elapsed() > Duration::from_millis(5));
    }
}
