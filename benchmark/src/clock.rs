//! The reference clock: how fast this machine's cores are right now,
//! and the rule that restates a measured time at a fixed speed.
//!
//! The sandbox the benchmark runs in gets a few cores of a shared host,
//! and how fast those cores execute moves by a factor of 1.4 between
//! stretches that last from tens of seconds to minutes (README, "The
//! reference clock"). A run that keeps the cores busy takes that much
//! longer, in wall-clock and in the CPU time it is charged; a run that
//! mostly sleeps is served at once when it wakes and hardly notices.
//! So beside every run the benchmark times a fixed piece of arithmetic
//! on every core, and reports the run's times as they would read with
//! the cores at the speed at which that arithmetic takes
//! [`REFERENCE_MS`].

use crate::sys;
use std::time::Instant;

/// What [`calibrate`] reads at the reference speed: the middle of what
/// it reads on the sandbox this was written on (4.2 ms in the host's
/// fast stretches, 6 ms in its slow ones), so the reported times are
/// close to wall-clock there.
pub const REFERENCE_MS: f64 = 5.0;

/// Steps of [`spin`]: about [`REFERENCE_MS`] on the sandbox.
const SPIN_STEPS: u64 = 3_000_000;

/// The fixed arithmetic: a chain of dependent integer multiplies and
/// xors folded into a float sum, the kind of work the executors' field
/// generation and verification do. The benchmark's own code, so that no
/// change to the program changes the yardstick.
fn spin() -> f64 {
    let t0 = Instant::now();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0.0f64;
    for i in 0..SPIN_STEPS {
        h = (h ^ i.wrapping_add(0x5851_F42D)).wrapping_mul(0x1000_0000_01b3);
        sum += (h >> 11) as f64;
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time the fixed arithmetic on every core at once; the mean over the
/// cores, in milliseconds.
pub fn calibrate() -> f64 {
    let others: Vec<_> = (1..sys::nproc())
        .map(|_| std::thread::spawn(spin))
        .collect();
    let mut total = spin();
    let n = others.len() + 1;
    for t in others {
        total += t.join().expect("the calibration thread cannot panic");
    }
    total / n as f64
}

/// The share of `wall_ms` during which the machine's cores were busy
/// with the measured work: its CPU time over what the cores could have
/// given in that time.
pub fn busy_share(cpu_ms: f64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        return 0.0;
    }
    (cpu_ms / (sys::nproc() as f64 * wall_ms)).clamp(0.0, 1.0)
}

/// A measured `time` (any unit) restated at the reference speed: the
/// busy share is scaled by how much faster or slower than the reference
/// the cores were (`calib_ms` is [`calibrate`] taken beside the
/// measurement), the rest — waiting, sleeping — is left as measured.
pub fn at_reference(time: f64, busy: f64, calib_ms: f64) -> f64 {
    time * (1.0 - busy) + time * busy * (REFERENCE_MS / calib_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_busy_share_is_rescaled() {
        // Cores at the reference speed: nothing changes.
        assert_eq!(at_reference(100.0, 0.7, REFERENCE_MS), 100.0);
        // Cores twice as slow: a fully busy run halves, an idle one
        // stays, a half-busy one loses a quarter.
        assert_eq!(at_reference(100.0, 1.0, 2.0 * REFERENCE_MS), 50.0);
        assert_eq!(at_reference(100.0, 0.0, 2.0 * REFERENCE_MS), 100.0);
        assert_eq!(at_reference(100.0, 0.5, 2.0 * REFERENCE_MS), 75.0);
    }

    #[test]
    fn busy_share_is_cpu_over_what_the_cores_could_give() {
        let n = sys::nproc() as f64;
        assert_eq!(busy_share(50.0 * n, 100.0), 0.5);
        assert_eq!(busy_share(500.0 * n, 100.0), 1.0);
        assert_eq!(busy_share(10.0, 0.0), 0.0);
    }

    #[test]
    fn calibration_reads_a_time() {
        assert!(calibrate() > 0.0);
    }
}
