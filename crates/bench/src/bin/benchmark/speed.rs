//! Host speed: a fixed kernel, timed just before every measured solve and
//! set-up, so that each time can be reported at one reference speed.
//!
//! On the 2-vCPU reference host the same code runs at speeds up to 2×
//! apart, switching within a second and sometimes staying slow for a
//! whole run; the hypervisor reports no steal time, so the slow phases
//! cannot be subtracted out. Taking each hour's fastest pass read a run's fast
//! phases but not a run that had none: across ten seeds `ms_per_iter`
//! spread 0.07–0.16 per workload. This module's kernel slows with the
//! solver (their slowdowns correlate at 0.84 over 4406 paired samples),
//! so a solve's wall time times [`REFERENCE_PROBE_NS`] over the kernel's
//! time next to it is what the solve would have taken at the reference
//! speed; on the same runs that spread fell to 0.01–0.03.
//!
//! The kernel is this benchmark's own code, so a change to the
//! repository cannot move it: a slower solver still reads slower.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time at the reference host's fast speed (its 1st
/// percentile over the runs that calibrated the benchmark). Times are
/// reported as if the probe had taken this long next to them.
pub const REFERENCE_PROBE_NS: f64 = 200_000.0;

/// Order of the kernel's matrix: small dense factorizations, as in the
/// solver's QP subproblems.
const N: usize = 32;
/// Factorizations per probe: about 0.2 ms at the reference speed.
const REPS: usize = 40;

/// Times the kernel once: `REPS` Cholesky factorizations of a fixed
/// 32 × 32 SPD matrix, each followed by a forward solve.
pub fn probe() -> Duration {
    let start = Instant::now();
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            a[i * N + j] = 1.0 / (1.0 + i.abs_diff(j) as f64);
        }
        a[i * N + i] += N as f64;
    }
    let b: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    let mut acc = 0.0;
    for _ in 0..REPS {
        let mut l = black_box(a.clone());
        for j in 0..N {
            let mut d = l[j * N + j];
            for k in 0..j {
                d -= l[j * N + k] * l[j * N + k];
            }
            let d = d.sqrt();
            l[j * N + j] = d;
            for i in j + 1..N {
                let mut s = l[i * N + j];
                for k in 0..j {
                    s -= l[i * N + k] * l[j * N + k];
                }
                l[i * N + j] = s / d;
            }
        }
        let mut y = b.clone();
        for i in 0..N {
            for k in 0..i {
                y[i] -= l[i * N + k] * y[k];
            }
            y[i] /= l[i * N + i];
        }
        acc += y[N - 1];
    }
    black_box(acc);
    start.elapsed()
}

/// How many times faster the reference speed is than the speed at which
/// the probe took `probe`.
pub fn factor(probe: Duration) -> f64 {
    REFERENCE_PROBE_NS / probe.as_nanos().max(1) as f64
}

/// `elapsed` at the reference speed, in seconds, given the probe's time
/// measured next to it.
pub fn at_reference_s(elapsed: Duration, probe: Duration) -> f64 {
    elapsed.as_secs_f64() * factor(probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_probe() {
        let ref_probe = Duration::from_nanos(REFERENCE_PROBE_NS as u64);
        let ms = Duration::from_millis;
        assert_eq!(at_reference_s(ms(3), ref_probe), 0.003);
        // A probe twice as slow as the reference halves the time.
        assert_eq!(at_reference_s(ms(3), ref_probe * 2), 0.0015);
        assert!(probe() > Duration::ZERO);
    }
}
