//! Exact Euclidean projections onto the constraint sets of the UFC problem.
//!
//! The ADM-G sub-problems are constrained by (i) per-front-end load-balance
//! simplices `{λ ≥ 0, Σλ = A_i}`, (ii) per-datacenter capped simplices
//! `{a ≥ 0, Σa ≤ S_j}`, and (iii) boxes `0 ≤ μ ≤ μᵐᵃˣ`. These projections
//! are the workhorses of the FISTA path and of feasibility repair.

/// Euclidean projection of `x` onto the scaled simplex `{y ≥ 0, Σy = s}`.
///
/// Implements the sort-based algorithm of Held/Wolfe/Crowder (also Duchi et
/// al. 2008) in `O(n log n)`.
///
/// # Panics
///
/// Panics if `s < 0` or `x` is empty.
#[must_use]
pub fn project_simplex(x: &[f64], s: f64) -> Vec<f64> {
    assert!(s >= 0.0, "simplex radius must be nonnegative, got {s}");
    assert!(!x.is_empty(), "cannot project an empty vector");
    let mut u = x.to_vec();
    // `total_cmp` keeps the sort total even if a NaN sneaks in upstream:
    // the projection then degrades gracefully instead of aborting the
    // whole solve, and the driver's divergence gate flags the iterate.
    u.sort_by(|a, b| b.total_cmp(a));
    match simplex_threshold(&u, s) {
        Some(theta) => x.iter().map(|&v| (v - theta).max(0.0)).collect(),
        // Keep the degrade-gracefully promise above: a fully poisoned
        // vector for the divergence gate to flag, rather than an assert.
        None => vec![f64::NAN; x.len()],
    }
}

/// The Held/Wolfe/Crowder threshold θ of the projection onto the scaled
/// simplex `{y ≥ 0, Σy = s}`, given the entries of `x` sorted in
/// **descending** order: the projection is `max(x_i − θ, 0)`.
///
/// θ belongs to the largest `k` with `u_k − (Σ_{i≤k} u_i − s)/k ≥ 0`. The
/// scan is `O(n)`; [`project_simplex`] and the ADM-G block kernels share
/// it, so they compute the same θ from the same sorted entries.
///
/// Returns `None` when no pivot exists, which for finite inputs is
/// impossible (the first candidate evaluates to `s ≥ 0`) and otherwise
/// means the largest entry is NaN.
#[must_use]
pub fn simplex_threshold(desc: &[f64], s: f64) -> Option<f64> {
    let mut cssv = 0.0;
    let mut theta = None;
    for (k, &uk) in desc.iter().enumerate() {
        cssv += uk;
        let t = (cssv - s) / (k + 1) as f64;
        // `>=` (rather than the textbook strict `>`) makes the degenerate
        // radius s = 0 well-defined: the first pivot then satisfies
        // u₀ − t = s = 0 and θ = u₀ clamps every coordinate to zero.
        if uk - t >= 0.0 {
            theta = Some(t);
        }
    }
    theta
}

/// Euclidean projection of `x` onto the capped simplex `{y ≥ 0, Σy ≤ cap}`.
///
/// If clamping to the nonnegative orthant already satisfies the cap, that is
/// the projection; otherwise the constraint is tight and the problem reduces
/// to [`project_simplex`] with `s = cap`.
///
/// # Panics
///
/// Panics if `cap < 0` or `x` is empty.
#[must_use]
pub fn project_capped_simplex(x: &[f64], cap: f64) -> Vec<f64> {
    assert!(cap >= 0.0, "cap must be nonnegative, got {cap}");
    assert!(!x.is_empty(), "cannot project an empty vector");
    let clamped: Vec<f64> = x.iter().map(|&v| v.max(0.0)).collect();
    if clamped.iter().sum::<f64>() <= cap {
        clamped
    } else {
        project_simplex(x, cap)
    }
}

/// Euclidean projection onto the box `[lo_i, hi_i]` per coordinate.
///
/// # Panics
///
/// Panics if lengths differ or any `lo_i > hi_i`.
#[must_use]
pub fn project_box(x: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), lo.len(), "project_box: lo length mismatch");
    assert_eq!(x.len(), hi.len(), "project_box: hi length mismatch");
    x.iter()
        .zip(lo.iter().zip(hi))
        .map(|(&v, (&l, &h))| {
            assert!(l <= h, "project_box: empty interval [{l}, {h}]");
            v.clamp(l, h)
        })
        .collect()
}

/// Euclidean projection onto the nonnegative orthant.
#[must_use]
pub fn project_nonneg(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// Scalar clamp onto `[lo, hi]` — the 1-D box projection used by the paper's
/// closed-form μ-update (Eq. after (18)).
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn clamp_scalar(x: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "clamp_scalar: empty interval [{lo}, {hi}]");
    x.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn simplex_point_already_feasible() {
        let x = [0.2, 0.3, 0.5];
        let p = project_simplex(&x, 1.0);
        for (a, b) in p.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_uniform_from_equal_entries() {
        let p = project_simplex(&[5.0, 5.0, 5.0, 5.0], 2.0);
        for v in &p {
            assert!((v - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_handles_negatives() {
        let p = project_simplex(&[1.0, -10.0], 1.0);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn simplex_sum_and_nonneg_invariants() {
        let p = project_simplex(&[3.0, -1.0, 0.5, 2.2, -0.7], 4.0);
        assert!((sum(&p) - 4.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn simplex_zero_radius() {
        let p = project_simplex(&[1.0, 2.0], 0.0);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn simplex_is_idempotent() {
        let p = project_simplex(&[0.9, -0.4, 1.8], 1.5);
        let pp = project_simplex(&p, 1.5);
        for (a, b) in p.iter().zip(&pp) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn simplex_negative_radius_panics() {
        let _ = project_simplex(&[1.0], -1.0);
    }

    /// A NaN-poisoned iterate (e.g. from unverified wire corruption) must
    /// degrade to a poisoned projection for the divergence gate to flag —
    /// never abort the process, even in debug builds.
    #[test]
    fn simplex_nan_input_degrades_without_panicking() {
        let p = project_simplex(&[f64::NAN, f64::NAN, f64::NAN], 1.0);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|v| v.is_nan()));
        let q = project_simplex(&[f64::NAN, 0.25], 1.0);
        assert_eq!(q.len(), 2);
        let c = project_capped_simplex(&[f64::NAN, f64::NAN], 1.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capped_simplex_loose_cap_is_clamp() {
        let p = project_capped_simplex(&[0.5, -0.5], 10.0);
        assert_eq!(p, vec![0.5, 0.0]);
    }

    #[test]
    fn capped_simplex_tight_cap_hits_simplex() {
        let p = project_capped_simplex(&[3.0, 3.0], 2.0);
        assert!((sum(&p) - 2.0).abs() < 1e-12);
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capped_simplex_zero_cap() {
        let p = project_capped_simplex(&[1.0, 2.0], 0.0);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    fn box_projection_clamps_each_coordinate() {
        let p = project_box(&[-1.0, 0.5, 9.0], &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(p, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn box_rejects_inverted_bounds() {
        let _ = project_box(&[0.0], &[1.0], &[0.0]);
    }

    #[test]
    fn nonneg_and_scalar_clamp() {
        assert_eq!(project_nonneg(&[-1.0, 2.0]), vec![0.0, 2.0]);
        assert_eq!(clamp_scalar(5.0, 0.0, 3.0), 3.0);
        assert_eq!(clamp_scalar(-5.0, 0.0, 3.0), 0.0);
        assert_eq!(clamp_scalar(1.0, 0.0, 3.0), 1.0);
    }

    /// Brute-force check of the variational inequality that characterizes a
    /// Euclidean projection: ⟨x − p, y − p⟩ ≤ 0 for all feasible y.
    #[test]
    fn simplex_projection_satisfies_variational_inequality() {
        let x = [2.0, -0.3, 0.7];
        let p = project_simplex(&x, 1.0);
        // Sample feasible points: vertices and midpoints of the simplex.
        let candidates: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.0],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ];
        for y in candidates {
            let ip: f64 = x
                .iter()
                .zip(&p)
                .zip(&y)
                .map(|((xi, pi), yi)| (xi - pi) * (yi - pi))
                .sum();
            assert!(ip <= 1e-10, "VI violated for candidate {y:?}: {ip}");
        }
    }
}
