//! Congestion (queueing-delay) cost — an extension beyond the paper.
//!
//! The paper argues propagation latency "overweighs other factors such as
//! queuing or processing delays" and drops them (§II-B3). This module makes
//! the dropped term available as an opt-in: each datacenter is charged for
//! the M/M/1-style mean delay its utilization induces,
//!
//! ```text
//! Q_j(load) = weight · load · d₀ / (1 − load/S_j),
//! ```
//!
//! i.e. `load` kilo-servers of requests each experiencing the
//! `d₀/(1 − u)` congestion delay, monetized like the latency utility. The
//! function is convex and increasing on `u ∈ [0, 1)` with unbounded
//! curvature at capacity. Only its [`QueueingCost::derivative`] enters the
//! a-sub-problem's exact kernel (`ufc-core`'s `AColQp`): the column keeps
//! the quadratic column's form `a_i = max(0, x_i − τ)`, with
//! `τ = β²s + Q′(s)/ρ` at the column's load `s`, which a bisection finds
//! below [`QueueingCost::load_cap`].
//!
//! The barrier also slows the outer splitting: congested instances converge
//! noticeably faster with a larger ADM-G penalty (ρ ≈ 4–8) and deserve a
//! higher iteration cap than the paper-default settings.

use crate::{ModelError, Result};

/// Parameters of the per-datacenter congestion cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingCost {
    /// Mean service delay of an empty datacenter, `d₀`, in seconds.
    pub base_delay_s: f64,
    /// Monetization weight in $ per kilo-server·second (per slot).
    pub weight: f64,
    /// Hard utilization ceiling `< 1`: the optimizer keeps every
    /// datacenter's load below `max_utilization · S_j` so the delay stays
    /// finite (default 0.98).
    pub max_utilization: f64,
}

impl QueueingCost {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] unless `base_delay_s > 0`,
    /// `weight ≥ 0`, and `0 < max_utilization < 1`.
    pub fn new(base_delay_s: f64, weight: f64, max_utilization: f64) -> Result<Self> {
        if base_delay_s <= 0.0 {
            return Err(ModelError::param(format!(
                "base delay must be positive, got {base_delay_s}"
            )));
        }
        if weight < 0.0 {
            return Err(ModelError::param(format!(
                "queueing weight cannot be negative, got {weight}"
            )));
        }
        if !(0.0 < max_utilization && max_utilization < 1.0) {
            return Err(ModelError::param(format!(
                "max utilization must be in (0, 1), got {max_utilization}"
            )));
        }
        Ok(QueueingCost {
            base_delay_s,
            weight,
            max_utilization,
        })
    }

    /// A plausible default: 2 ms empty-system delay, the same monetization
    /// scale as the paper's latency weight, 98% ceiling.
    ///
    /// # Panics
    ///
    /// Never (the constants are valid).
    #[must_use]
    pub fn default_interactive() -> Self {
        QueueingCost::new(0.002, 1e4, 0.98).expect("constants are valid")
    }

    /// Congestion cost in $ for `load_k` kilo-servers routed to a
    /// datacenter of `capacity_k` kilo-servers; `+∞` at or beyond the
    /// utilization ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_k <= 0` or `load_k < 0`.
    #[must_use]
    pub fn value(&self, load_k: f64, capacity_k: f64) -> f64 {
        assert!(capacity_k > 0.0, "capacity must be positive");
        assert!(load_k >= 0.0, "load cannot be negative");
        let u = load_k / capacity_k;
        if u >= self.max_utilization {
            return f64::INFINITY;
        }
        self.weight * load_k * self.base_delay_s / (1.0 - u)
    }

    /// Derivative of [`QueueingCost::value`] with respect to the load:
    /// `weight·d₀/(1 − u)²`.
    ///
    /// # Panics
    ///
    /// As for [`QueueingCost::value`].
    #[must_use]
    pub fn derivative(&self, load_k: f64, capacity_k: f64) -> f64 {
        assert!(capacity_k > 0.0, "capacity must be positive");
        assert!(load_k >= 0.0, "load cannot be negative");
        let u = load_k / capacity_k;
        if u >= self.max_utilization {
            return f64::INFINITY;
        }
        self.weight * self.base_delay_s / ((1.0 - u) * (1.0 - u))
    }

    /// The largest load (kilo-servers) the ceiling admits at the given
    /// capacity, shrunk by a small safety margin so projected iterates stay
    /// strictly inside the barrier's domain.
    #[must_use]
    pub fn load_cap(&self, capacity_k: f64) -> f64 {
        self.max_utilization * capacity_k * (1.0 - 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_derivative() {
        let q = QueueingCost::new(0.002, 1e4, 0.98).unwrap();
        // At half utilization: cost = w·load·d0/(0.5) = 2·w·load·d0.
        let v = q.value(1.0, 2.0);
        assert!((v - 1e4 * 1.0 * 0.002 * 2.0).abs() < 1e-9);
        // Derivative = w·d0/(0.5)² = 4·w·d0.
        let d = q.derivative(1.0, 2.0);
        assert!((d - 1e4 * 0.002 * 4.0).abs() < 1e-9);
        // Empty system: cost 0, derivative w·d0.
        assert_eq!(q.value(0.0, 2.0), 0.0);
        assert!((q.derivative(0.0, 2.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_beyond_ceiling() {
        let q = QueueingCost::new(0.002, 1e4, 0.9).unwrap();
        assert!(q.value(1.9, 2.0).is_infinite());
        assert!(q.derivative(1.85, 2.0).is_infinite());
        assert!(q.value(1.7, 2.0).is_finite());
        assert!(q.load_cap(2.0) < 1.8);
    }

    #[test]
    fn convex_and_increasing() {
        let q = QueueingCost::default_interactive();
        let cap = 10.0;
        let mut last_v = -1.0;
        let mut last_d = -1.0;
        for k in 0..9 {
            let load = k as f64;
            let v = q.value(load, cap);
            let d = q.derivative(load, cap);
            assert!(v > last_v, "value not increasing at {load}");
            assert!(d > last_d, "derivative not increasing at {load}");
            last_v = v;
            last_d = d;
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let q = QueueingCost::default_interactive();
        let (load, cap, h) = (3.0, 10.0, 1e-6);
        let fd = (q.value(load + h, cap) - q.value(load - h, cap)) / (2.0 * h);
        let d = q.derivative(load, cap);
        assert!((fd - d).abs() / d < 1e-6, "fd {fd} vs analytic {d}");
    }

    #[test]
    fn validation() {
        assert!(QueueingCost::new(0.0, 1.0, 0.9).is_err());
        assert!(QueueingCost::new(0.002, -1.0, 0.9).is_err());
        assert!(QueueingCost::new(0.002, 1.0, 1.0).is_err());
        assert!(QueueingCost::new(0.002, 1.0, 0.0).is_err());
    }
}
