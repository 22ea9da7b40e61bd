/// Hyper-parameters of the distributed 4-block ADM-G algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmgSettings {
    /// Augmented-Lagrangian penalty ρ. The paper's simulations use 0.3.
    pub rho: f64,
    /// Gaussian back-substitution relaxation ε ∈ (0.5, 1].
    pub epsilon: f64,
    /// Iteration cap for the outer ADM-G loop.
    pub max_iterations: usize,
    /// Convergence tolerance on the link residual `max|λ_ij − a_ij|`
    /// (kilo-servers).
    pub eps_link: f64,
    /// Convergence tolerance on the power-balance residual
    /// `max_j |α_j + β_j·Σa_ij − μ_j − ν_j|` (MW).
    pub eps_balance: f64,
    /// Convergence tolerance on the dual residual (∞-norm of the scaled
    /// iterate movement).
    pub eps_dual: f64,
    /// Worker threads for the per-block prediction phases (`0` = use all
    /// available cores, `1` = sequential). Per-block results are gathered in
    /// a fixed order, so every thread count produces bit-identical iterates.
    pub num_threads: usize,
    /// Collect a [`crate::telemetry::RunTelemetry`] snapshot (per-phase
    /// wall-clock histograms plus solver/traffic/fault counters) and attach
    /// it to the solution/report. Telemetry is strictly observational —
    /// timing reads never feed back into the numerics, so enabling it keeps
    /// the iterate stream bit-identical; disabling it (the default) removes
    /// every clock read from the driver loop.
    pub telemetry: bool,
    /// Residual-explosion factor κ of the divergence gate in
    /// [`crate::engine::drive`]: the gate arms once the combined residual
    /// exceeds `κ ×` the best residual seen so far. Purely observational on
    /// healthy runs — it reads residuals the driver already computed.
    pub divergence_kappa: f64,
    /// Patience window K of the divergence gate: the residual must stay
    /// above `κ × best` for this many *consecutive* iterations before the
    /// gate trips with a typed [`crate::CoreError::Divergence`]. Non-finite
    /// residuals trip immediately regardless of the window.
    pub divergence_window: usize,
    /// When the divergence gate trips, ask the transport to roll the
    /// iterate back to its last finite checkpoint (PR 1 snapshot machinery)
    /// instead of failing. Transports without checkpoints decline and the
    /// typed error is returned as usual. Off by default.
    pub divergence_rollback: bool,
}

impl Default for AdmgSettings {
    /// `ρ = 1.0`, `ε = 0.9`, residual tolerances of `1e-3` in the natural
    /// units (kilo-servers / MW), a 2000-iteration cap, and one thread.
    ///
    /// The paper's §IV-A uses `ρ = 0.3` with workload counted in *servers*;
    /// this implementation counts kilo-servers and MW, which rescales the
    /// convergence-equivalent penalty. On the default scenario's 168 hours
    /// `ρ = 1.0` takes 24–414 iterations (median 66, 88.1 % within 100)
    /// against the paper's Fig.-11 range of about 37–130; EXPERIMENTS.md
    /// compares the two CDFs. Use [`AdmgSettings::paper_verbatim`] for the
    /// literal 0.3.
    fn default() -> Self {
        AdmgSettings {
            rho: 1.0,
            epsilon: 0.9,
            max_iterations: 2000,
            eps_link: 1e-3,
            eps_balance: 1e-3,
            eps_dual: 1e-3,
            num_threads: 1,
            telemetry: false,
            divergence_kappa: 1e6,
            divergence_window: 25,
            divergence_rollback: false,
        }
    }
}

impl AdmgSettings {
    /// The paper's literal hyper-parameters (`ρ = 0.3`): converges to the
    /// same optimum, with roughly 2× the iterations of [`Default`] under
    /// this implementation's unit normalization.
    #[must_use]
    pub fn paper_verbatim() -> Self {
        AdmgSettings {
            rho: 0.3,
            ..AdmgSettings::default()
        }
    }

    /// Validates the hyper-parameters, returning a typed error.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] if `rho <= 0`,
    /// `epsilon ∉ (0.5, 1]` (the ADM-G requirement), any tolerance is
    /// nonpositive, or the iteration cap is zero.
    pub fn check(&self) -> Result<(), crate::CoreError> {
        if self.rho.is_nan() || self.rho <= 0.0 {
            return Err(crate::CoreError::invalid_config(format!(
                "rho must be positive, got {}",
                self.rho
            )));
        }
        if !(self.epsilon > 0.5 && self.epsilon <= 1.0) {
            return Err(crate::CoreError::invalid_config(format!(
                "ADM-G requires epsilon in (0.5, 1], got {}",
                self.epsilon
            )));
        }
        if self.max_iterations == 0 {
            return Err(crate::CoreError::invalid_config(
                "need at least one iteration",
            ));
        }
        if !(self.eps_link > 0.0 && self.eps_balance > 0.0 && self.eps_dual > 0.0) {
            return Err(crate::CoreError::invalid_config(
                "tolerances must be positive",
            ));
        }
        // `<=` alone would wave NaN through (it compares false), so pair
        // the range check with an explicit finiteness test.
        if self.divergence_kappa <= 1.0 || !self.divergence_kappa.is_finite() {
            return Err(crate::CoreError::invalid_config(format!(
                "divergence kappa must be finite and > 1, got {}",
                self.divergence_kappa
            )));
        }
        if self.divergence_window == 0 {
            return Err(crate::CoreError::invalid_config(
                "divergence window must be at least one iteration",
            ));
        }
        Ok(())
    }

    /// Validates the hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rho <= 0`, `epsilon ∉ (0.5, 1]` (the ADM-G requirement),
    /// any tolerance is nonpositive, or the iteration cap is zero. See
    /// [`AdmgSettings::check`] for the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Scale-relative stopping thresholds for an instance (Boyd et al.
    /// §3.3): routing residuals are compared against the largest arrival,
    /// power residuals against the largest peak demand. Returns
    /// `(link_tol, balance_tol, dual_tol)`. Used identically by the
    /// in-memory solver and the distributed runtime so their stopping
    /// decisions coincide.
    #[must_use]
    pub fn scaled_tolerances(&self, instance: &ufc_model::UfcInstance) -> (f64, f64, f64) {
        let a_scale = 1.0 + instance.arrivals.iter().cloned().fold(0.0f64, f64::max);
        let p_scale = 1.0
            + (0..instance.n_datacenters())
                .map(|j| instance.demand_mw(j, instance.capacities[j]))
                .fold(0.0f64, f64::max);
        (
            self.eps_link * a_scale,
            self.eps_balance * p_scale,
            self.eps_dual * a_scale.max(p_scale),
        )
    }

    /// Returns a copy with a different penalty ρ (ablation studies).
    #[must_use]
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Returns a copy with a different relaxation ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy using the given worker-thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Returns `self` unchanged. The rank-1 KKT kernel this toggled is
    /// gone: every λ- and a-block QP is solved by the exact breakpoint
    /// kernels [`crate::LambdaQp`] and [`crate::AColQp`]. Kept only for the benchmark
    /// package, which still calls it; it retires with the next benchmark
    /// change.
    #[must_use]
    pub fn with_rank1_kkt(self, _enabled: bool) -> Self {
        self
    }

    /// Returns `self` unchanged, like [`Self::with_rank1_kkt`]: the blocked
    /// KKT factorizations this toggled are gone with the KKT systems.
    #[must_use]
    pub fn with_blocked_factorizations(self, _enabled: bool) -> Self {
        self
    }

    /// Returns a copy with run-telemetry collection toggled.
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Returns a copy with the divergence gate's explosion factor κ and
    /// patience window K replaced.
    #[must_use]
    pub fn with_divergence_gate(mut self, kappa: f64, window: usize) -> Self {
        self.divergence_kappa = kappa;
        self.divergence_window = window;
        self
    }

    /// Returns a copy with checkpoint rollback on divergence toggled.
    #[must_use]
    pub fn with_divergence_rollback(mut self, enabled: bool) -> Self {
        self.divergence_rollback = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let s = AdmgSettings::default();
        assert_eq!(s.rho, 1.0);
        assert_eq!(AdmgSettings::paper_verbatim().rho, 0.3);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_small_epsilon() {
        AdmgSettings::default().with_epsilon(0.5).validate();
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_nonpositive_rho() {
        AdmgSettings::default().with_rho(0.0).validate();
    }

    #[test]
    fn check_returns_typed_errors() {
        assert!(AdmgSettings::default().check().is_ok());
        let err = AdmgSettings::default().with_rho(-1.0).check().unwrap_err();
        assert!(matches!(err, crate::CoreError::InvalidConfig { .. }));
        let err = AdmgSettings::default()
            .with_epsilon(0.2)
            .check()
            .unwrap_err();
        assert!(err.to_string().contains("epsilon"));
        let s = AdmgSettings {
            max_iterations: 0,
            ..AdmgSettings::default()
        };
        assert!(s.check().is_err());
        let s = AdmgSettings {
            eps_link: 0.0,
            ..AdmgSettings::default()
        };
        assert!(s.check().is_err());
    }

    #[test]
    fn builder_methods() {
        let s = AdmgSettings::default()
            .with_rho(1.0)
            .with_epsilon(0.8)
            .with_threads(4);
        assert_eq!(s.rho, 1.0);
        assert_eq!(s.epsilon, 0.8);
        assert_eq!(s.num_threads, 4);
        s.validate();
    }

    #[test]
    fn default_is_sequential_with_caching() {
        // The block kernels keep no state to cache or warm-start; only the
        // width is a setting.
        assert_eq!(AdmgSettings::default().num_threads, 1);
    }

    /// The exact block kernels are the only λ/a path, so they are on by
    /// default and the retired builders cannot turn them off.
    #[test]
    fn scaling_fast_paths_default_on() {
        let s = AdmgSettings::default();
        assert_eq!(s.with_rank1_kkt(false), s);
        assert_eq!(s.with_blocked_factorizations(false), s);
        s.validate();
    }

    #[test]
    fn default_integrity_knobs_preserve_legacy_behavior() {
        let s = AdmgSettings::default();
        assert!(!s.divergence_rollback, "rollback must default off");
        assert!(s.divergence_kappa >= 1e6);
        assert!(s.divergence_window >= 10);
    }

    #[test]
    fn integrity_builders_and_validation() {
        let s = AdmgSettings::default()
            .with_divergence_gate(1e3, 5)
            .with_divergence_rollback(true);
        assert_eq!(s.divergence_kappa, 1e3);
        assert_eq!(s.divergence_window, 5);
        assert!(s.divergence_rollback);
        s.validate();

        let err = AdmgSettings::default()
            .with_divergence_gate(1.0, 5)
            .check()
            .unwrap_err();
        assert!(err.to_string().contains("kappa"));
        let err = AdmgSettings::default()
            .with_divergence_gate(f64::NAN, 5)
            .check()
            .unwrap_err();
        assert!(err.to_string().contains("kappa"));
        let err = AdmgSettings::default()
            .with_divergence_gate(1e4, 0)
            .check()
            .unwrap_err();
        assert!(err.to_string().contains("window"));
    }
}
