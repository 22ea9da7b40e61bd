use ufc_model::{evaluate, OperatingPoint, UfcBreakdown, UfcInstance};

use crate::engine::{drive, HistoryRecorder, IterationObserver, IterationRecord};
use crate::pool::WorkerPool;
use crate::repair::assemble_point;
use crate::strategy::Strategy;
use crate::telemetry::{ObserverChain, RunTelemetry, TelemetryCollector};
use crate::workspace::InProcessTransport;
use crate::{AdmgSettings, AdmgState, CoreError, Result};

/// Output of one ADM-G run.
#[derive(Debug, Clone)]
pub struct AdmgSolution {
    /// Exactly feasible operating point (post-polish; see `repair`).
    pub point: OperatingPoint,
    /// UFC breakdown at [`AdmgSolution::point`].
    pub breakdown: UfcBreakdown,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether all three residual tests passed before the iteration cap.
    pub converged: bool,
    /// Residual/objective trajectory, one record per iteration.
    pub history: Vec<IterationRecord>,
    /// Raw final iterate (useful for warm starts and for the distributed
    /// runtime's equivalence tests).
    pub state: AdmgState,
    /// Run telemetry (phase timings plus solver counters), present iff
    /// [`AdmgSettings::telemetry`] was enabled. Strictly observational: the
    /// iterate stream is bit-identical whether or not this is collected.
    pub telemetry: Option<RunTelemetry>,
}

/// The distributed 4-block ADM-G solver (paper §III-C).
///
/// Each [`AdmgSolver::solve`] call runs the prediction (ADMM) step in the
/// forward order λ → μ → ν → a → duals and the Gaussian back-substitution
/// correction in the backward order, until the link, balance and dual
/// residuals all pass, then polishes the iterate into an exactly feasible
/// [`OperatingPoint`].
///
/// # Example
///
/// ```
/// use ufc_core::{AdmgSettings, AdmgSolver, Strategy};
/// use ufc_model::scenario::ScenarioBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = ScenarioBuilder::paper_default().hours(1).build()?;
/// let sol = AdmgSolver::new(AdmgSettings::default())
///     .solve(&scenario.instances[0], Strategy::Hybrid)?;
/// assert!(sol.converged);
/// assert!(sol.point.feasibility_residual(&scenario.instances[0]) < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdmgSolver {
    settings: AdmgSettings,
}

impl AdmgSolver {
    /// Creates a solver with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if the settings are invalid (see [`AdmgSettings::validate`]).
    #[must_use]
    pub fn new(settings: AdmgSettings) -> Self {
        settings.validate();
        AdmgSolver { settings }
    }

    /// The solver's hyper-parameters.
    #[must_use]
    pub fn settings(&self) -> &AdmgSettings {
        &self.settings
    }

    /// Runs ADM-G on `instance` under the given strategy restriction.
    ///
    /// Returns `Ok` with `converged = false` when the iteration cap is hit —
    /// the point is still polished and evaluable; use
    /// [`AdmgSolver::solve_strict`] to treat that as an error.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Unsupported`] if `Strategy::FuelCellOnly` is requested
    ///   but the fuel cells cannot cover peak demand.
    /// * [`CoreError::Model`] if the final point cannot be made feasible.
    pub fn solve(&self, instance: &UfcInstance, strategy: Strategy) -> Result<AdmgSolution> {
        self.solve_warm(instance, strategy, AdmgState::zeros(instance))
    }

    /// Runs ADM-G from a caller-supplied starting iterate — typically the
    /// final [`AdmgSolution::state`] of the previous time slot in a
    /// receding-horizon run, where consecutive hours differ only slightly
    /// and warm starts cut the iteration count substantially.
    ///
    /// # Errors
    ///
    /// As for [`AdmgSolver::solve`], plus [`CoreError::Model`] when the
    /// starting state's shape disagrees with the instance.
    pub fn solve_warm(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        start: AdmgState,
    ) -> Result<AdmgSolution> {
        // The worker pool fans the per-front-end and per-datacenter node
        // steps; results are gathered in block order, so every thread count
        // (and the sequential path) produces bit-identical iterates.
        let pool = WorkerPool::new(self.settings.num_threads);
        self.solve_with(instance, strategy, start, &pool, &mut ())
    }

    /// Runs ADM-G while streaming per-iteration (and, if the observer asks
    /// for them, per-phase) events to a caller-supplied observer — e.g. a
    /// [`crate::telemetry::JsonlSink`] writing a trace. The observer rides
    /// alongside the solver's own history recorder and (when
    /// [`AdmgSettings::telemetry`] is on) telemetry collector; it never
    /// affects the iterate stream.
    ///
    /// # Errors
    ///
    /// As for [`AdmgSolver::solve`].
    pub fn solve_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        observer: &mut dyn IterationObserver,
    ) -> Result<AdmgSolution> {
        let pool = WorkerPool::new(self.settings.num_threads);
        self.solve_with(
            instance,
            strategy,
            AdmgState::zeros(instance),
            &pool,
            observer,
        )
    }

    /// Runs one ADM-G solve from `start` on a caller-provided pool — the
    /// shared backend of [`AdmgSolver::solve_warm`] and
    /// [`crate::solve_all_strategies`] (which reuses one pool across the
    /// three strategy restrictions). The solve builds its own nodes and
    /// loads them from `start`.
    ///
    /// `extra` is an additional observer chained after the history recorder
    /// (pass `&mut ()` for none). When [`AdmgSettings::telemetry`] is on, a
    /// [`TelemetryCollector`] is chained in as well and its snapshot —
    /// together with this solve's pool fan-outs — lands in
    /// [`AdmgSolution::telemetry`].
    pub(crate) fn solve_with(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        start: AdmgState,
        pool: &WorkerPool,
        extra: &mut dyn IterationObserver,
    ) -> Result<AdmgSolution> {
        let (active_mu, active_nu) = strategy.block_activation(instance)?;
        if start.m != instance.m_frontends() || start.n != instance.n_datacenters() {
            return Err(CoreError::Model(ufc_model::ModelError::dim(format!(
                "warm-start state is {}x{} but instance is {}x{}",
                start.m,
                start.n,
                instance.m_frontends(),
                instance.n_datacenters()
            ))));
        }

        let s = &self.settings;
        let tolerances = s.scaled_tolerances(instance);
        let mut recorder = HistoryRecorder::default();
        let mut collector = s.telemetry.then(TelemetryCollector::default);
        let (tasks, maps) = (pool.tasks_dispatched(), pool.maps_run());
        let mut transport = InProcessTransport::new(instance, s, start, pool, active_mu, active_nu);
        let outcome = match collector.as_mut() {
            Some(c) => {
                let mut chain = ObserverChain(&mut recorder, ObserverChain(&mut *c, extra));
                drive(&mut transport, s, tolerances, &mut chain)?
            }
            None => {
                let mut chain = ObserverChain(&mut recorder, extra);
                drive(&mut transport, s, tolerances, &mut chain)?
            }
        };
        let telemetry = collector.map(|c| {
            let mut t = c.into_telemetry();
            t.solver.pool_tasks = pool.tasks_dispatched() - tasks;
            t.solver.pool_maps = pool.maps_run() - maps;
            t
        });
        let state = transport.into_state();

        let point = assemble_point(instance, &state, !active_nu)?;
        let breakdown = evaluate(instance, &point)?;
        Ok(AdmgSolution {
            point,
            breakdown,
            iterations: outcome.iterations,
            converged: outcome.converged,
            history: recorder.into_history(),
            state,
            telemetry,
        })
    }

    /// Like [`AdmgSolver::solve`] but fails with [`CoreError::NotConverged`]
    /// when the iteration cap is hit.
    ///
    /// # Errors
    ///
    /// Everything from [`AdmgSolver::solve`], plus
    /// [`CoreError::NotConverged`].
    pub fn solve_strict(&self, instance: &UfcInstance, strategy: Strategy) -> Result<AdmgSolution> {
        let sol = self.solve(instance, strategy)?;
        if !sol.converged {
            let last = sol.history.last().expect("at least one iteration ran");
            return Err(CoreError::NotConverged {
                iterations: sol.iterations,
                primal_residual: last.link_residual.max(last.balance_residual),
                dual_residual: last.dual_residual,
            });
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_model::EmissionCostFn;

    fn tiny() -> UfcInstance {
        UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                EmissionCostFn::linear(25.0).unwrap(),
                EmissionCostFn::linear(25.0).unwrap(),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn hybrid_converges_on_tiny_instance() {
        let sol = AdmgSolver::new(AdmgSettings::default())
            .solve(&tiny(), Strategy::Hybrid)
            .unwrap();
        assert!(sol.converged, "residuals: {:?}", sol.history.last());
        assert!(sol.point.feasibility_residual(&tiny()) < 1e-8);
        assert!(sol.iterations < 2000);
    }

    #[test]
    fn residuals_decrease_overall() {
        let sol = AdmgSolver::new(AdmgSettings::default())
            .solve(&tiny(), Strategy::Hybrid)
            .unwrap();
        let first = &sol.history[0];
        let last = sol.history.last().unwrap();
        assert!(last.link_residual < first.link_residual);
        assert!(last.balance_residual <= first.balance_residual);
    }

    #[test]
    fn grid_only_never_uses_fuel_cells() {
        let sol = AdmgSolver::new(AdmgSettings::default())
            .solve(&tiny(), Strategy::GridOnly)
            .unwrap();
        assert!(sol.point.mu.iter().all(|&v| v == 0.0));
        assert_eq!(sol.breakdown.fuel_cell_mwh, 0.0);
    }

    #[test]
    fn fuel_cell_only_never_uses_grid() {
        let sol = AdmgSolver::new(AdmgSettings::default())
            .solve(&tiny(), Strategy::FuelCellOnly)
            .unwrap();
        assert!(sol.point.nu.iter().all(|&v| v.abs() < 1e-9));
        assert!(sol.breakdown.carbon_tons.abs() < 1e-12);
        assert!((sol.breakdown.fuel_cell_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fuel_cell_only_rejected_without_capacity() {
        let mut inst = tiny();
        inst.mu_max = vec![0.1, 0.1];
        let err = AdmgSolver::new(AdmgSettings::default())
            .solve(&inst, Strategy::FuelCellOnly)
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn hybrid_at_least_as_good_as_restrictions() {
        let inst = tiny();
        let solver = AdmgSolver::new(AdmgSettings::default());
        let hybrid = solver.solve(&inst, Strategy::Hybrid).unwrap();
        let grid = solver.solve(&inst, Strategy::GridOnly).unwrap();
        let fc = solver.solve(&inst, Strategy::FuelCellOnly).unwrap();
        // The hybrid feasible set contains both restrictions.
        let tol = 1e-2;
        assert!(
            hybrid.breakdown.ufc() >= grid.breakdown.ufc() - tol,
            "hybrid {} < grid {}",
            hybrid.breakdown.ufc(),
            grid.breakdown.ufc()
        );
        assert!(
            hybrid.breakdown.ufc() >= fc.breakdown.ufc() - tol,
            "hybrid {} < fuel-cell {}",
            hybrid.breakdown.ufc(),
            fc.breakdown.ufc()
        );
    }

    #[test]
    fn solve_strict_propagates_non_convergence() {
        let settings = AdmgSettings {
            max_iterations: 2,
            eps_link: 1e-12,
            eps_balance: 1e-12,
            eps_dual: 1e-12,
            ..AdmgSettings::default()
        };
        let err = AdmgSolver::new(settings)
            .solve_strict(&tiny(), Strategy::Hybrid)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotConverged { iterations: 2, .. }));
    }

    #[test]
    fn warm_start_cuts_iterations() {
        let inst = tiny();
        let solver = AdmgSolver::new(AdmgSettings::default());
        let cold = solver.solve(&inst, Strategy::Hybrid).unwrap();
        // Restart from the converged state: should terminate almost
        // immediately at the same answer.
        let warm = solver
            .solve_warm(&inst, Strategy::Hybrid, cold.state.clone())
            .unwrap();
        assert!(
            warm.iterations <= cold.iterations / 4 + 2,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        let scale = cold.breakdown.ufc().abs().max(1.0);
        assert!(
            (warm.breakdown.ufc() - cold.breakdown.ufc()).abs() < 1e-4 * scale,
            "warm {} vs cold {}",
            warm.breakdown.ufc(),
            cold.breakdown.ufc()
        );
    }

    #[test]
    fn warm_start_rejects_wrong_shape() {
        let inst = tiny();
        let solver = AdmgSolver::new(AdmgSettings::default());
        let mut bad = AdmgState::zeros(&inst);
        bad.m = 5; // corrupt the shape
        bad.lambda = vec![0.0; 10];
        assert!(matches!(
            solver.solve_warm(&inst, Strategy::Hybrid, bad),
            Err(CoreError::Model(_))
        ));
    }

    #[test]
    fn history_is_recorded_per_iteration() {
        let sol = AdmgSolver::new(AdmgSettings::default())
            .solve(&tiny(), Strategy::Hybrid)
            .unwrap();
        assert_eq!(sol.history.len(), sol.iterations);
        assert_eq!(sol.history[0].iteration, 0);
    }
}
