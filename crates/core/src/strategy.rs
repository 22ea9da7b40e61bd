use ufc_model::{ufc_improvement, UfcInstance};

use crate::pool::WorkerPool;
use crate::workspace::SolverWorkspace;
use crate::{AdmgSettings, AdmgSolution, AdmgSolver, AdmgState, CoreError, Result};

/// The paper's three procurement strategies (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Intelligent coordination of grid power and fuel cells — the full
    /// problem (12).
    Hybrid,
    /// Grid power only: problem (12) with `μ_j = 0 ∀j`.
    GridOnly,
    /// Fuel-cell generation only: problem (12) with `ν_j = 0 ∀j`.
    FuelCellOnly,
}

impl Strategy {
    /// All strategies, in the paper's reporting order.
    pub const ALL: [Strategy; 3] = [Strategy::Hybrid, Strategy::GridOnly, Strategy::FuelCellOnly];

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Hybrid => "Hybrid",
            Strategy::GridOnly => "Grid",
            Strategy::FuelCellOnly => "Fuel cell",
        }
    }

    /// The `(active_mu, active_nu)` block gating this strategy imposes on
    /// problem (12): `GridOnly` freezes the fuel-cell block μ at zero,
    /// `FuelCellOnly` freezes the grid block ν. Shared by every execution
    /// engine (in-process solver and both distributed runtimes).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] if `FuelCellOnly` is requested but the
    /// instance's fuel cells cannot cover peak demand (the restricted
    /// problem would be infeasible).
    pub fn block_activation(self, instance: &UfcInstance) -> Result<(bool, bool)> {
        let active_mu = self != Strategy::GridOnly;
        let active_nu = self != Strategy::FuelCellOnly;
        if !active_nu && !instance.fuel_cells_cover_peak() {
            return Err(CoreError::Unsupported {
                context: "FuelCellOnly requires fuel-cell capacity covering peak demand".to_owned(),
            });
        }
        Ok((active_mu, active_nu))
    }
}

/// The three strategies solved on one instance, with the paper's pairwise
/// UFC improvements.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// The *Hybrid* solution.
    pub hybrid: AdmgSolution,
    /// The *Grid* solution.
    pub grid: AdmgSolution,
    /// The *Fuel cell* solution.
    pub fuel_cell: AdmgSolution,
}

impl StrategyComparison {
    /// `I_hg`: UFC improvement of *Hybrid* over *Grid* (fraction).
    #[must_use]
    pub fn i_hg(&self) -> f64 {
        ufc_improvement(self.hybrid.breakdown.ufc(), self.grid.breakdown.ufc())
    }

    /// `I_hf`: UFC improvement of *Hybrid* over *Fuel cell* (fraction).
    #[must_use]
    pub fn i_hf(&self) -> f64 {
        ufc_improvement(self.hybrid.breakdown.ufc(), self.fuel_cell.breakdown.ufc())
    }

    /// `I_fg`: UFC improvement of *Fuel cell* over *Grid* (fraction).
    #[must_use]
    pub fn i_fg(&self) -> f64 {
        ufc_improvement(self.fuel_cell.breakdown.ufc(), self.grid.breakdown.ufc())
    }
}

/// Solves all three strategies on one instance with the same settings.
///
/// One `SolverWorkspace` (block kernels, iterate buffers) and one
/// [`WorkerPool`] are shared across the three solves: the strategy flags
/// only gate the scalar μ/ν steps and every workspace buffer is fully
/// overwritten per prediction, so the shared-workspace results are
/// bit-identical to three independent solves while the kernels are built
/// only once.
///
/// # Errors
///
/// Propagates the first solver failure (see [`AdmgSolver::solve`]).
pub fn solve_all_strategies(
    instance: &UfcInstance,
    settings: AdmgSettings,
) -> Result<StrategyComparison> {
    let solver = AdmgSolver::new(settings);
    let pool = WorkerPool::new(solver.settings().num_threads);
    let mut ws = SolverWorkspace::new(instance, solver.settings());
    let mut run = |strategy| {
        solver.solve_with(
            instance,
            strategy,
            AdmgState::zeros(instance),
            &mut ws,
            &pool,
            &mut (),
        )
    };
    Ok(StrategyComparison {
        hybrid: run(Strategy::Hybrid)?,
        grid: run(Strategy::GridOnly)?,
        fuel_cell: run(Strategy::FuelCellOnly)?,
    })
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
    fn labels() {
        assert_eq!(Strategy::Hybrid.label(), "Hybrid");
        assert_eq!(Strategy::GridOnly.label(), "Grid");
        assert_eq!(Strategy::FuelCellOnly.label(), "Fuel cell");
        assert_eq!(Strategy::ALL.len(), 3);
    }

    /// Sharing one workspace (and its block kernels) across the three strategy
    /// solves must be bit-identical to three independent solves.
    #[test]
    fn shared_workspace_matches_independent_solves_bitwise() {
        let inst = tiny();
        let settings = AdmgSettings::default();
        let shared = solve_all_strategies(&inst, settings).unwrap();
        let solver = AdmgSolver::new(settings);
        for (strategy, got) in [
            (Strategy::Hybrid, &shared.hybrid),
            (Strategy::GridOnly, &shared.grid),
            (Strategy::FuelCellOnly, &shared.fuel_cell),
        ] {
            let fresh = solver.solve(&inst, strategy).unwrap();
            assert_eq!(got.iterations, fresh.iterations, "{strategy:?}");
            assert_eq!(got.state.lambda, fresh.state.lambda, "{strategy:?}");
            assert_eq!(got.state.mu, fresh.state.mu, "{strategy:?}");
            assert_eq!(got.state.nu, fresh.state.nu, "{strategy:?}");
            assert_eq!(got.state.a, fresh.state.a, "{strategy:?}");
            assert_eq!(
                got.breakdown.ufc().to_bits(),
                fresh.breakdown.ufc().to_bits(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn comparison_improvements_are_consistent() {
        let cmp = solve_all_strategies(&tiny(), AdmgSettings::default()).unwrap();
        // Hybrid dominates both restrictions.
        assert!(cmp.i_hg() >= -1e-3, "i_hg = {}", cmp.i_hg());
        assert!(cmp.i_hf() >= -1e-3, "i_hf = {}", cmp.i_hf());
        // Consistency: all three UFC values are finite and ordered as the
        // improvements claim.
        let (h, g, f) = (
            cmp.hybrid.breakdown.ufc(),
            cmp.grid.breakdown.ufc(),
            cmp.fuel_cell.breakdown.ufc(),
        );
        assert!(h.is_finite() && g.is_finite() && f.is_finite());
        if cmp.i_fg() > 0.0 {
            assert!(f > g);
        } else {
            assert!(f <= g + 1e-12);
        }
    }
}
