//! Wall-clock benchmark of the ADM-G hot path (`repro bench`).
//!
//! The `admg_scaling` workload solves a run of consecutive paper-default
//! hourly instances two ways:
//!
//! 1. **sequential** — 1 thread.
//! 2. **parallel** — `threads` workers. The headline configuration written
//!    to `BENCH_solver.json`.
//!
//! On top of the seed-size legs, the bench walks a **size trajectory**
//! (front-ends × datacenters, up to 1024 × 32, one hour per size, single
//! repetition). [`ScalingGuard::check`] fails the bench when the largest
//! size's cost per routing variable per iteration outgrows the sequential
//! seed leg's by more than [`ScalingGuard::MAX_RATIO`]: the two are
//! measured in one process, so the ratio cancels the host's speed and
//! flags a kernel that scales superlinearly in the block size.
//!
//! Results go through [`BenchReport::to_json`] — a hand-rolled writer, so
//! the harness stays dependency-free.

use std::fmt;
use std::time::Instant;

use ufc_core::{AdmgSettings, AdmgSolver, CoreError, Strategy, WorkerPool};
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::UfcInstance;

/// Why `repro bench` rejected a run.
#[derive(Debug)]
pub enum BenchError {
    /// A solver or engine failed.
    Core(CoreError),
    /// The socket and threaded engines ran different iteration counts on
    /// the same hour. The engines are bit-identical, so this is a bug.
    EngineMismatch {
        /// Iterations of the threaded run.
        threaded_iterations: usize,
        /// Iterations of the socket run.
        socket_iterations: usize,
    },
    /// The largest trajectory leg's cost per routing variable outgrew the
    /// seed leg's beyond [`ScalingGuard::MAX_RATIO`].
    ScalingRegression(ScalingGuard),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Core(e) => e.fmt(f),
            BenchError::EngineMismatch {
                threaded_iterations,
                socket_iterations,
            } => write!(
                f,
                "socket engine ran {socket_iterations} iterations where the threaded engine \
                 ran {threaded_iterations}"
            ),
            BenchError::ScalingRegression(g) => write!(
                f,
                "bench regression: {}x{} costs {:.4} us per routing variable per iteration, \
                 {:.2}x the 1-thread 32x4 leg's {:.4} us (at most {}x)",
                g.frontends,
                g.datacenters,
                g.large_us_per_var_iter,
                g.ratio(),
                g.seed_us_per_var_iter,
                ScalingGuard::MAX_RATIO,
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> Self {
        BenchError::Core(e)
    }
}

/// The scaling check of `repro bench`: cost per routing variable per
/// ADM-G iteration of the largest trajectory leg against the sequential
/// seed leg, both measured in the same process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingGuard {
    /// Front-ends of the largest trajectory leg.
    pub frontends: usize,
    /// Datacenters of the largest trajectory leg.
    pub datacenters: usize,
    /// Its microseconds per routing variable per iteration.
    pub large_us_per_var_iter: f64,
    /// The same cost of the 1-thread 32 × 4 seed leg.
    pub seed_us_per_var_iter: f64,
}

impl ScalingGuard {
    /// Largest ratio [`Self::check`] accepts. Ten `repro bench --quick`
    /// runs (256 × 8 on 2 threads against 32 × 4 on 1, seed 2012, on a
    /// 2-vCPU VM) read 1.75, 1.34, 1.63, 1.57, 1.38, 1.68, 1.05, 1.50,
    /// 1.07 and 1.38; the bound is 1.71× the largest. The active-set
    /// kernels the exact ones replaced read 5.65, 5.00, 4.98, 5.21 and 7.87
    /// in five runs on the same host.
    pub const MAX_RATIO: f64 = 3.0;

    /// Builds the guard from the largest leg (by routing variables) and the
    /// sequential seed leg; `None` without trajectory legs.
    #[must_use]
    pub fn from_legs(sizes: &[SizeLeg], seed: &BenchLeg) -> Option<Self> {
        let large = sizes
            .iter()
            .max_by_key(|leg| leg.frontends * leg.datacenters)?;
        Some(ScalingGuard {
            frontends: large.frontends,
            datacenters: large.datacenters,
            large_us_per_var_iter: large.us_per_var_iter(),
            seed_us_per_var_iter: 1e3 * seed.wall_ms
                / seed.iters.max(1) as f64
                / (SCALING_FRONTENDS * SCALING_DATACENTERS) as f64,
        })
    }

    /// Large-leg cost over seed-leg cost, per variable and iteration.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.large_us_per_var_iter / self.seed_us_per_var_iter
    }

    /// Fails when the ratio exceeds [`Self::MAX_RATIO`] (or is NaN).
    ///
    /// # Errors
    ///
    /// [`BenchError::ScalingRegression`] carrying the guard.
    pub fn check(self) -> Result<(), BenchError> {
        if self.ratio() <= Self::MAX_RATIO {
            Ok(())
        } else {
            Err(BenchError::ScalingRegression(self))
        }
    }
}

/// One timed configuration of the solver.
#[derive(Debug, Clone, Copy)]
pub struct BenchLeg {
    /// Worker threads the pool actually ran: the requested width as
    /// [`WorkerPool::new`] resolves it (`0` = all cores, clamped to the
    /// machine's cores).
    pub threads: usize,
    /// Total wall-clock across the workload (milliseconds).
    pub wall_ms: f64,
    /// Total ADM-G iterations across the workload.
    pub iters: usize,
}

/// One instance size of the scaling trajectory.
#[derive(Debug, Clone, Copy)]
pub struct SizeLeg {
    /// Front-ends (`m`).
    pub frontends: usize,
    /// Datacenters (`n`).
    pub datacenters: usize,
    /// Wall-clock (milliseconds, one hour, single repetition).
    pub wall_ms: f64,
    /// ADM-G iterations.
    pub iters: usize,
}

impl SizeLeg {
    /// Wall-clock per ADM-G iteration (milliseconds).
    #[must_use]
    pub fn per_iter_ms(&self) -> f64 {
        self.wall_ms / self.iters.max(1) as f64
    }

    /// Microseconds per routing variable (`m·n`) per ADM-G iteration.
    #[must_use]
    pub fn us_per_var_iter(&self) -> f64 {
        1e3 * self.per_iter_ms() / (self.frontends * self.datacenters) as f64
    }
}

/// Worker processes of the co-hosted socket leg: the split of the
/// benchmark's `sockets_week` workload, 7 of the paper's 14 nodes each.
pub const COHOSTED_PROCESSES: usize = 2;

/// Per-iteration latency of the multi-process socket engine next to the
/// in-memory threaded engine, measured on one paper-default hour. A cold
/// leg is one run that pays its fleet's launch and teardown; a warm leg is
/// the median of [`LATENCY_RUNS`] runs of the same hour on that fleet,
/// parked between runs, so it times the iterations' socket I/O alone. The
/// threaded leg is the median of as many runs.
#[derive(Debug, Clone, Copy)]
pub struct SocketLatency {
    /// Threaded-engine wall-clock (milliseconds), median run.
    pub threaded_wall_ms: f64,
    /// Socket-engine wall-clock (milliseconds) with one process per node,
    /// including process spawn and reaping.
    pub socket_wall_ms: f64,
    /// Socket-engine wall-clock (milliseconds) with the nodes co-hosted on
    /// [`COHOSTED_PROCESSES`] processes, including process spawn and
    /// reaping.
    pub cohosted_wall_ms: f64,
    /// The one-process-per-node hour again, on its parked fleet
    /// (milliseconds), median run.
    pub warm_socket_wall_ms: f64,
    /// The co-hosted hour again, on its parked fleet (milliseconds),
    /// median run.
    pub warm_cohosted_wall_ms: f64,
    /// Iterations of the socket run (bit-identical engines, so the
    /// threaded run performs the same count).
    pub iterations: usize,
}

impl SocketLatency {
    /// Threaded-engine milliseconds per ADM-G iteration.
    #[must_use]
    pub fn threaded_per_iter_ms(&self) -> f64 {
        self.threaded_wall_ms / self.iterations.max(1) as f64
    }

    /// Socket-engine milliseconds per ADM-G iteration.
    #[must_use]
    pub fn socket_per_iter_ms(&self) -> f64 {
        self.socket_wall_ms / self.iterations.max(1) as f64
    }

    /// Co-hosted socket-engine milliseconds per ADM-G iteration.
    #[must_use]
    pub fn cohosted_per_iter_ms(&self) -> f64 {
        self.cohosted_wall_ms / self.iterations.max(1) as f64
    }

    /// Milliseconds per ADM-G iteration of the warm one-process-per-node
    /// run.
    #[must_use]
    pub fn warm_socket_per_iter_ms(&self) -> f64 {
        self.warm_socket_wall_ms / self.iterations.max(1) as f64
    }

    /// Milliseconds per ADM-G iteration of the warm co-hosted run.
    #[must_use]
    pub fn warm_cohosted_per_iter_ms(&self) -> f64 {
        self.warm_cohosted_wall_ms / self.iterations.max(1) as f64
    }

    /// Socket-over-threaded per-iteration overhead factor.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.socket_per_iter_ms() / self.threaded_per_iter_ms()
    }
}

/// The full comparison: the two seed-size legs, the size trajectory with
/// its scaling guard, and (when the `ufc-node` worker binary is available)
/// the socket-engine per-iteration latency.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Hours (instances) in the workload.
    pub hours: usize,
    /// The solver at 1 thread.
    pub sequential: BenchLeg,
    /// The solver at the requested thread count.
    pub parallel: BenchLeg,
    /// The size trajectory (empty when not requested).
    pub sizes: Vec<SizeLeg>,
    /// The scaling guard over [`Self::sizes`]; `None` without them.
    pub scaling: Option<ScalingGuard>,
    /// Socket-vs-threaded per-iteration latency; `None` when the worker
    /// binary is unavailable (the bench then skips the measurement rather
    /// than failing).
    pub socket: Option<SocketLatency>,
}

impl BenchReport {
    /// Renders the report as a small JSON object (`BENCH_solver.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"admg_scaling\",\n  \"hours\": {},\n  \"threads\": {},\n  \"wall_ms\": {:.3},\n  \"iters\": {},\n  \"sequential_wall_ms\": {:.3},\n",
            self.hours,
            self.parallel.threads,
            self.parallel.wall_ms,
            self.parallel.iters,
            self.sequential.wall_ms,
        );
        out.push_str("  \"sizes\": [");
        for (k, leg) in self.sizes.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"frontends\": {}, \"datacenters\": {}, \"wall_ms\": {:.3}, \"iters\": {}, \"per_iter_ms\": {:.4}, \"us_per_var_iter\": {:.4}}}",
                if k == 0 { "" } else { "," },
                leg.frontends,
                leg.datacenters,
                leg.wall_ms,
                leg.iters,
                leg.per_iter_ms(),
                leg.us_per_var_iter(),
            ));
        }
        if self.sizes.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        match &self.scaling {
            Some(g) => out.push_str(&format!(
                "  \"scaling_guard\": {{\"frontends\": {}, \"datacenters\": {}, \"us_per_var_iter\": {:.4}, \"seed_us_per_var_iter\": {:.4}, \"ratio\": {:.3}, \"max_ratio\": {}}},\n",
                g.frontends,
                g.datacenters,
                g.large_us_per_var_iter,
                g.seed_us_per_var_iter,
                g.ratio(),
                ScalingGuard::MAX_RATIO,
            )),
            None => out.push_str("  \"scaling_guard\": null,\n"),
        }
        match &self.socket {
            Some(s) => out.push_str(&format!(
                "  \"socket_engine\": {{\"iterations\": {}, \"threaded_per_iter_ms\": {:.4}, \"socket_per_iter_ms\": {:.4}, \"overhead\": {:.3}, \"cohosted_processes\": {}, \"cohosted_per_iter_ms\": {:.4}, \"warm_socket_per_iter_ms\": {:.4}, \"warm_cohosted_per_iter_ms\": {:.4}}}\n",
                s.iterations,
                s.threaded_per_iter_ms(),
                s.socket_per_iter_ms(),
                s.overhead(),
                COHOSTED_PROCESSES,
                s.cohosted_per_iter_ms(),
                s.warm_socket_per_iter_ms(),
                s.warm_cohosted_per_iter_ms(),
            )),
            None => out.push_str("  \"socket_engine\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

/// Front-ends in the `admg_scaling` workload. The paper's evaluation uses
/// 10; the bench tiles the routing dimension up so the per-datacenter
/// a-QP (one variable per front-end) dominates each iteration the way it
/// would in a large deployment.
pub const SCALING_FRONTENDS: usize = 32;

/// Datacenters in the `admg_scaling` workload: the paper's four.
pub const SCALING_DATACENTERS: usize = 4;

/// Widens an hourly instance to `m_wide` front-ends by tiling the
/// paper-default front-end set: arrivals are rescaled so the total
/// workload is unchanged, and each replica's latency row is deterministically
/// perturbed so no two front-ends are numerically identical.
fn widen(inst: &UfcInstance, m_wide: usize) -> Result<UfcInstance, ufc_model::ModelError> {
    let m = inst.arrivals.len();
    let scale = m as f64 / m_wide as f64;
    let arrivals: Vec<f64> = (0..m_wide).map(|i| inst.arrivals[i % m] * scale).collect();
    let latency_s: Vec<Vec<f64>> = (0..m_wide)
        .map(|i| {
            let jitter = 1.0 + 1e-3 * (i / m) as f64;
            inst.latency_s[i % m].iter().map(|&l| l * jitter).collect()
        })
        .collect();
    UfcInstance::new(
        arrivals,
        inst.capacities.clone(),
        inst.alpha.clone(),
        inst.beta.clone(),
        inst.mu_max.clone(),
        inst.grid_price.clone(),
        inst.fuel_cell_price,
        inst.carbon_t_per_mwh.clone(),
        latency_s,
        inst.weight_per_server,
        inst.emission_cost.clone(),
        inst.slot_hours,
    )
}

/// Widens an hourly instance to `n_wide` datacenters by tiling the
/// paper-default datacenter set. Per-site quantities that represent real
/// capacity (capacities, idle power α, fuel-cell cap μ_max) are rescaled by
/// `n/n_wide` so the fleet total is unchanged; per-unit quantities (β,
/// prices, carbon rates, latencies) are tiled, with prices and latencies
/// deterministically perturbed so no two datacenters are numerically
/// identical.
fn widen_datacenters(
    inst: &UfcInstance,
    n_wide: usize,
) -> Result<UfcInstance, ufc_model::ModelError> {
    let n = inst.capacities.len();
    let scale = n as f64 / n_wide as f64;
    let jitter = |j: usize| 1.0 + 1e-3 * (j / n) as f64;
    let tile_scaled =
        |src: &[f64]| -> Vec<f64> { (0..n_wide).map(|j| src[j % n] * scale).collect() };
    let tile_jittered =
        |src: &[f64]| -> Vec<f64> { (0..n_wide).map(|j| src[j % n] * jitter(j)).collect() };
    let latency_s: Vec<Vec<f64>> = inst
        .latency_s
        .iter()
        .map(|row| (0..n_wide).map(|j| row[j % n] * jitter(j)).collect())
        .collect();
    UfcInstance::new(
        inst.arrivals.clone(),
        tile_scaled(&inst.capacities),
        tile_scaled(&inst.alpha),
        (0..n_wide).map(|j| inst.beta[j % n]).collect(),
        tile_scaled(&inst.mu_max),
        tile_jittered(&inst.grid_price),
        inst.fuel_cell_price,
        (0..n_wide).map(|j| inst.carbon_t_per_mwh[j % n]).collect(),
        latency_s,
        inst.weight_per_server,
        (0..n_wide)
            .map(|j| inst.emission_cost[j % n].clone())
            .collect(),
        inst.slot_hours,
    )
}

/// Builds the `admg_scaling` workload: `hours` consecutive paper-style
/// hourly instances widened to [`SCALING_FRONTENDS`] front-ends
/// (× 4 datacenters).
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn admg_scaling(seed: u64, hours: usize) -> Result<Vec<UfcInstance>, ufc_model::ModelError> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()?;
    scenario
        .instances
        .iter()
        .map(|inst| widen(inst, SCALING_FRONTENDS))
        .collect()
}

/// Builds the scaling workload at an arbitrary `m_wide × n_wide` size by
/// widening both axes of the paper-default hourly instances.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn admg_scaling_sized(
    seed: u64,
    hours: usize,
    m_wide: usize,
    n_wide: usize,
) -> Result<Vec<UfcInstance>, ufc_model::ModelError> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()?;
    scenario
        .instances
        .iter()
        .map(|inst| widen(&widen_datacenters(inst, n_wide)?, m_wide))
        .collect()
}

/// The scaling trajectory: (front-ends, datacenters) per size, from the
/// seed-bench size up to the ~100×-scaled 1024 × 32 instance, through the
/// `--quick` smoke's 256 × 8.
pub const TRAJECTORY: &[(usize, usize)] = &[(32, 4), (128, 8), (256, 8), (512, 16), (1024, 32)];

/// The CI smoke trajectory: one genuinely scaled size, 16× the seed leg's
/// routing variables, which the scaling guard compares against it.
pub const QUICK_TRAJECTORY: &[(usize, usize)] = &[(256, 8)];

/// Timed repetitions per leg; the fastest repetition is reported, which
/// filters out scheduler and frequency-scaling noise.
const REPS: usize = 3;

/// Solves every instance with the given settings and returns the timed leg.
fn time_leg(instances: &[UfcInstance], settings: AdmgSettings) -> BenchLeg {
    let solver = AdmgSolver::new(settings);
    let mut best_ms = f64::INFINITY;
    let mut iters = 0usize;
    for _ in 0..REPS {
        let start = Instant::now();
        iters = 0;
        for inst in instances {
            let sol = solver
                .solve(inst, Strategy::Hybrid)
                .expect("bench solve failed");
            iters += sol.iterations;
        }
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    BenchLeg {
        threads: WorkerPool::new(settings.num_threads).threads(),
        wall_ms: best_ms,
        iters,
    }
}

/// Times one pass over the instances (no repetition — the trajectory's
/// larger sizes are too slow to triplicate and their runtimes are long
/// enough to swamp scheduler noise anyway).
fn time_once(instances: &[UfcInstance], settings: AdmgSettings) -> (f64, usize) {
    let solver = AdmgSolver::new(settings);
    let start = Instant::now();
    let mut iters = 0usize;
    for inst in instances {
        let sol = solver
            .solve(inst, Strategy::Hybrid)
            .expect("bench solve failed");
        iters += sol.iterations;
    }
    (start.elapsed().as_secs_f64() * 1e3, iters)
}

/// Walks the size trajectory: one hour per size at `threads` workers.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn size_trajectory(
    seed: u64,
    threads: usize,
    sizes: &[(usize, usize)],
) -> Result<Vec<SizeLeg>, ufc_model::ModelError> {
    let settings = AdmgSettings::default().with_threads(threads);
    let mut legs = Vec::with_capacity(sizes.len());
    for &(m, n) in sizes {
        let instances = admg_scaling_sized(seed, 1, m, n)?;
        let (wall_ms, iters) = time_once(&instances, settings);
        legs.push(SizeLeg {
            frontends: m,
            datacenters: n,
            wall_ms,
            iters,
        });
    }
    Ok(legs)
}

/// Timed runs behind each threaded and warm socket leg, which reports their
/// median: one 68-iteration hour timed once swung the co-hosted leg by 2x
/// between back-to-back runs.
pub const LATENCY_RUNS: usize = 15;

/// Measures the socket engine's per-iteration latency against the threaded
/// engine on one paper-default hour, with one process per node and with
/// the nodes co-hosted on [`COHOSTED_PROCESSES`] processes. Returns
/// `Ok(None)` when the `ufc-node` worker binary is not present next to the
/// running executable (the bench degrades gracefully instead of failing).
///
/// The threaded leg is the median of [`LATENCY_RUNS`] timed runs. Each
/// socket leg gets a runner of its own. Its cold run is timed once: the
/// launch, the run and the teardown when the runner is dropped, and no leg
/// pays another's. Between the run and the drop the runner runs the same
/// hour [`LATENCY_RUNS`] more times on the fleet it parked, each timed
/// alone, and their median is the leg's warm time: the per-iteration cost
/// of the socket I/O, without spawn, handshake or reaping.
///
/// # Errors
///
/// [`BenchError::Core`] on scenario-construction or engine failures (a
/// missing worker binary is *not* an error), and
/// [`BenchError::EngineMismatch`] when a socket run disagrees with the
/// threaded engine on the iteration count.
pub fn socket_latency(seed: u64) -> Result<Option<SocketLatency>, BenchError> {
    use ufc_distsim::{DistributedAdmg, Engine, RunSpec, SocketOptions};

    let Ok(worker) = crate::sockets::locate_worker() else {
        return Ok(None);
    };
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(1)
        .build()
        .map_err(CoreError::Model)?;
    let instance = &scenario.instances[0];
    let settings = AdmgSettings::default();
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    // The median of `LATENCY_RUNS` timed runs of `spec` on `runner`, and
    // the iterations of the last.
    let median_run =
        |runner: &DistributedAdmg, spec: &RunSpec| -> Result<(f64, usize), BenchError> {
            let mut times = Vec::with_capacity(LATENCY_RUNS);
            let mut iterations = 0;
            for _ in 0..LATENCY_RUNS {
                let start = Instant::now();
                iterations = runner
                    .execute(instance, Strategy::Hybrid, spec, &mut ())?
                    .iterations;
                times.push(ms(start));
            }
            times.sort_by(f64::total_cmp);
            Ok((times[LATENCY_RUNS / 2], iterations))
        };
    let (threaded_wall_ms, threaded_iterations) = median_run(
        &DistributedAdmg::try_new(settings)?,
        &RunSpec::new(Engine::Threaded),
    )?;
    // (cold, warm) milliseconds of one leg.
    let time_socket = |options: SocketOptions| -> Result<(f64, f64), BenchError> {
        let spec = RunSpec::new(Engine::Sockets(options));
        let start = Instant::now();
        let runner = DistributedAdmg::try_new(settings)?;
        let cold = runner.execute(instance, Strategy::Hybrid, &spec, &mut ())?;
        let mut cold_ms = ms(start);
        let (warm_ms, warm_iterations) = median_run(&runner, &spec)?;
        let start = Instant::now();
        drop(runner);
        cold_ms += ms(start);
        for socket_iterations in [cold.iterations, warm_iterations] {
            if threaded_iterations != socket_iterations {
                return Err(BenchError::EngineMismatch {
                    threaded_iterations,
                    socket_iterations,
                });
            }
        }
        Ok((cold_ms, warm_ms))
    };
    let (socket_wall_ms, warm_socket_wall_ms) = time_socket(SocketOptions::new(&worker))?;
    let (cohosted_wall_ms, warm_cohosted_wall_ms) =
        time_socket(SocketOptions::new(&worker).with_processes(COHOSTED_PROCESSES))?;
    Ok(Some(SocketLatency {
        threaded_wall_ms,
        socket_wall_ms,
        cohosted_wall_ms,
        warm_socket_wall_ms,
        warm_cohosted_wall_ms,
        iterations: threaded_iterations,
    }))
}

/// Runs the two seed-size legs on the `admg_scaling` workload, then walks
/// the requested size trajectory (pass `&[]` to skip it). The socket
/// latency section is left `None`; callers with a worker binary stitch it
/// in via [`socket_latency`]. The caller applies [`ScalingGuard::check`].
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(
    seed: u64,
    hours: usize,
    threads: usize,
    sizes: &[(usize, usize)],
) -> Result<BenchReport, ufc_model::ModelError> {
    let instances = admg_scaling(seed, hours)?;
    let seq = AdmgSettings::default().with_threads(1);
    let par = AdmgSettings::default().with_threads(threads);
    // Warm-up pass so first-touch effects (page faults, lazy init) land
    // outside every timed leg equally.
    let _ = time_leg(&instances[..1.min(instances.len())], seq);
    let sequential = time_leg(&instances, seq);
    let parallel = time_leg(&instances, par);
    let sizes = size_trajectory(seed, threads, sizes)?;
    Ok(BenchReport {
        hours: instances.len(),
        sequential,
        parallel,
        scaling: ScalingGuard::from_legs(&sizes, &sequential),
        sizes,
        socket: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_consistent_report() {
        let report = run(2012, 1, 2, &[]).unwrap();
        assert_eq!(report.hours, 1);
        assert!(report.parallel.wall_ms > 0.0);
        // Thread counts are bit-transparent, so both legs run the same
        // iterations.
        assert_eq!(report.sequential.iters, report.parallel.iters);
        assert!(report.scaling.is_none(), "no trajectory, nothing to guard");
        let json = report.to_json();
        let width = WorkerPool::new(2).threads();
        assert!(json.contains(&format!("\"threads\": {width},")), "{json}");
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"sizes\": []"));
        assert!(json.contains("\"scaling_guard\": null"));
        assert!(json.contains("\"socket_engine\": null"));
    }

    /// The socket block carries the cold and the warm legs, each per
    /// iteration.
    #[test]
    fn socket_block_reports_cold_and_warm_legs() {
        let mut report = run(2012, 1, 1, &[]).unwrap();
        report.socket = Some(SocketLatency {
            threaded_wall_ms: 6.8,
            socket_wall_ms: 34.0,
            cohosted_wall_ms: 13.6,
            warm_socket_wall_ms: 10.2,
            warm_cohosted_wall_ms: 4.08,
            iterations: 68,
        });
        let json = report.to_json();
        assert!(json.contains("\"socket_per_iter_ms\": 0.5000"), "{json}");
        assert!(json.contains("\"cohosted_per_iter_ms\": 0.2000"), "{json}");
        assert!(
            json.contains("\"warm_socket_per_iter_ms\": 0.1500"),
            "{json}"
        );
        assert!(
            json.contains("\"warm_cohosted_per_iter_ms\": 0.0600}"),
            "{json}"
        );
    }

    fn guard(large_us_per_var_iter: f64) -> ScalingGuard {
        ScalingGuard {
            frontends: 256,
            datacenters: 8,
            large_us_per_var_iter,
            seed_us_per_var_iter: 0.215,
        }
    }

    #[test]
    fn scaling_check_rejects_superlinear_cost() {
        // What the active-set kernels cost at 256×8 against 32×4 on the
        // reference host: 4.58 ms per iteration over 2048 variables.
        let active_set = guard(4580.0 / 2048.0);
        assert!(active_set.ratio() > 10.0);
        assert!(matches!(
            active_set.check(),
            Err(BenchError::ScalingRegression(g)) if g == active_set
        ));
        assert!(guard(0.3).check().is_ok());
        assert!(guard(f64::NAN).check().is_err());
    }

    #[test]
    fn sized_workload_scales_both_axes() {
        let instances = admg_scaling_sized(2012, 1, 64, 8).unwrap();
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.m_frontends(), 64);
        assert_eq!(inst.n_datacenters(), 8);
        // Widening the datacenter axis preserves the fleet totals of the
        // capacity-like quantities (capacities, fuel-cell caps).
        let seed = ScenarioBuilder::paper_default()
            .seed(2012)
            .hours(1)
            .build()
            .unwrap();
        let base = &seed.instances[0];
        let total = |v: &[f64]| -> f64 { v.iter().sum() };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        assert!(close(total(&inst.capacities), total(&base.capacities)));
        assert!(close(total(&inst.mu_max), total(&base.mu_max)));
        // No two datacenters are numerically identical.
        for j in 4..8 {
            assert!(inst.grid_price[j] != inst.grid_price[j - 4]);
        }
    }

    #[test]
    fn size_trajectory_feeds_the_scaling_guard() {
        let legs = size_trajectory(2012, 1, &[(32, 4), (64, 8)]).unwrap();
        assert_eq!(legs.len(), 2);
        assert!(legs.iter().all(|l| l.wall_ms > 0.0 && l.iters > 0));
        let seed = BenchLeg {
            threads: 1,
            wall_ms: legs[0].wall_ms,
            iters: legs[0].iters,
        };
        let report = BenchReport {
            hours: 1,
            sequential: seed,
            parallel: seed,
            scaling: ScalingGuard::from_legs(&legs, &seed),
            sizes: legs,
            socket: None,
        };
        let g = report.scaling.expect("legs were timed");
        assert_eq!((g.frontends, g.datacenters), (64, 8), "the largest leg");
        assert!((g.seed_us_per_var_iter - report.sizes[0].us_per_var_iter()).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"frontends\": 64"));
        assert!(json.contains("\"us_per_var_iter\""));
        assert!(json.contains("\"scaling_guard\": {\"frontends\": 64"));
        assert!(!json.contains("dense"), "{json}");
    }
}
