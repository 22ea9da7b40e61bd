//! Wall-clock benchmark of the ADM-G hot path (`repro bench`).
//!
//! The `admg_scaling` workload solves a run of consecutive paper-default
//! hourly instances two ways:
//!
//! 1. **sequential** — 1 thread.
//! 2. **parallel** — `threads` workers. The headline configuration written
//!    to `BENCH_solver.json`.
//!
//! One more, untimed pass of the sequential leg runs on the dense KKT
//! kernel (rank-1 off; the default rank-1 kernel factors nothing) with
//! telemetry on (which leaves the iterates bit-identical) to count KKT
//! factorizations and warm starts; [`CacheCounters::check`] fails the bench
//! when the leg re-factors or cold-starts the way a solver without
//! factorization caching or warm starts would.
//!
//! On top of the seed-size legs, the bench walks a **size trajectory**
//! (front-ends × datacenters, up to 1024 × 32, one hour per size, single
//! repetition): each size is timed on the default kernels (rank-1 KKT +
//! blocked factorizations), and sizes up to [`DENSE_CEILING`]
//! front-ends are also timed with the rank-1 path off, yielding a measured
//! dense-vs-rank-1 speedup. Beyond the ceiling the dense reference is intractable by
//! construction (`O(n³)` per working-set change) — those entries report
//! the fast-path wall-clock only and the JSON says so explicitly with a
//! `null` instead of a silently extrapolated number.
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
    /// The sequential leg re-factored or cold-started like a solver without
    /// factorization caching or warm starts.
    CacheRegression(CacheCounters),
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
            BenchError::CacheRegression(c) => write!(
                f,
                "bench regression: {:.1} KKT factorizations per iteration (at most {}) and \
                 {:.3} of warm starts accepted (at least {})",
                c.factorizations_per_iter,
                CacheCounters::MAX_FACTORIZATIONS_PER_ITER,
                c.warm_start_accept_ratio,
                CacheCounters::MIN_WARM_START_ACCEPT_RATIO,
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

/// KKT-cache and warm-start counters of the sequential leg on the dense
/// kernel, taken from one untimed pass with telemetry on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCounters {
    /// KKT factorizations (cache misses) per ADM-G iteration.
    pub factorizations_per_iter: f64,
    /// Share of warm-start candidates the feasibility gates accepted; `0`
    /// when no candidate was offered.
    pub warm_start_accept_ratio: f64,
}

impl CacheCounters {
    /// Most KKT factorizations per ADM-G iteration [`Self::check`] accepts.
    /// The cached leg does 1.6 (24 hours) to 3.4 (`--quick`); re-factoring
    /// every working set of every block costs over 200.
    pub const MAX_FACTORIZATIONS_PER_ITER: f64 = 10.0;
    /// Smallest warm-start accept ratio [`Self::check`] accepts. The cached
    /// leg accepts 0.99; cold-starting every block accepts none.
    pub const MIN_WARM_START_ACCEPT_RATIO: f64 = 0.9;

    /// Fails unless the leg reuses KKT factorizations and warm starts.
    ///
    /// # Errors
    ///
    /// [`BenchError::CacheRegression`] carrying both counters.
    pub fn check(self) -> Result<(), BenchError> {
        if self.factorizations_per_iter <= Self::MAX_FACTORIZATIONS_PER_ITER
            && self.warm_start_accept_ratio >= Self::MIN_WARM_START_ACCEPT_RATIO
        {
            Ok(())
        } else {
            Err(BenchError::CacheRegression(self))
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

/// One instance size of the scaling trajectory, timed with every fast path
/// engaged (and, where tractable, with the dense reference KKT path).
#[derive(Debug, Clone, Copy)]
pub struct SizeLeg {
    /// Front-ends (`m`).
    pub frontends: usize,
    /// Datacenters (`n`).
    pub datacenters: usize,
    /// Wall-clock of the fast configuration (milliseconds, one hour,
    /// single repetition).
    pub wall_ms: f64,
    /// ADM-G iterations of the fast configuration.
    pub iters: usize,
    /// Wall-clock with the rank-1 fast path off (dense cached KKT solves);
    /// `None` above [`DENSE_CEILING`] front-ends, where the dense path is
    /// intractable.
    pub dense_wall_ms: Option<f64>,
    /// Iterations of the dense leg, when it ran.
    pub dense_iters: Option<usize>,
}

impl SizeLeg {
    /// Fast-path wall-clock per ADM-G iteration (milliseconds).
    #[must_use]
    pub fn per_iter_ms(&self) -> f64 {
        self.wall_ms / self.iters.max(1) as f64
    }

    /// Measured dense-over-fast speedup, when the dense leg ran.
    #[must_use]
    pub fn dense_speedup(&self) -> Option<f64> {
        self.dense_wall_ms.map(|d| d / self.wall_ms)
    }
}

/// Worker processes of the co-hosted socket leg: the split of the
/// benchmark's `sockets_week` workload, 7 of the paper's 14 nodes each.
pub const COHOSTED_PROCESSES: usize = 2;

/// Per-iteration latency of the multi-process socket engine next to the
/// in-memory threaded engine, measured on one paper-default hour.
#[derive(Debug, Clone, Copy)]
pub struct SocketLatency {
    /// Threaded-engine wall-clock (milliseconds).
    pub threaded_wall_ms: f64,
    /// Socket-engine wall-clock (milliseconds) with one process per node,
    /// including process spawn.
    pub socket_wall_ms: f64,
    /// Socket-engine wall-clock (milliseconds) with the nodes co-hosted on
    /// [`COHOSTED_PROCESSES`] processes, including process spawn.
    pub cohosted_wall_ms: f64,
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

    /// Socket-over-threaded per-iteration overhead factor.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.socket_per_iter_ms() / self.threaded_per_iter_ms()
    }
}

/// The full comparison: the two seed-size legs with the sequential leg's
/// cache counters, the size trajectory, and (when the `ufc-node` worker
/// binary is available) the socket-engine per-iteration latency.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Hours (instances) in the workload.
    pub hours: usize,
    /// The solver at 1 thread.
    pub sequential: BenchLeg,
    /// The solver at the requested thread count.
    pub parallel: BenchLeg,
    /// KKT-cache and warm-start counters of the sequential leg.
    pub cache: CacheCounters,
    /// The size trajectory (empty when not requested).
    pub sizes: Vec<SizeLeg>,
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
            "{{\n  \"workload\": \"admg_scaling\",\n  \"hours\": {},\n  \"threads\": {},\n  \"wall_ms\": {:.3},\n  \"iters\": {},\n  \"sequential_wall_ms\": {:.3},\n  \"kkt_factorizations_per_iter\": {:.3},\n  \"warm_start_accept_ratio\": {:.4},\n",
            self.hours,
            self.parallel.threads,
            self.parallel.wall_ms,
            self.parallel.iters,
            self.sequential.wall_ms,
            self.cache.factorizations_per_iter,
            self.cache.warm_start_accept_ratio,
        );
        out.push_str("  \"sizes\": [");
        for (k, leg) in self.sizes.iter().enumerate() {
            let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_owned());
            out.push_str(&format!(
                "{}\n    {{\"frontends\": {}, \"datacenters\": {}, \"wall_ms\": {:.3}, \"iters\": {}, \"per_iter_ms\": {:.4}, \"dense_wall_ms\": {}, \"dense_iters\": {}, \"dense_speedup\": {}}}",
                if k == 0 { "" } else { "," },
                leg.frontends,
                leg.datacenters,
                leg.wall_ms,
                leg.iters,
                leg.per_iter_ms(),
                or_null(leg.dense_wall_ms.map(|d| format!("{d:.3}"))),
                or_null(leg.dense_iters.map(|i| i.to_string())),
                or_null(leg.dense_speedup().map(|s| format!("{s:.3}"))),
            ));
        }
        if self.sizes.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        match &self.socket {
            Some(s) => out.push_str(&format!(
                "  \"socket_engine\": {{\"iterations\": {}, \"threaded_per_iter_ms\": {:.4}, \"socket_per_iter_ms\": {:.4}, \"overhead\": {:.3}, \"cohosted_processes\": {}, \"cohosted_per_iter_ms\": {:.4}}}\n",
                s.iterations,
                s.threaded_per_iter_ms(),
                s.socket_per_iter_ms(),
                s.overhead(),
                COHOSTED_PROCESSES,
                s.cohosted_per_iter_ms(),
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
/// seed-bench size up to the ~100×-scaled 1024 × 32 instance.
pub const TRAJECTORY: &[(usize, usize)] = &[(32, 4), (128, 8), (512, 16), (1024, 32)];

/// The CI smoke trajectory: one genuinely scaled size, chosen *above*
/// [`DENSE_CEILING`] so the smoke times only the fast path — the dense
/// reference leg at 128 front-ends alone takes ~9 minutes and belongs in
/// the full trajectory, not an interactive `repro bench --quick`.
pub const QUICK_TRAJECTORY: &[(usize, usize)] = &[(256, 8)];

/// Largest front-end count at which the dense reference leg (rank-1 fast
/// path off) is still timed. Beyond this the dense path's `O(n³)`-per-
/// working-set-change cost makes the leg intractable — the trajectory
/// reports `null` for it rather than an extrapolated guess.
pub const DENSE_CEILING: usize = 128;

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

/// The dense reference kernel (rank-1 off) at `threads` workers. The size
/// trajectory's dense legs time it and the cache-counter pass runs it: the
/// default rank-1 kernel does no factorizations, so on it the pass could
/// not tell a working factorization cache from a disabled one.
fn dense_kernel(threads: usize) -> AdmgSettings {
    AdmgSettings::default()
        .with_threads(threads)
        .with_rank1_kkt(false)
}

/// Solves every instance once more with telemetry on (the iterates stay
/// bit-identical) and sums the KKT-cache and warm-start counters.
fn cache_counters(instances: &[UfcInstance], settings: AdmgSettings) -> CacheCounters {
    let solver = AdmgSolver::new(settings.with_telemetry(true));
    let (mut iterations, mut misses, mut accepted, mut offered) = (0u64, 0u64, 0u64, 0u64);
    for inst in instances {
        let telemetry = solver
            .solve(inst, Strategy::Hybrid)
            .expect("bench solve failed")
            .telemetry
            .expect("telemetry was requested");
        let c = telemetry.solver;
        iterations += telemetry.iterations;
        misses += c.kkt_cache_misses;
        accepted += c.warm_starts_accepted;
        offered += c.warm_starts_accepted + c.warm_starts_rejected;
    }
    // Each numerator is 0 whenever its denominator is, so this yields 0.
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    CacheCounters {
        factorizations_per_iter: ratio(misses, iterations),
        warm_start_accept_ratio: ratio(accepted, offered),
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

/// Walks the size trajectory: one hour per size, fast configuration
/// (rank-1 + blocked) at `threads` workers, plus the dense reference leg up
/// to [`DENSE_CEILING`] front-ends.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn size_trajectory(
    seed: u64,
    threads: usize,
    sizes: &[(usize, usize)],
) -> Result<Vec<SizeLeg>, ufc_model::ModelError> {
    let fast = AdmgSettings::default().with_threads(threads);
    let dense = dense_kernel(threads);
    let mut legs = Vec::with_capacity(sizes.len());
    for &(m, n) in sizes {
        let instances = admg_scaling_sized(seed, 1, m, n)?;
        let (wall_ms, iters) = time_once(&instances, fast);
        let (dense_wall_ms, dense_iters) = if m <= DENSE_CEILING {
            let (w, i) = time_once(&instances, dense);
            (Some(w), Some(i))
        } else {
            (None, None)
        };
        legs.push(SizeLeg {
            frontends: m,
            datacenters: n,
            wall_ms,
            iters,
            dense_wall_ms,
            dense_iters,
        });
    }
    Ok(legs)
}

/// Measures the socket engine's per-iteration latency against the threaded
/// engine on one paper-default hour, with one process per node and with
/// the nodes co-hosted on [`COHOSTED_PROCESSES`] processes. Returns
/// `Ok(None)` when the `ufc-node` worker binary is not present next to the
/// running executable (the bench degrades gracefully instead of failing).
///
/// # Errors
///
/// [`BenchError::Core`] on scenario-construction or engine failures (a
/// missing worker binary is *not* an error), and
/// [`BenchError::EngineMismatch`] when a socket run disagrees with the
/// threaded engine on the iteration count.
pub fn socket_latency(seed: u64) -> Result<Option<SocketLatency>, BenchError> {
    use ufc_distsim::{DistributedAdmg, Runtime, SocketOptions};

    let Ok(worker) = crate::sockets::locate_worker() else {
        return Ok(None);
    };
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(1)
        .build()
        .map_err(CoreError::Model)?;
    let instance = &scenario.instances[0];
    let runner = DistributedAdmg::try_new(AdmgSettings::default())?;
    let start = Instant::now();
    let threaded = runner.run(instance, Strategy::Hybrid, Runtime::Threaded)?;
    let threaded_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let time_socket = |options: SocketOptions| -> Result<f64, BenchError> {
        let start = Instant::now();
        let socket = runner.run_sockets(instance, Strategy::Hybrid, &options)?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if threaded.iterations != socket.iterations {
            return Err(BenchError::EngineMismatch {
                threaded_iterations: threaded.iterations,
                socket_iterations: socket.iterations,
            });
        }
        Ok(wall_ms)
    };
    let socket_wall_ms = time_socket(SocketOptions::new(&worker))?;
    let cohosted_wall_ms =
        time_socket(SocketOptions::new(&worker).with_processes(COHOSTED_PROCESSES))?;
    Ok(Some(SocketLatency {
        threaded_wall_ms,
        socket_wall_ms,
        cohosted_wall_ms,
        iterations: threaded.iterations,
    }))
}

/// Runs the two seed-size legs and the cache-counter pass on the
/// `admg_scaling` workload, then walks the requested size trajectory (pass
/// `&[]` to skip it). The socket latency section is left `None`; callers
/// with a worker binary stitch it in via [`socket_latency`]. The caller
/// applies [`CacheCounters::check`].
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
    Ok(BenchReport {
        hours: instances.len(),
        sequential: time_leg(&instances, seq),
        parallel: time_leg(&instances, par),
        cache: cache_counters(&instances, dense_kernel(1)),
        sizes: size_trajectory(seed, threads, sizes)?,
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
        report.cache.check().unwrap();
        assert!(
            report.cache.factorizations_per_iter > 0.0,
            "the counter pass must run the dense kernel: {:?}",
            report.cache
        );
        let json = report.to_json();
        let width = WorkerPool::new(2).threads();
        assert!(json.contains(&format!("\"threads\": {width},")), "{json}");
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"kkt_factorizations_per_iter\""));
        assert!(json.contains("\"warm_start_accept_ratio\""));
        assert!(json.contains("\"sizes\": []"));
        assert!(json.contains("\"socket_engine\": null"));
    }

    /// The trajectory's dense legs and the cache-counter pass run with
    /// rank-1 off. On the default rank-1 kernel the counter pass reads 0
    /// factorizations per iteration, which a disabled cache reads too.
    #[test]
    fn dense_legs_run_with_rank1_off() {
        assert!(AdmgSettings::default().rank1_kkt);
        let dense = dense_kernel(2);
        assert!(!dense.rank1_kkt && dense.num_threads == 2);
        let instances = admg_scaling(2012, 1).unwrap();
        let rank1 = cache_counters(&instances, AdmgSettings::default());
        assert_eq!(rank1.factorizations_per_iter, 0.0);
        let counted = cache_counters(&instances, dense_kernel(1));
        assert!(counted.factorizations_per_iter > 0.0, "{counted:?}");
        counted.check().unwrap();
    }

    #[test]
    fn cache_check_rejects_uncached_counters() {
        // What the solver did with factorization caching and warm starts
        // switched off: ~216 factorizations per iteration, no warm starts.
        let uncached = CacheCounters {
            factorizations_per_iter: 216.0,
            warm_start_accept_ratio: 0.0,
        };
        assert!(matches!(
            uncached.check(),
            Err(BenchError::CacheRegression(c)) if c == uncached
        ));
        // Either counter alone trips the check.
        let cached = CacheCounters {
            factorizations_per_iter: 1.6,
            warm_start_accept_ratio: 0.995,
        };
        assert!(cached.check().is_ok());
        let cold = CacheCounters {
            warm_start_accept_ratio: 0.0,
            ..cached
        };
        assert!(cold.check().is_err());
        let refactoring = CacheCounters {
            factorizations_per_iter: 216.0,
            ..cached
        };
        assert!(refactoring.check().is_err());
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
    fn size_trajectory_reports_dense_leg_only_below_ceiling() {
        let legs = size_trajectory(2012, 1, &[(32, 4), (256, 8)]).unwrap();
        assert_eq!(legs.len(), 2);
        assert!(legs[0].dense_wall_ms.is_some(), "32 ≤ ceiling: dense timed");
        assert!(legs[1].dense_wall_ms.is_none(), "256 > ceiling: dense null");
        assert!(legs.iter().all(|l| l.wall_ms > 0.0 && l.iters > 0));
        let leg = BenchLeg {
            threads: 1,
            wall_ms: 1.0,
            iters: 1,
        };
        let report = BenchReport {
            hours: 1,
            sequential: leg,
            parallel: leg,
            cache: CacheCounters {
                factorizations_per_iter: 1.0,
                warm_start_accept_ratio: 1.0,
            },
            sizes: legs,
            socket: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"frontends\": 256"));
        assert!(json.contains("\"dense_wall_ms\": null"));
        assert!(json.contains("\"dense_iters\": null"));
        assert!(json.contains("\"dense_speedup\": null"));
        let dense_iters = report.sizes[0].dense_iters.expect("32 ≤ ceiling");
        assert!(json.contains(&format!("\"dense_iters\": {dense_iters},")));
    }
}
