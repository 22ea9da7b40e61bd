//! Differential fuzzing of the whole solver stack (`repro fuzz`).
//!
//! The pipeline is **generator → engines → oracles → shrinker**
//! (DESIGN.md §16):
//!
//! * the *generator* ([`ufc_model::generator`]) maps a seed to a whole
//!   candidate instance plus solver knobs, deliberately covering the
//!   degenerate corners (zero-demand front-ends, zero-capacity
//!   datacenters, `p₀` below/above/crossing every grid price,
//!   near-singular Hessians, infeasible totals);
//! * the *engines* solve each valid case on the in-process solver (with
//!   the sampled thread count and again on one thread), the lockstep
//!   runtime, and — on a sampled subset — the multi-process socket
//!   runtime;
//! * the *oracles* cross-check bit-identity between engines, every exact
//!   λ-row and a-column kernel against the dense active-set reference
//!   steps, feasibility of the polished point, the centralized QP's UFC
//!   value, the generic matrix-form correction against the closed form,
//!   and that invalid inputs are rejected with the **same typed error
//!   everywhere**;
//! * the *shrinker* greedily simplifies any failing case (fewer
//!   front-ends/datacenters, no storage, plainer tariffs, one thread)
//!   while the failure *kind* reproduces, and persists the minimal
//!   reproducer to the corpus under `tests/corpus/`.
//!
//! Every corpus file replays deterministically — the
//! `fuzz_corpus_replay` integration test re-checks each one on every
//! `cargo test`, so a fuzz finding can never regress silently.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ufc_core::subproblems::{a_step, lambda_step, mu_step, nu_step, storage_step, CongestedAStep};
use ufc_core::{
    centralized, correction, generic, AColQp, AdmgSettings, AdmgSolver, AdmgState, CoreError,
    HistoryRecorder, IterationRecord, LambdaQp, Strategy,
};
use ufc_distsim::{
    CorruptionConfig, DistributedAdmg, Engine, FaultPlan, NodeId, RunSpec, SocketOptions,
};
use ufc_linalg::Matrix;
use ufc_model::generator::{arbitrary_params, InstanceParams, SplitMix64};
use ufc_model::utility::disutility_rank1_gamma;
use ufc_model::{EmissionCostFn, QueueingCost, StorageParams, UfcInstance};
use ufc_opt::{kkt, QuadObjective, SmoothObjective};

/// Per-entry tolerance `KERNEL_TOL·(1 + |x|)` of the exact block kernels
/// against the dense active-set reference steps.
const KERNEL_TOL: f64 = 1e-9;
/// Objective slack `CONGESTED_OBJ_TOL·(1 + |f|)` of the exact congested
/// a-column over the FISTA reference step.
const CONGESTED_OBJ_TOL: f64 = 1e-12;
/// Relative UFC tolerance against the centralized QP oracle (same gate as
/// `repro verify`).
const CENTRAL_REL_TOL: f64 = 5e-3;
/// Feasibility ceiling for the polished operating point.
const FEASIBILITY_TOL: f64 = 1e-6;
/// Component tolerance for the generic matrix-form correction oracle.
const GENERIC_TOL: f64 = 1e-9;

/// One fully-specified fuzz case: candidate instance parameters plus the
/// sampled solver-knob combination. This is the unit of generation,
/// checking, shrinking, and corpus persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Candidate instance (possibly deliberately invalid).
    pub params: InstanceParams,
    /// Procurement strategy to solve.
    pub strategy: Strategy,
    /// Worker-thread count of the main leg (bit-identity knob).
    pub threads: usize,
    /// Whether construction is expected to fail with a typed error.
    pub expect_reject: bool,
    /// Whether to also run the multi-process socket engine.
    pub socket: bool,
    /// Seed of the crash/recovery leg (`None` skips it): derives a
    /// deterministic recovering [`FaultPlan`] whose checkpoint restart
    /// must land back on the clean operating point bit-for-bit.
    pub fault_seed: Option<u64>,
    /// Seed of the corruption leg (`None` skips it): drives §12 value
    /// corruption through the verified posture (repair + bitwise-clean
    /// point, nothing delivered) and the unverified posture (errors stay in
    /// the typed corruption/divergence classes, and lockstep and the
    /// socket engine, when sampled, agree on the outcome).
    pub corrupt_seed: Option<u64>,
}

/// What a clean case did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The instance built and every engine/oracle agreed on the solution.
    Solved,
    /// The instance (or configuration) was rejected with the same typed
    /// error everywhere.
    Rejected,
}

/// A cross-check failure: a stable `kind` (the shrinker keeps a
/// simplification only if the same kind reproduces) plus a full message.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Stable failure class, e.g. `engine-divergence`, `oracle-central`.
    pub kind: String,
    /// Human-readable description with the offending values.
    pub message: String,
}

fn fail(kind: &str, message: impl Into<String>) -> CaseFailure {
    CaseFailure {
        kind: kind.to_owned(),
        message: message.into(),
    }
}

/// Generates one fuzz case from a seed (pure and deterministic). The knob
/// stream is decorrelated from the instance stream so the same instance
/// shape appears under many knob combinations across seeds.
#[must_use]
pub fn arbitrary_case(seed: u64) -> FuzzCase {
    let params = arbitrary_params(seed);
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let threads = [1usize, 2, 4][rng.below(3)];
    // The draws of the retired caching, rank-1 KKT and blocked
    // factorization knobs: kept so every seed still maps to the case it
    // produced when the knobs existed.
    let _ = rng.chance(0.5);
    let _ = rng.chance(0.3);
    let _ = rng.chance(0.3);
    let strategy = {
        let r = rng.next_f64();
        if r < 0.6 {
            Strategy::Hybrid
        } else if r < 0.85 {
            Strategy::GridOnly
        } else {
            // Sampled even when fuel cells cannot cover peak demand: the
            // typed `Unsupported` rejection must then agree across engines.
            Strategy::FuelCellOnly
        }
    };
    let expect_reject = params.build().is_err();
    let socket = rng.chance(0.08);
    // Drawn last so every earlier seed keeps mapping to the exact case it
    // produced before these legs existed (corpus reproducer names stay
    // pinned to their seeds).
    let fault_seed = rng.chance(0.2).then(|| rng.next_u64());
    let corrupt_seed = rng.chance(0.2).then(|| rng.next_u64());
    FuzzCase {
        params,
        strategy,
        threads,
        expect_reject,
        socket,
        fault_seed,
        corrupt_seed,
    }
}

fn settings_for(case: &FuzzCase) -> AdmgSettings {
    AdmgSettings::default().with_threads(case.threads)
}

fn error_key(e: &CoreError) -> String {
    // Variant-level identity: engines must agree on *what* failed; the
    // NotConverged residual floats may differ in ulps between knob sets.
    match e {
        CoreError::NotConverged { .. } => "NotConverged".to_owned(),
        other => other.to_string(),
    }
}

fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Compares a distributed engine's observed per-iterate residuals (link,
/// balance, dual — the KKT quantities the stop rule max-reduces) against
/// the in-process solver's recorded history, bit for bit: every engine
/// steps the same nodes and reduces their reports in the same order. The
/// objective column is excluded: distributed transports report it as
/// `NaN` by contract.
fn check_residual_trajectory(
    name: &str,
    expected: &[IterationRecord],
    observed: &[IterationRecord],
) -> Result<(), CaseFailure> {
    if expected.len() != observed.len() {
        return Err(fail(
            "residual-divergence",
            format!(
                "{name} streamed {} iteration records, in-process recorded {}",
                observed.len(),
                expected.len()
            ),
        ));
    }
    for (e, o) in expected.iter().zip(observed) {
        for (label, x, y) in [
            ("link", e.link_residual, o.link_residual),
            ("balance", e.balance_residual, o.balance_residual),
            ("dual", e.dual_residual, o.dual_residual),
        ] {
            if x.to_bits() != y.to_bits() {
                return Err(fail(
                    "residual-divergence",
                    format!(
                        "{name} iteration {}: {label} residual {y} drifts from in-process {x}",
                        e.iteration
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn pseudo_random_state(inst: &UfcInstance, rng: &mut SplitMix64) -> AdmgState {
    let mut s = AdmgState::zeros(inst);
    for v in s
        .lambda
        .iter_mut()
        .chain(s.mu.iter_mut())
        .chain(s.nu.iter_mut())
        .chain(s.d.iter_mut())
        .chain(s.a.iter_mut())
        .chain(s.phi.iter_mut())
        .chain(s.varphi.iter_mut())
    {
        *v = rng.uniform(-1.0, 1.0);
    }
    s
}

/// The per-block kernel oracle: from a pseudo-random iterate, every
/// front-end's [`LambdaQp`] row and every datacenter's [`AColQp`] column
/// must match the dense active-set reference steps
/// (`subproblems::{lambda_step, a_step}`) to `KERNEL_TOL·(1 + |x|)`. The
/// a-columns see the reference λ̃, μ̃, ν̃ and d̃, so each block is checked
/// on exactly the problem its reference solved. A reference that fails is
/// no verdict on the kernels: the leg is skipped.
///
/// The reference factors Hessian-shifted KKT systems (`ActiveSetQp`), which
/// moves its answer by about `1e-11·max_j(ρ + γL_j²)·|x|/ρ` — past the
/// tolerance on stiff rows (`γ ≳ 2e4`). So where the two disagree, the
/// quadratic blocks are judged by their KKT certificates instead: the
/// kernel fails only if its largest KKT residual exceeds the reference's.
///
/// The same columns are then solved with
/// [`QueueingCost::default_interactive`] attached. That column is not a QP
/// and its reference (`a_step` on the congested instance) is an iterative
/// FISTA solve, so the exact congested kernel is judged by objective: it
/// fails only if its objective exceeds the reference's by more than
/// `CONGESTED_OBJ_TOL·(1 + |f|)`. No leg draws from the RNG beyond the
/// iterate, so every seed's case stream is unchanged.
fn check_block_kernels(
    inst: &UfcInstance,
    strategy: Strategy,
    rho: f64,
    salt: usize,
) -> Result<(), CaseFailure> {
    let Ok((active_mu, active_nu)) = strategy.block_activation(inst) else {
        return Ok(());
    };
    let mut rng = SplitMix64::new(0x0B10_C4ED ^ salt as u64);
    let state = pseudo_random_state(inst, &mut rng);
    let (m, n) = (state.m, state.n);
    let Ok(lt) = lambda_step(inst, rho, &state) else {
        return Ok(());
    };
    let mt = mu_step(inst, rho, &state, active_mu);
    let nt = nu_step(inst, rho, &state, &mt, active_nu);
    let dt = storage_step(inst, rho, &state, &mt, &nt);
    let Ok(at) = a_step(inst, rho, &state, &lt, &mt, &nt, &dt) else {
        return Ok(());
    };
    let queueing = QueueingCost::default_interactive();
    let congested = inst.clone().with_queueing(queueing);
    let at_q = a_step(&congested, rho, &state, &lt, &mt, &nt, &dt).ok();
    // `residual` is the block's KKT certificate. A NaN fails both tests, so
    // a NaN entry fails the gate and a certificate of NaN leaves only
    // agreement.
    let compare = |block: String, got: &[f64], want: &[f64], residual: &dyn Fn(&[f64]) -> f64| {
        let agree = got
            .iter()
            .zip(want)
            .all(|(&x, &y)| (x - y).abs() <= KERNEL_TOL * (1.0 + y.abs()));
        if agree {
            return Ok(());
        }
        let (rk, rr) = (residual(got), residual(want));
        if rk <= rr {
            return Ok(());
        }
        Err(fail(
            "kernel-oracle",
            format!(
                "{block}: kernel {got:?} (KKT residual {rk:e}) vs dense reference {want:?} \
                 ({rr:e})"
            ),
        ))
    };
    let w = inst.weight_per_kserver();
    for i in 0..m {
        let (l, arrival) = (&inst.latency_s[i], inst.arrivals[i]);
        let c: Vec<f64> = (0..n)
            .map(|j| state.varphi[i * n + j] - rho * state.a[i * n + j])
            .collect();
        let row = LambdaQp::new(l, arrival, w, rho).solve(&c);
        let gamma = disutility_rank1_gamma(w, arrival);
        let residual = |x: &[f64]| block_kkt_residual(rho, gamma, l, &c, arrival, false, x);
        compare(
            format!("lambda[{i}]"),
            &row,
            &lt[i * n..(i + 1) * n],
            &residual,
        )?;
    }
    let ones = vec![1.0; m];
    for j in 0..n {
        let (beta, cap) = (inst.beta[j], inst.capacities[j]);
        let drift = inst.alpha[j] - mt[j] - nt[j] - dt[j];
        let c: Vec<f64> = (0..m)
            .map(|i| {
                -rho * lt[i * n + j] - state.varphi[i * n + j] - state.phi[j] * beta
                    + rho * beta * drift
            })
            .collect();
        let col = AColQp::new(m, rho, beta, cap, None).solve(&c);
        let want: Vec<f64> = (0..m).map(|i| at[i * n + j]).collect();
        let residual =
            |x: &[f64]| block_kkt_residual(rho, rho * beta * beta, &ones, &c, cap, true, x);
        compare(format!("a[{j}]"), &col, &want, &residual)?;
        let Some(at_q) = &at_q else {
            continue;
        };
        let col = AColQp::new(m, rho, beta, cap, Some(queueing)).solve(&c);
        let want: Vec<f64> = (0..m).map(|i| at_q[i * n + j]).collect();
        let quad = QuadObjective::diag_rank1(vec![rho; m], rho * beta * beta, ones.clone(), c, 0.0);
        let f = CongestedAStep::new(quad, queueing, cap);
        let (fk, fr) = (f.value(&col), f.value(&want));
        // A NaN objective fails the comparison.
        let no_worse = fk <= fr + CONGESTED_OBJ_TOL * (1.0 + fr.abs());
        if !no_worse {
            return Err(fail(
                "kernel-oracle",
                format!(
                    "a[{j}] congested: kernel {col:?} (objective {fk:e}) vs FISTA reference \
                     {want:?} ({fr:e})"
                ),
            ));
        }
    }
    Ok(())
}

/// Largest KKT residual (`ufc_opt::kkt::qp_residuals`) of a block point `x`
/// for `min ½ρ‖x‖² + ½γ(uᵀx)² + cᵀx` over `{x ≥ 0, Σx = s}`, or
/// `{x ≥ 0, Σx ≤ s}` when `capped`. The all-ones row's multiplier is
/// recovered from the gradient on the support (nonnegative and zero off a
/// slack cap when `capped`), each bound's from its own gradient entry.
fn block_kkt_residual(
    rho: f64,
    gamma: f64,
    u: &[f64],
    c: &[f64],
    s: f64,
    capped: bool,
    x: &[f64],
) -> f64 {
    let n = x.len();
    let f = QuadObjective::diag_rank1(vec![rho; n], gamma, u.to_vec(), c.to_vec(), 0.0);
    let g = f.gradient(x);
    let support: Vec<usize> = (0..n).filter(|&i| x[i] > 0.0).collect();
    let mut v = if support.is_empty() {
        g.iter().fold(f64::NEG_INFINITY, |v, &gi| v.max(-gi))
    } else {
        -support.iter().map(|&i| g[i]).sum::<f64>() / support.len() as f64
    };
    if capped {
        let binding = x.iter().sum::<f64>() >= s * (1.0 - 1e-12);
        v = if binding { v.max(0.0) } else { 0.0 };
    }
    let mut mults: Vec<f64> = (0..n)
        .map(|i| if x[i] > 0.0 { 0.0 } else { g[i] + v })
        .collect();
    let bounds = Matrix::from_fn(n, n, |r, k| if r == k { -1.0 } else { 0.0 });
    let ones = Matrix::from_fn(1, n, |_, _| 1.0);
    let r = if capped {
        mults.push(v);
        let a_in = Matrix::from_fn(n + 1, n, |r, k| {
            if r == n {
                1.0
            } else if r == k {
                -1.0
            } else {
                0.0
            }
        });
        let mut b_in = vec![0.0; n + 1];
        b_in[n] = s;
        kkt::qp_residuals(&f, &Matrix::zeros(0, n), &[], &a_in, &b_in, x, &[], &mults)
    } else {
        kkt::qp_residuals(&f, &ones, &[s], &bounds, &vec![0.0; n], x, &[v], &mults)
    };
    r.max()
}

/// Runs every engine and oracle on one case.
///
/// `worker` is the `ufc-node` binary for the socket engine; `None` skips
/// socket legs (they are also skipped unless [`FuzzCase::socket`]).
///
/// # Errors
///
/// Returns a [`CaseFailure`] describing the first cross-check that broke.
#[allow(clippy::too_many_lines)] // linear checklist: one oracle per block
pub fn check_case(case: &FuzzCase, worker: Option<&Path>) -> Result<CaseOutcome, CaseFailure> {
    // --- Construction must be deterministic, and match the expectation.
    let first = case.params.build();
    let second = case.params.build();
    match (&first, &second) {
        (Ok(a), Ok(b)) if a == b => {}
        (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
        (a, b) => {
            return Err(fail(
                "nondeterministic-build",
                format!("two builds of the same parameters disagree: {a:?} vs {b:?}"),
            ));
        }
    }
    let inst = match first {
        Ok(inst) => {
            if case.expect_reject {
                return Err(fail(
                    "expectation",
                    "case expects a typed rejection but the instance built",
                ));
            }
            inst
        }
        Err(e) => {
            if case.expect_reject {
                return Ok(CaseOutcome::Rejected);
            }
            return Err(fail(
                "expectation",
                format!("case expects a solution but construction failed: {e}"),
            ));
        }
    };

    let main_settings = settings_for(case);
    // The thread count must not change a single bit.
    let ref_settings = main_settings.with_threads(1);
    let mem = AdmgSolver::new(main_settings).solve(&inst, case.strategy);
    let reference = AdmgSolver::new(ref_settings).solve(&inst, case.strategy);

    let (mem, reference) = match (mem, reference) {
        (Ok(m), Ok(r)) => (m, r),
        (Err(a), Err(b)) => {
            if error_key(&a) != error_key(&b) {
                return Err(fail(
                    "error-divergence",
                    format!("knob sets reject differently: `{a}` vs `{b}`"),
                ));
            }
            // The lockstep engine must reject with the same error.
            let lockstep = DistributedAdmg::new(main_settings).execute(
                &inst,
                case.strategy,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            );
            match lockstep {
                Err(e) if error_key(&e) == error_key(&a) => {}
                Err(e) => {
                    return Err(fail(
                        "error-divergence",
                        format!("lockstep rejects with `{e}`, in-process with `{a}`"),
                    ));
                }
                Ok(_) => {
                    return Err(fail(
                        "error-divergence",
                        format!("lockstep solves what the in-process engine rejects (`{a}`)"),
                    ));
                }
            }
            return Ok(CaseOutcome::Rejected);
        }
        (a, b) => {
            return Err(fail(
                "error-divergence",
                format!(
                    "knob sets disagree about solvability: main {:?} vs reference {:?}",
                    a.as_ref().map(|s| s.converged),
                    b.as_ref().map(|s| s.converged),
                ),
            ));
        }
    };

    // --- Knob contract: the thread count is a bitwise knob.
    if mem.state != reference.state || mem.iterations != reference.iterations {
        return Err(fail(
            "knob-bitwise",
            format!(
                "threads={} must be bit-identical to threads=1 (iterations {} vs {})",
                case.threads, mem.iterations, reference.iterations
            ),
        ));
    }
    check_block_kernels(&inst, case.strategy, main_settings.rho, mem.iterations)?;

    // --- Engine bit-identity: the lockstep runtime, same knobs. It streams
    // its per-iterate residuals through an observer, so the whole KKT
    // trajectory — not just the final point — is cross-checked against the
    // in-process history.
    let dist = DistributedAdmg::new(main_settings);
    let mut recorder = HistoryRecorder::default();
    let rep = dist
        .execute(
            &inst,
            case.strategy,
            &RunSpec::new(Engine::Lockstep),
            &mut recorder,
        )
        .map_err(|e| {
            fail(
                "engine-divergence",
                format!("lockstep fails (`{e}`) where the in-process engine solves"),
            )
        })?;
    if rep.iterations != mem.iterations || rep.point != mem.point || rep.converged != mem.converged
    {
        return Err(fail(
            "engine-divergence",
            format!(
                "lockstep disagrees with in-process: iterations {} vs {}, UFC {} vs {}",
                rep.iterations,
                mem.iterations,
                rep.breakdown.ufc(),
                mem.breakdown.ufc()
            ),
        ));
    }
    check_residual_trajectory("lockstep", &mem.history, &recorder.into_history())?;

    // --- Socket engine on the sampled subset.
    let socket = worker
        .filter(|_| case.socket)
        .map(|worker| Engine::Sockets(SocketOptions::new(worker)));
    if let Some(engine) = &socket {
        let rep = dist
            .execute(&inst, case.strategy, &RunSpec::new(engine.clone()), &mut ())
            .map_err(|e| {
                fail(
                    "engine-divergence",
                    format!("socket engine fails (`{e}`) where in-process solves"),
                )
            })?;
        if rep.iterations != mem.iterations || rep.point != mem.point {
            return Err(fail(
                "engine-divergence",
                format!(
                    "socket engine disagrees with in-process: iterations {} vs {}, \
                     UFC {} vs {}",
                    rep.iterations,
                    mem.iterations,
                    rep.breakdown.ufc(),
                    mem.breakdown.ufc()
                ),
            ));
        }
    }

    // The engines the fault and corruption legs run on: lockstep, and the
    // socket engine on the sampled subset.
    let mut engines = vec![("lockstep", Engine::Lockstep)];
    engines.extend(socket.clone().map(|engine| ("socket engine", engine)));

    // --- Crash/recovery leg: a deterministic recovering fault plan
    // derived from `fault_seed` crashes one node mid-run; the checkpoint
    // restart must land back on the clean operating point bit-for-bit on
    // every fleet of the supervisor — inline (lockstep), and worker
    // processes when the socket engine is sampled in. (A crash iteration
    // past the run's length simply never fires — the contract still holds
    // trivially.) The ladder only declares dead a node that no longer runs,
    // and grants a live one an extension, so a 20 ms rung cannot
    // misdiagnose a slow worker. (A killed node is declared dead without
    // waiting out the ladder on every fleet.)
    if let (Some(fseed), true) = (case.fault_seed, mem.converged) {
        let mut frng = SplitMix64::new(fseed);
        let node = if frng.chance(0.5) {
            NodeId::Frontend(frng.below(inst.arrivals.len()))
        } else {
            NodeId::Datacenter(frng.below(inst.capacities.len()))
        };
        let crash_at = 2 + frng.below(6);
        let plan = FaultPlan::new()
            .crash_and_recover(node, crash_at, 1)
            .with_phase_timeout(Duration::from_millis(20));
        for (name, engine) in &engines {
            let rep = dist
                .execute(
                    &inst,
                    case.strategy,
                    &RunSpec::new(engine.clone()).with_plan(plan.clone()),
                    &mut (),
                )
                .map_err(|e| {
                    fail(
                        "fault-recovery",
                        format!(
                            "{name} with {node:?} crashing at iteration {crash_at} fails \
                             (`{e}`) where the clean run solves"
                        ),
                    )
                })?;
            if rep.point != mem.point {
                return Err(fail(
                    "fault-recovery",
                    format!(
                        "{name} recovery from a {node:?} crash at iteration {crash_at} lands \
                         off the clean point: UFC {} vs {}",
                        rep.breakdown.ufc(),
                        mem.breakdown.ufc()
                    ),
                ));
            }
        }
    }

    // --- Corruption leg. Verified posture: every engine must repair the
    // seeded §12 poison, reproduce the clean point bit-for-bit, and
    // deliver nothing corrupt. Unverified posture: poison may reach the
    // iterate stream, so a run converges or ends in a typed error from the
    // corruption/divergence classes — never a panic — and, when the socket
    // engine is sampled in, both engines reach the same outcome: the same
    // point, or the same typed error. Never a silently different answer on
    // one engine only.
    if let (Some(cseed), true) = (case.corrupt_seed, mem.converged) {
        let cfg = CorruptionConfig::new(1e-2, cseed);
        let verified_cfg = cfg.with_checksums(true);
        for (name, engine) in &engines {
            let rep = dist
                .execute(
                    &inst,
                    case.strategy,
                    &RunSpec::new(engine.clone()).with_corruption(verified_cfg),
                    &mut (),
                )
                .map_err(|e| {
                    fail(
                        "corrupt-verified",
                        format!("verified {name} fails (`{e}`) instead of repairing"),
                    )
                })?;
            if rep.point != mem.point {
                return Err(fail(
                    "corrupt-verified",
                    format!(
                        "verified {name} lands off the clean point: UFC {} vs {}",
                        rep.breakdown.ufc(),
                        mem.breakdown.ufc()
                    ),
                ));
            }
            let delivered = rep
                .integrity
                .map_or(0, |counters| counters.corruptions_delivered);
            if delivered != 0 {
                return Err(fail(
                    "corrupt-verified",
                    format!("verified {name} delivered {delivered} corrupt payloads"),
                ));
            }
        }
        let unverified = |engine: &Engine| {
            dist.execute(
                &inst,
                case.strategy,
                &RunSpec::new(engine.clone()).with_corruption(cfg),
                &mut (),
            )
        };
        let lock = unverified(&Engine::Lockstep);
        if let Err(e) = &lock {
            // The exact λ/a kernels turn poison into NaN blocks for the
            // divergence gate; no node step can fail.
            let typed = matches!(
                e,
                CoreError::Divergence { .. }
                    | CoreError::CorruptPayload { .. }
                    | CoreError::NotConverged { .. }
            );
            if !typed {
                return Err(fail(
                    "corrupt-unverified",
                    format!("unverified poison surfaced an unexpected error class: `{e}`"),
                ));
            }
        }
        if let Some(engine) = &socket {
            match (lock, unverified(engine)) {
                (Ok(a), Ok(b)) => {
                    if a.point != b.point {
                        return Err(fail(
                            "corrupt-unverified",
                            format!(
                                "unverified engines both converge but disagree: UFC {} vs {}",
                                a.breakdown.ufc(),
                                b.breakdown.ufc()
                            ),
                        ));
                    }
                }
                (Err(a), Err(b)) => {
                    if error_key(&a) != error_key(&b) {
                        return Err(fail(
                            "corrupt-unverified",
                            format!("unverified engines fail differently: `{a}` vs `{b}`"),
                        ));
                    }
                }
                (a, b) => {
                    return Err(fail(
                        "corrupt-unverified",
                        format!(
                            "unverified engines disagree on solvability: lockstep {:?} vs \
                             socket engine {:?}",
                            a.map(|r| r.converged),
                            b.map(|r| r.converged)
                        ),
                    ));
                }
            }
        }
    }

    // --- Feasibility of the polished point.
    let residual = mem.point.feasibility_residual(&inst);
    if residual.is_nan() || residual > FEASIBILITY_TOL {
        return Err(fail(
            "oracle-feasibility",
            format!("polished point violates constraints by {residual:e}"),
        ));
    }

    // --- Centralized QP oracle (skips its typed unsupported corners:
    // stepped tariffs; only meaningful against a converged ADM-G run).
    // Storage instances are out of the oracle's scope: the assembled QP
    // has no battery/ramp variables, so ADM-G's storage value legitimately
    // beats it and the recovered point can violate ramp limits.
    if mem.converged && inst.storage.is_none() {
        // The ADMM backend can itself fail to converge on deliberately
        // ill-conditioned instances; fall back to the exact dense
        // active-set backend (fuzz instances are tiny, right at its scale)
        // before declaring the oracle unavailable.
        let central =
            centralized::solve(&inst, case.strategy, centralized::Backend::Admm).or_else(|e| {
                if matches!(e, CoreError::Unsupported { .. }) {
                    Err(e)
                } else {
                    centralized::solve(&inst, case.strategy, centralized::Backend::ActiveSet)
                }
            });
        // An Err here is an unsupported corner or an oracle that cannot
        // answer (both backends failed): skip, the other oracles still
        // apply.
        if let Ok(cen) = central {
            let gap = rel_gap(mem.breakdown.ufc(), cen.breakdown.ufc());
            if gap > CENTRAL_REL_TOL {
                return Err(fail(
                    "oracle-central",
                    format!(
                        "UFC {} vs centralized {} (rel {gap:e})",
                        mem.breakdown.ufc(),
                        cen.breakdown.ufc()
                    ),
                ));
            }
        }
    }

    // --- Generic matrix-form correction oracle: one reference correction
    // step from a pseudo-random iterate must match the closed form. The
    // matrix-form reference models the 4-block core only, so storage
    // instances (whose closed form corrects the extra `d` row) are out of
    // its scope. An inactive block is pinned at zero in *both* iterates,
    // matching the strategy restriction the solvers enforce.
    if inst.storage.is_none() {
        if let Ok((active_mu, active_nu)) = case.strategy.block_activation(&inst) {
            let mut rng = SplitMix64::new(0x5EED ^ mem.iterations as u64);
            let mut state = pseudo_random_state(&inst, &mut rng);
            let mut tilde = pseudo_random_state(&inst, &mut rng);
            if !active_mu {
                state.mu.iter_mut().for_each(|v| *v = 0.0);
                tilde.mu.iter_mut().for_each(|v| *v = 0.0);
            }
            if !active_nu {
                state.nu.iter_mut().for_each(|v| *v = 0.0);
                tilde.nu.iter_mut().for_each(|v| *v = 0.0);
            }
            match generic::correction_reference(&inst, &state, &tilde, 0.9, active_mu, active_nu) {
                Ok(generic_state) => {
                    let mut closed = state.clone();
                    correction::gaussian_back_substitution(
                        &inst,
                        &mut closed,
                        &tilde,
                        0.9,
                        active_mu,
                        active_nu,
                    );
                    let pairs = generic_state
                        .mu
                        .iter()
                        .zip(&closed.mu)
                        .chain(generic_state.nu.iter().zip(&closed.nu))
                        .chain(generic_state.a.iter().zip(&closed.a))
                        .chain(generic_state.phi.iter().zip(&closed.phi))
                        .chain(generic_state.varphi.iter().zip(&closed.varphi));
                    for (k, (x, y)) in pairs.enumerate() {
                        let diff = (x - y).abs();
                        if diff.is_nan() || diff > GENERIC_TOL {
                            return Err(fail(
                                "oracle-generic",
                                format!(
                                    "matrix-form and closed-form corrections differ at \
                                 component {k}: {x} vs {y}"
                                ),
                            ));
                        }
                    }
                }
                // A typed numerical failure is a report, not an abort; the UFC
                // structure should never produce one (Theorem 1).
                Err(e) => {
                    return Err(fail(
                        "oracle-generic",
                        format!("matrix-form reference failed: {e}"),
                    ));
                }
            }
        }
    }

    Ok(CaseOutcome::Solved)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

fn remove_frontend(p: &InstanceParams, i: usize) -> InstanceParams {
    let mut q = p.clone();
    q.arrivals.remove(i);
    q.latency_s.remove(i);
    q
}

fn remove_datacenter(p: &InstanceParams, j: usize) -> InstanceParams {
    let mut q = p.clone();
    q.capacities.remove(j);
    q.alpha.remove(j);
    q.beta.remove(j);
    q.mu_max.remove(j);
    q.grid_price.remove(j);
    q.carbon_t_per_mwh.remove(j);
    q.emission_cost.remove(j);
    for row in &mut q.latency_s {
        if j < row.len() {
            row.remove(j);
        }
    }
    if let Some(sp) = &mut q.storage {
        for v in [
            &mut sp.capacity_mwh,
            &mut sp.charge_mwh,
            &mut sp.charge_rate_mw,
            &mut sp.discharge_rate_mw,
            &mut sp.value_per_mwh,
            &mut sp.ramp_mw,
            &mut sp.mu_prev_mw,
        ] {
            if j < v.len() {
                v.remove(j);
            }
        }
    }
    q
}

fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let m = case.params.arrivals.len();
    let n = case.params.capacities.len();
    for i in 0..m {
        if m > 1 {
            let mut c = case.clone();
            c.params = remove_frontend(&case.params, i);
            out.push(c);
        }
    }
    for j in 0..n {
        if n > 1 {
            let mut c = case.clone();
            c.params = remove_datacenter(&case.params, j);
            out.push(c);
        }
    }
    if case.params.storage.is_some() {
        let mut c = case.clone();
        c.params.storage = None;
        out.push(c);
    }
    if case
        .params
        .emission_cost
        .iter()
        .any(|v| !matches!(v, EmissionCostFn::Linear { .. }))
    {
        let mut c = case.clone();
        for v in &mut c.params.emission_cost {
            *v = EmissionCostFn::Linear { rate: 25.0 };
        }
        out.push(c);
    }
    if case.params.slot_hours != 1.0 {
        let mut c = case.clone();
        c.params.slot_hours = 1.0;
        out.push(c);
    }
    // One thread (kept only if the failure still fires).
    if case.threads != 1 {
        let mut c = case.clone();
        c.threads = 1;
        out.push(c);
    }
    if case.socket {
        let mut c = case.clone();
        c.socket = false;
        out.push(c);
    }
    // Drop the fault/corruption legs: if the failure survives without
    // them, the reproducer should not pay for them on every replay.
    if case.fault_seed.is_some() {
        let mut c = case.clone();
        c.fault_seed = None;
        out.push(c);
    }
    if case.corrupt_seed.is_some() {
        let mut c = case.clone();
        c.corrupt_seed = None;
        out.push(c);
    }
    out
}

/// Greedily shrinks a failing case while the same failure *kind*
/// reproduces. Returns the minimal reproducer (possibly the input itself).
#[must_use]
pub fn shrink_case(case: &FuzzCase, failure: &CaseFailure, worker: Option<&Path>) -> FuzzCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            if let Err(f) = check_case(&cand, worker) {
                if f.kind == failure.kind {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return best;
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus codec — a line-oriented `key = value` text format. Floats are
// written with `{:?}`, which round-trips f64 exactly (including `inf`).
// ---------------------------------------------------------------------------

fn write_vec(out: &mut String, key: &str, v: &[f64]) {
    let joined = v
        .iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "{key} = {joined}");
}

fn emission_text(v: &EmissionCostFn) -> String {
    match v {
        EmissionCostFn::Linear { rate } => format!("linear {rate:?}"),
        EmissionCostFn::Quadratic { linear, quad } => format!("quadratic {linear:?} {quad:?}"),
        EmissionCostFn::Stepped { thresholds, rates } => {
            let t = thresholds
                .iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",");
            let r = rates
                .iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("stepped {t} {r}")
        }
    }
}

/// Serializes a case to the corpus text format. `note` becomes a leading
/// comment (what failed, which seed produced it).
#[must_use]
pub fn encode_case(case: &FuzzCase, note: &str) -> String {
    let mut out = String::new();
    for line in note.lines() {
        let _ = writeln!(out, "# {line}");
    }
    let _ = writeln!(out, "strategy = {:?}", case.strategy);
    let _ = writeln!(out, "threads = {}", case.threads);
    let _ = writeln!(out, "socket = {}", case.socket);
    if let Some(fseed) = case.fault_seed {
        let _ = writeln!(out, "fault_seed = {fseed}");
    }
    if let Some(cseed) = case.corrupt_seed {
        let _ = writeln!(out, "corrupt_seed = {cseed}");
    }
    let _ = writeln!(
        out,
        "expect = {}",
        if case.expect_reject {
            "reject"
        } else {
            "solve"
        }
    );
    let p = &case.params;
    write_vec(&mut out, "arrivals", &p.arrivals);
    write_vec(&mut out, "capacities", &p.capacities);
    write_vec(&mut out, "alpha", &p.alpha);
    write_vec(&mut out, "beta", &p.beta);
    write_vec(&mut out, "mu_max", &p.mu_max);
    write_vec(&mut out, "grid_price", &p.grid_price);
    let _ = writeln!(out, "fuel_cell_price = {:?}", p.fuel_cell_price);
    write_vec(&mut out, "carbon", &p.carbon_t_per_mwh);
    for row in &p.latency_s {
        write_vec(&mut out, "latency_row", row);
    }
    let _ = writeln!(out, "weight_per_server = {:?}", p.weight_per_server);
    for v in &p.emission_cost {
        let _ = writeln!(out, "emission = {}", emission_text(v));
    }
    let _ = writeln!(out, "slot_hours = {:?}", p.slot_hours);
    if let Some(sp) = &p.storage {
        write_vec(&mut out, "storage_capacity_mwh", &sp.capacity_mwh);
        write_vec(&mut out, "storage_charge_mwh", &sp.charge_mwh);
        write_vec(&mut out, "storage_charge_rate_mw", &sp.charge_rate_mw);
        write_vec(&mut out, "storage_discharge_rate_mw", &sp.discharge_rate_mw);
        write_vec(&mut out, "storage_value_per_mwh", &sp.value_per_mwh);
        let _ = writeln!(out, "storage_degradation = {:?}", sp.degradation_per_mwh);
        write_vec(&mut out, "storage_ramp_mw", &sp.ramp_mw);
        write_vec(&mut out, "storage_mu_prev_mw", &sp.mu_prev_mw);
    }
    out
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .map_err(|e| format!("bad float {s:?}: {e}"))
}

fn parse_vec(s: &str) -> Result<Vec<f64>, String> {
    s.split_whitespace().map(parse_f64).collect()
}

fn parse_emission(s: &str) -> Result<EmissionCostFn, String> {
    let mut parts = s.split_whitespace();
    match parts.next() {
        Some("linear") => Ok(EmissionCostFn::Linear {
            rate: parse_f64(parts.next().ok_or("linear tax needs a rate")?)?,
        }),
        Some("quadratic") => Ok(EmissionCostFn::Quadratic {
            linear: parse_f64(parts.next().ok_or("quadratic tax needs two coefficients")?)?,
            quad: parse_f64(parts.next().ok_or("quadratic tax needs two coefficients")?)?,
        }),
        Some("stepped") => {
            let t = parts
                .next()
                .ok_or("stepped tax needs thresholds and rates")?;
            let r = parts
                .next()
                .ok_or("stepped tax needs thresholds and rates")?;
            Ok(EmissionCostFn::Stepped {
                thresholds: t.split(',').map(parse_f64).collect::<Result<_, _>>()?,
                rates: r.split(',').map(parse_f64).collect::<Result<_, _>>()?,
            })
        }
        other => Err(format!("unknown emission shape {other:?}")),
    }
}

/// Parses a corpus text file back into a case.
///
/// # Errors
///
/// Returns a description of the first malformed line or missing field.
#[allow(clippy::too_many_lines)] // one match arm per corpus key
pub fn decode_case(text: &str) -> Result<FuzzCase, String> {
    let mut strategy = None;
    let mut threads = 1usize;
    let mut socket = false;
    let (mut fault_seed, mut corrupt_seed) = (None, None);
    let mut expect_reject = None;
    let mut fields: std::collections::HashMap<&str, Vec<f64>> = std::collections::HashMap::new();
    let mut latency_rows: Vec<Vec<f64>> = Vec::new();
    let mut emissions: Vec<EmissionCostFn> = Vec::new();
    let (mut fuel_cell_price, mut weight, mut slot_hours, mut degradation) =
        (None, None, None, None);

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line without `=`: {line:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "strategy" => {
                strategy = Some(match value {
                    "Hybrid" => Strategy::Hybrid,
                    "GridOnly" => Strategy::GridOnly,
                    "FuelCellOnly" => Strategy::FuelCellOnly,
                    other => return Err(format!("unknown strategy {other:?}")),
                });
            }
            "threads" => threads = value.parse().map_err(|e| format!("threads: {e}"))?,
            "socket" => socket = value.parse().map_err(|e| format!("socket: {e}"))?,
            "fault_seed" => {
                fault_seed = Some(value.parse().map_err(|e| format!("fault_seed: {e}"))?);
            }
            "corrupt_seed" => {
                corrupt_seed = Some(value.parse().map_err(|e| format!("corrupt_seed: {e}"))?);
            }
            "expect" => {
                expect_reject = Some(match value {
                    "reject" => true,
                    "solve" => false,
                    other => return Err(format!("expect must be solve|reject, got {other:?}")),
                });
            }
            "latency_row" => latency_rows.push(parse_vec(value)?),
            "emission" => emissions.push(parse_emission(value)?),
            "fuel_cell_price" => fuel_cell_price = Some(parse_f64(value)?),
            "weight_per_server" => weight = Some(parse_f64(value)?),
            "slot_hours" => slot_hours = Some(parse_f64(value)?),
            "storage_degradation" => degradation = Some(parse_f64(value)?),
            "arrivals"
            | "capacities"
            | "alpha"
            | "beta"
            | "mu_max"
            | "grid_price"
            | "carbon"
            | "storage_capacity_mwh"
            | "storage_charge_mwh"
            | "storage_charge_rate_mw"
            | "storage_discharge_rate_mw"
            | "storage_value_per_mwh"
            | "storage_ramp_mw"
            | "storage_mu_prev_mw" => {
                fields.insert(key, parse_vec(value)?);
            }
            other => return Err(format!("unknown corpus key {other:?}")),
        }
    }

    let has_storage = fields.contains_key("storage_capacity_mwh");
    let mut take =
        |k: &str| -> Result<Vec<f64>, String> { fields.remove(k).ok_or(format!("missing {k}")) };
    let params = InstanceParams {
        arrivals: take("arrivals")?,
        capacities: take("capacities")?,
        alpha: take("alpha")?,
        beta: take("beta")?,
        mu_max: take("mu_max")?,
        grid_price: take("grid_price")?,
        fuel_cell_price: fuel_cell_price.ok_or("missing fuel_cell_price")?,
        carbon_t_per_mwh: take("carbon")?,
        latency_s: latency_rows,
        weight_per_server: weight.ok_or("missing weight_per_server")?,
        emission_cost: emissions,
        slot_hours: slot_hours.ok_or("missing slot_hours")?,
        storage: if has_storage {
            Some(StorageParams {
                capacity_mwh: take("storage_capacity_mwh")?,
                charge_mwh: take("storage_charge_mwh")?,
                charge_rate_mw: take("storage_charge_rate_mw")?,
                discharge_rate_mw: take("storage_discharge_rate_mw")?,
                value_per_mwh: take("storage_value_per_mwh")?,
                degradation_per_mwh: degradation.ok_or("missing storage_degradation")?,
                ramp_mw: take("storage_ramp_mw")?,
                mu_prev_mw: take("storage_mu_prev_mw")?,
            })
        } else {
            None
        },
    };
    Ok(FuzzCase {
        params,
        strategy: strategy.ok_or("missing strategy")?,
        threads,
        expect_reject: expect_reject.ok_or("missing expect")?,
        socket,
        fault_seed,
        corrupt_seed,
    })
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// One recorded failure of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Where the failing case came from (a seed, or a corpus file name).
    pub label: String,
    /// Stable failure class.
    pub kind: String,
    /// Full description.
    pub message: String,
    /// Shrunk reproducer persisted to the corpus, when one was written.
    pub reproducer: Option<PathBuf>,
}

/// Aggregate results of one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Corpus files replayed (all must pass).
    pub corpus_replayed: usize,
    /// Freshly generated cases checked.
    pub generated: usize,
    /// Cases that solved on every engine.
    pub solved: usize,
    /// Cases rejected with an identical typed error everywhere.
    pub rejected: usize,
    /// Cases that exercised the multi-process socket engine.
    pub socket_runs: usize,
    /// Cases that exercised the crash/recovery leg.
    pub faulty_runs: usize,
    /// Cases that exercised the corruption leg.
    pub corrupt_runs: usize,
    /// Generated cases mutated from a corpus reproducer.
    pub mutated: usize,
    /// Cross-check failures (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

/// Replays the corpus under `corpus_dir`, then generates and checks
/// `cases` fresh cases from `seed`. Failing generated cases are shrunk and
/// persisted to the corpus as `fuzz-<seed>.case` so they become permanent
/// regression tests.
///
/// `worker` enables the socket-engine legs when the `ufc-node` binary is
/// available.
///
/// # Errors
///
/// Propagates corpus-directory I/O failures, a missing directory included
/// (a run that replays no corpus would pass vacuously); the error names
/// the directory's resolved path. Cross-check failures are *reported* in
/// the returned [`FuzzReport`], not raised as errors.
pub fn run(
    seed: u64,
    cases: usize,
    corpus_dir: &Path,
    worker: Option<&Path>,
) -> std::io::Result<FuzzReport> {
    run_with(seed, cases, corpus_dir, worker, false, false)
}

/// Like [`run`], with the full knob set: `mutate_corpus` biases generation
/// toward committed counterexamples (each fresh case mutates a decoded
/// corpus reproducer instead of sampling blind — nearby inputs to a past
/// finding are far likelier to hit the same cliff), and `faults` forces
/// the crash/recovery and corruption legs onto every generated case.
///
/// # Errors
///
/// Propagates corpus-directory I/O failures, like [`run`].
pub fn run_with(
    seed: u64,
    cases: usize,
    corpus_dir: &Path,
    worker: Option<&Path>,
    mutate_corpus: bool,
    faults: bool,
) -> std::io::Result<FuzzReport> {
    let mut report = FuzzReport::default();

    // --- Corpus replay first: past findings must stay fixed.
    let entries = std::fs::read_dir(corpus_dir).map_err(|e| {
        let resolved = std::path::absolute(corpus_dir).unwrap_or_else(|_| corpus_dir.into());
        std::io::Error::new(
            e.kind(),
            format!("corpus directory {}: {e}", resolved.display()),
        )
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    let mut bases: Vec<FuzzCase> = Vec::new();
    for path in paths {
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let text = std::fs::read_to_string(&path)?;
        report.corpus_replayed += 1;
        match decode_case(&text) {
            Ok(case) => {
                if let Err(f) = check_case(&case, worker) {
                    report.failures.push(FuzzFailure {
                        label,
                        kind: f.kind,
                        message: f.message,
                        reproducer: Some(path),
                    });
                } else {
                    bump(&mut report, &case);
                }
                bases.push(case);
            }
            Err(e) => report.failures.push(FuzzFailure {
                label,
                kind: "corpus-decode".to_owned(),
                message: e,
                reproducer: Some(path),
            }),
        }
    }

    // --- Fresh cases.
    let mut rng = SplitMix64::new(seed);
    for _ in 0..cases {
        let case_seed = rng.next_u64();
        let mut case = if mutate_corpus && !bases.is_empty() {
            report.mutated += 1;
            let base = &bases[rng.below(bases.len())];
            mutate_case(base, &mut SplitMix64::new(case_seed))
        } else {
            arbitrary_case(case_seed)
        };
        if faults && !case.expect_reject {
            case.fault_seed
                .get_or_insert(case_seed ^ 0xFA57_FA17_5EED_0001);
            case.corrupt_seed
                .get_or_insert(case_seed ^ 0xC022_4B17_5EED_0002);
        }
        report.generated += 1;
        match check_case(&case, worker) {
            Ok(_) => bump(&mut report, &case),
            Err(f) => {
                let shrunk = shrink_case(&case, &f, worker);
                let shrunk_failure = match check_case(&shrunk, worker) {
                    Err(sf) => sf,
                    Ok(_) => f.clone(), // shrinker raced a nondeterminism; keep the original
                };
                let note = format!(
                    "repro fuzz reproducer — seed {case_seed:#018x}\nkind: {}\n{}",
                    shrunk_failure.kind, shrunk_failure.message
                );
                let path = corpus_dir.join(format!("fuzz-{case_seed:016x}.case"));
                std::fs::create_dir_all(corpus_dir)?;
                std::fs::write(&path, encode_case(&shrunk, &note))?;
                report.failures.push(FuzzFailure {
                    label: format!("seed {case_seed:#018x}"),
                    kind: shrunk_failure.kind,
                    message: shrunk_failure.message,
                    reproducer: Some(path),
                });
            }
        }
    }
    Ok(report)
}

fn bump(report: &mut FuzzReport, case: &FuzzCase) {
    if case.expect_reject {
        report.rejected += 1;
    } else {
        report.solved += 1;
        if case.socket {
            report.socket_runs += 1;
        }
        if case.fault_seed.is_some() {
            report.faulty_runs += 1;
        }
        if case.corrupt_seed.is_some() {
            report.corrupt_runs += 1;
        }
    }
}

/// Deterministically perturbs a corpus reproducer into a fresh case:
/// one to three stacked tweaks of the inputs or knobs, with the rejection
/// expectation recomputed for the mutant. Socket legs are dropped —
/// mutation is about throughput around a known cliff, not engine
/// coverage — and the fault/corruption seeds are inherited unchanged.
#[must_use]
pub fn mutate_case(base: &FuzzCase, rng: &mut SplitMix64) -> FuzzCase {
    let mut case = base.clone();
    for _ in 0..1 + rng.below(3) {
        match rng.below(8) {
            0 => {
                let i = rng.below(case.params.arrivals.len().max(1));
                if let Some(v) = case.params.arrivals.get_mut(i) {
                    *v *= rng.uniform(0.0, 2.0);
                }
            }
            1 => {
                let j = rng.below(case.params.capacities.len().max(1));
                if let Some(v) = case.params.capacities.get_mut(j) {
                    *v *= rng.uniform(0.5, 2.0);
                }
            }
            2 => {
                let j = rng.below(case.params.grid_price.len().max(1));
                if let Some(v) = case.params.grid_price.get_mut(j) {
                    *v *= rng.uniform(0.25, 4.0);
                }
            }
            3 => {
                let j = rng.below(case.params.mu_max.len().max(1));
                let zero = rng.chance(0.3);
                let scale = rng.uniform(0.5, 1.5);
                if let Some(v) = case.params.mu_max.get_mut(j) {
                    *v = if zero { 0.0 } else { *v * scale };
                }
            }
            4 => {
                case.strategy = match rng.below(3) {
                    0 => Strategy::Hybrid,
                    1 => Strategy::GridOnly,
                    _ => Strategy::FuelCellOnly,
                };
            }
            5 => {
                case.threads = [1usize, 2, 4][rng.below(3)];
                // Retired caching, rank-1 and blocked knobs: their draws
                // keep mutants stable.
                let _ = rng.chance(0.5);
                let _ = rng.chance(0.5);
                let _ = rng.chance(0.5);
            }
            6 => case.params.fuel_cell_price *= rng.uniform(0.25, 4.0),
            _ => case.params.slot_hours *= rng.uniform(0.5, 2.0),
        }
    }
    case.socket = false;
    case.expect_reject = case.params.build().is_err();
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_generated_cases() {
        for seed in 0..60u64 {
            let case = arbitrary_case(seed);
            let text = encode_case(&case, "round-trip test");
            let back = decode_case(&text).unwrap();
            assert_eq!(case, back, "seed {seed} did not round-trip:\n{text}");
        }
    }

    /// Pins the knob draws of a few seeds to the values they had while the
    /// caching, rank-1 KKT and blocked-factorization knobs existed:
    /// dropping their draws would shift the later knobs of every seed.
    #[test]
    fn knob_draws_stay_pinned_to_their_seeds() {
        type Knobs = (usize, Strategy, bool, Option<u64>, Option<u64>);
        let pinned: [(u64, Knobs); 6] = [
            (0, (4, Strategy::GridOnly, false, None, None)),
            (7, (2, Strategy::Hybrid, false, None, None)),
            (
                42,
                (
                    2,
                    Strategy::Hybrid,
                    false,
                    Some(4_423_767_079_305_008_140),
                    None,
                ),
            ),
            (
                777,
                (
                    2,
                    Strategy::Hybrid,
                    false,
                    Some(8_037_712_325_510_734_474),
                    Some(10_133_761_228_450_535_208),
                ),
            ),
            (
                2012,
                (
                    2,
                    Strategy::Hybrid,
                    false,
                    None,
                    Some(15_434_267_377_973_705_859),
                ),
            ),
            (
                123_456_789,
                (
                    4,
                    Strategy::GridOnly,
                    true,
                    None,
                    Some(5_779_671_642_922_296_309),
                ),
            ),
        ];
        for (seed, knobs) in pinned {
            let c = arbitrary_case(seed);
            let drawn = (
                c.threads,
                c.strategy,
                c.socket,
                c.fault_seed,
                c.corrupt_seed,
            );
            assert_eq!(drawn, knobs, "seed {seed}");
        }
    }

    #[test]
    fn codec_rejects_the_retired_cache_key() {
        let text = encode_case(&arbitrary_case(0), "retired key");
        let err = decode_case(&format!("cache = true\n{text}")).unwrap_err();
        assert!(err.contains("cache"), "{err}");
    }

    #[test]
    fn codec_rejects_the_retired_kernel_keys() {
        let text = encode_case(&arbitrary_case(0), "retired keys");
        for key in ["rank1_kkt", "blocked"] {
            let err = decode_case(&format!("{key} = true\n{text}")).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn codec_round_trips_fault_and_corrupt_seeds() {
        let mut case = arbitrary_case(0);
        case.fault_seed = Some(u64::MAX);
        case.corrupt_seed = Some(7);
        let back = decode_case(&encode_case(&case, "seed round-trip")).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn fault_and_corrupt_legs_pass_on_a_known_good_seed() {
        let seed = (0..64u64)
            .find(|&s| {
                let c = arbitrary_case(s);
                !c.expect_reject && !c.socket
            })
            .expect("some seed must build");
        let mut case = arbitrary_case(seed);
        case.fault_seed = Some(7);
        case.corrupt_seed = Some(11);
        assert_eq!(check_case(&case, None).unwrap(), CaseOutcome::Solved);
    }

    #[test]
    fn residual_divergence_is_a_typed_failure() {
        let record = |link: f64| IterationRecord {
            iteration: 0,
            link_residual: link,
            balance_residual: 1.0,
            dual_residual: 1.0,
            objective: f64::NAN,
        };
        assert!(check_residual_trajectory("lockstep", &[record(1.0)], &[record(1.0)]).is_ok());
        let f = check_residual_trajectory("lockstep", &[record(1.0)], &[record(2.0)]).unwrap_err();
        assert_eq!(f.kind, "residual-divergence");
        let f =
            check_residual_trajectory("lockstep", &[record(1.0)], &[record(f64::NAN)]).unwrap_err();
        assert_eq!(f.kind, "residual-divergence");
        let f = check_residual_trajectory("lockstep", &[record(1.0)], &[]).unwrap_err();
        assert_eq!(f.kind, "residual-divergence");
        // One ulp is a divergence: every engine steps the same nodes.
        let ulp = record(1.0f64.next_up());
        let f = check_residual_trajectory("lockstep", &[record(1.0)], &[ulp]).unwrap_err();
        assert_eq!(f.kind, "residual-divergence");
    }

    /// A corpus directory that does not exist is an error naming its
    /// resolved path, not an empty corpus that passes vacuously.
    #[test]
    fn missing_corpus_directory_is_an_error() {
        let dir = Path::new("no-such-corpus-directory");
        let err = run_with(1, 0, dir, None, false, false).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        let resolved = std::path::absolute(dir).unwrap();
        assert!(
            err.to_string().contains(&resolved.display().to_string()),
            "{err}"
        );
    }

    #[test]
    fn mutate_case_is_deterministic_and_recomputes_expectation() {
        let seed = (0..64u64)
            .find(|&s| !arbitrary_case(s).expect_reject)
            .expect("some seed must build");
        let base = arbitrary_case(seed);
        let a = mutate_case(&base, &mut SplitMix64::new(42));
        let b = mutate_case(&base, &mut SplitMix64::new(42));
        assert_eq!(a, b, "mutation must be a pure function of (base, seed)");
        assert!(!a.socket, "mutants drop the socket leg");
        assert_eq!(a.expect_reject, a.params.build().is_err());
        // Different seeds must explore different mutants.
        let c = mutate_case(&base, &mut SplitMix64::new(43));
        let d = mutate_case(&base, &mut SplitMix64::new(44));
        assert!(a != c || a != d, "mutation must actually vary the case");
    }

    #[test]
    fn check_case_accepts_a_known_good_seed() {
        // Scan a few seeds for one that builds, then check it end to end
        // (sockets off — no worker binary in unit tests).
        let seed = (0..64u64)
            .find(|&s| {
                let c = arbitrary_case(s);
                !c.expect_reject && !c.socket
            })
            .expect("some seed must build");
        let case = arbitrary_case(seed);
        assert_eq!(check_case(&case, None).unwrap(), CaseOutcome::Solved);
    }

    #[test]
    fn rejection_cases_report_rejected() {
        let seed = (0..512u64)
            .find(|&s| arbitrary_case(s).expect_reject)
            .expect("some seed must be rejected");
        let case = arbitrary_case(seed);
        assert_eq!(check_case(&case, None).unwrap(), CaseOutcome::Rejected);
    }

    #[test]
    fn wrong_expectation_is_a_typed_failure() {
        let seed = (0..64u64)
            .find(|&s| !arbitrary_case(s).expect_reject)
            .unwrap();
        let mut case = arbitrary_case(seed);
        case.expect_reject = true;
        let f = check_case(&case, None).unwrap_err();
        assert_eq!(f.kind, "expectation");
    }

    #[test]
    fn shrinker_minimizes_an_expectation_failure() {
        // Force a failure whose kind survives any shrink that keeps the
        // instance buildable: claim a buildable case must be rejected.
        let seed = (0..256u64)
            .find(|&s| {
                let c = arbitrary_case(s);
                !c.expect_reject && c.params.arrivals.len() > 1 && c.params.capacities.len() > 1
            })
            .unwrap();
        let mut case = arbitrary_case(seed);
        case.expect_reject = true;
        let f = check_case(&case, None).unwrap_err();
        let shrunk = shrink_case(&case, &f, None);
        // Front-end removal never affects buildability, so it always
        // shrinks to a single front-end; datacenter removal can flip the
        // instance infeasible (which changes the failure kind), so the
        // shrinker keeps only the steps that stay buildable.
        assert_eq!(shrunk.params.arrivals.len(), 1);
        assert!(shrunk.params.capacities.len() <= case.params.capacities.len());
        assert!(shrunk.params.storage.is_none());
        // The shrunk case still fails the same way.
        assert_eq!(check_case(&shrunk, None).unwrap_err().kind, "expectation");
    }
}
