//! Node logic: the computation each participant of the distributed ADM-G
//! runs with only its own slice of the problem data (paper §III-C, Fig. 2).
//!
//! A [`FrontendNode`] knows its arrival, its latency row, the utility
//! weight, and its replicas of `a_i·` and `φ_i·`; a [`DatacenterNode`] knows
//! its power model, prices, carbon data, capacity, and its column of the
//! auxiliary routing. Neither sees the other side's data: every engine
//! moves exactly the `λ̃`/`ã` shares of the paper's Fig. 2 between them.
//!
//! This is the one copy of the block arithmetic. The in-process solver
//! (`crate::workspace`'s node transport) and the three distributed engines
//! of `ufc_distsim` (one supervisor over three fleets) all step these
//! nodes, so they run the same expressions in the same order and agree bit
//! for bit. The per-block steps of [`crate::subproblems`] and the
//! closed-form [`crate::correction`] stay as the references the nodes are
//! tested against.
//!
//! A node's iterate slice checkpoints as a [`FrontendSnapshot`] or
//! [`DatacenterSnapshot`], each with a self-describing little-endian byte
//! codec built from [`crate::state::codec`].

use ufc_model::{EmissionCostFn, UfcInstance};

use crate::engine::BlockResiduals;
use crate::state::codec;
use crate::subproblems::{mu_scalar_step_bounded, nu_scalar_step, storage_scalar_step};
use crate::{AColQp, AdmgSettings, AdmgState, CoreError, LambdaQp};

/// Magic prefix of front-end snapshot blobs (`UFCF` + version 2: the
/// eviction mask moved from an f64 vector to the codec's packed byte mask).
const FRONTEND_MAGIC: &[u8] = b"UFCF\x02";
/// Magic prefix of datacenter snapshot blobs (`UFCD` + version 2: the
/// scalar block grew a fourth slot for the battery net discharge `d_j`).
const DATACENTER_MAGIC: &[u8] = b"UFCD\x02";

/// NaN-sticky maximum: identical to [`f64::max`] for finite inputs, but a
/// NaN *poisons* the fold instead of vanishing (`f64::max` returns the
/// other operand when one side is NaN, which would hide a poisoned iterate
/// from the residual reduction and the divergence gate).
pub(crate) fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Residual contributions a node reports to the coordinator each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeResiduals {
    /// Local link residual `max_j |λ_ij − a_ij|` (front-end) or
    /// `max_i |λ_ij − a_ij|` (datacenter).
    pub link: f64,
    /// Local power-balance residual (datacenters only).
    pub balance: f64,
    /// ∞-norm movement of the locally owned corrected blocks.
    pub movement: f64,
}

impl NodeResiduals {
    fn track(&mut self, delta: f64) {
        self.movement = nan_max(self.movement, delta.abs());
    }

    /// Max-folds this report into the run-wide reduction `acc`
    /// (NaN-sticky, so a poisoned node cannot hide).
    pub fn fold_into(&self, acc: &mut BlockResiduals) {
        acc.link = nan_max(acc.link, self.link);
        acc.balance = nan_max(acc.balance, self.balance);
        acc.movement = nan_max(acc.movement, self.movement);
    }
}

/// A front-end proxy: owns `λ_i·`, replicas of `a_i·` and the link duals
/// `φ_i·`.
#[derive(Debug, Clone)]
pub struct FrontendNode {
    index: usize,
    arrival: f64,
    latencies: Vec<f64>,
    weight_per_kserver: f64,
    rho: f64,
    epsilon: f64,
    lambda: Vec<f64>,
    lambda_tilde: Vec<f64>,
    a: Vec<f64>,
    varphi: Vec<f64>,
    /// Degraded-mode mask: datacenters this front-end must not route to.
    evicted: Vec<bool>,
    /// The λ-QP kernel (its buffers are reused across rounds).
    qp: LambdaQp,
    /// Scratch buffer for the per-round linear term.
    c_buf: Vec<f64>,
}

impl FrontendNode {
    /// Extracts front-end `i`'s local data from the instance.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn new(instance: &UfcInstance, i: usize, settings: &AdmgSettings) -> Self {
        assert!(i < instance.m_frontends(), "front-end {i} out of range");
        let n = instance.n_datacenters();
        FrontendNode {
            index: i,
            arrival: instance.arrivals[i],
            latencies: instance.latency_s[i].clone(),
            weight_per_kserver: instance.weight_per_kserver(),
            rho: settings.rho,
            epsilon: settings.epsilon,
            lambda: vec![0.0; n],
            lambda_tilde: vec![0.0; n],
            a: vec![0.0; n],
            varphi: vec![0.0; n],
            evicted: vec![false; n],
            qp: LambdaQp::new(
                &instance.latency_s[i],
                instance.arrivals[i],
                instance.weight_per_kserver(),
                settings.rho,
            ),
            c_buf: vec![0.0; n],
        }
    }

    /// This node's front-end index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The current corrected routing row `λ_i·`.
    #[must_use]
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The last predicted row `λ̃_i·` (what [`Self::predict_lambda`]
    /// returned).
    #[must_use]
    pub fn lambda_tilde(&self) -> &[f64] {
        &self.lambda_tilde
    }

    /// Marks datacenter `j` as evicted and pins this front-end's `λ_ij`,
    /// `a_ij`, and `φ_ij` to zero (degraded-mode routing).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn set_evicted(&mut self, j: usize) {
        self.evicted[j] = true;
        self.lambda[j] = 0.0;
        self.lambda_tilde[j] = 0.0;
        self.a[j] = 0.0;
        self.varphi[j] = 0.0;
    }

    /// Clears the eviction mark for a re-admitted datacenter `j` (its
    /// blocks stay zero — the datacenter restarts from fresh state).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn clear_evicted(&mut self, j: usize) {
        self.evicted[j] = false;
    }

    /// The current eviction mask.
    #[must_use]
    pub fn evicted_mask(&self) -> &[bool] {
        &self.evicted
    }

    /// Step 1: solve the λ-sub-problem (17) from the local replicas and
    /// return `λ̃_i·` for dispatch to the datacenters. The row lives in
    /// the node: the clean path allocates nothing.
    ///
    /// With an empty eviction mask this is, expression for expression, the
    /// full problem (17); with evicted datacenters the same QP is solved
    /// over the active columns only and zeros are scattered back into the
    /// masked slots. Replicas poisoned by an unverified corrupted delivery
    /// yield an all-NaN row, which the coordinator's divergence gate
    /// flags.
    ///
    /// # Panics
    ///
    /// Panics if every datacenter is evicted (a coordinator invariant:
    /// eviction declines before the live set empties).
    pub fn predict_lambda(&mut self) -> &[f64] {
        let n = self.latencies.len();
        if self.evicted.iter().any(|&e| e) {
            let active: Vec<usize> = (0..n).filter(|&j| !self.evicted[j]).collect();
            assert!(
                !active.is_empty(),
                "front-end {}: every datacenter evicted",
                self.index
            );
            let lat: Vec<f64> = active.iter().map(|&j| self.latencies[j]).collect();
            let c: Vec<f64> = active
                .iter()
                .map(|&j| self.varphi[j] - self.rho * self.a[j])
                .collect();
            // The restricted QP has fewer columns than the persistent
            // kernel: solve it with a kernel built for them.
            let sub =
                LambdaQp::new(&lat, self.arrival, self.weight_per_kserver, self.rho).solve(&c);
            self.lambda_tilde.fill(0.0);
            for (t, &j) in active.iter().enumerate() {
                self.lambda_tilde[j] = sub[t];
            }
        } else {
            for j in 0..n {
                self.c_buf[j] = self.varphi[j] - self.rho * self.a[j];
            }
            self.qp.solve_into(&self.c_buf, &mut self.lambda_tilde);
        }
        &self.lambda_tilde
    }

    /// Captures this node's iterate slice for checkpointing.
    #[must_use]
    pub fn snapshot(&self) -> FrontendSnapshot {
        FrontendSnapshot {
            lambda: self.lambda.clone(),
            lambda_tilde: self.lambda_tilde.clone(),
            a: self.a.clone(),
            varphi: self.varphi.clone(),
            evicted: self.evicted.clone(),
        }
    }

    /// Restores the iterate slice from a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] if the snapshot's shape does not match
    /// this node's datacenter count.
    pub fn restore(&mut self, snap: &FrontendSnapshot) -> Result<(), CoreError> {
        if snap.lambda.len() != self.latencies.len() {
            return Err(CoreError::checkpoint(format!(
                "front-end {} snapshot has {} datacenters, node has {}",
                self.index,
                snap.lambda.len(),
                self.latencies.len()
            )));
        }
        self.lambda.clone_from(&snap.lambda);
        self.lambda_tilde.clone_from(&snap.lambda_tilde);
        self.a.clone_from(&snap.a);
        self.varphi.clone_from(&snap.varphi);
        self.evicted.clone_from(&snap.evicted);
        Ok(())
    }

    /// Takes this front-end's row of a full iterate (a warm start): `λ_i·`
    /// (also as the last prediction), `a_i·` and `φ_i·`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not shaped for this node's instance.
    pub fn load(&mut self, state: &AdmgState) {
        let row = self.index * state.n..(self.index + 1) * state.n;
        self.lambda.copy_from_slice(&state.lambda[row.clone()]);
        self.lambda_tilde
            .copy_from_slice(&state.lambda[row.clone()]);
        self.a.copy_from_slice(&state.a[row.clone()]);
        self.varphi.copy_from_slice(&state.varphi[row]);
    }

    /// Writes the blocks this front-end owns, `λ_i·` and `φ_i·`, into a
    /// full iterate.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not shaped for this node's instance.
    pub fn store(&self, state: &mut AdmgState) {
        let row = self.index * state.n..(self.index + 1) * state.n;
        state.lambda[row.clone()].copy_from_slice(&self.lambda);
        state.varphi[row].copy_from_slice(&self.varphi);
    }

    /// Steps 4–5 + correction: receive `ã_i·`, update the dual replica, and
    /// apply the front-end part of the Gaussian back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `a_tilde.len()` differs from the datacenter count.
    pub fn receive_a_and_correct(&mut self, a_tilde: &[f64]) -> NodeResiduals {
        assert_eq!(a_tilde.len(), self.a.len(), "a-row length mismatch");
        let mut res = NodeResiduals::default();
        #[allow(clippy::needless_range_loop)] // four replicas co-indexed by datacenter id
        for j in 0..self.a.len() {
            if self.evicted[j] {
                // Degraded mode: the slot stays pinned at zero.
                continue;
            }
            // Dual prediction and relaxation (front-end owns φ_i·).
            let varphi_tilde = self.varphi[j] - self.rho * (a_tilde[j] - self.lambda_tilde[j]);
            let dv = self.epsilon * (varphi_tilde - self.varphi[j]);
            self.varphi[j] += dv;
            res.track(dv);
            // a replica relaxation.
            let da = self.epsilon * (a_tilde[j] - self.a[j]);
            self.a[j] += da;
            res.track(da);
            // λ is taken from the prediction.
            self.lambda[j] = self.lambda_tilde[j];
            res.link = nan_max(res.link, (self.lambda[j] - self.a[j]).abs());
        }
        res
    }
}

/// Precomputed storage-block data for one datacenter. All fields are
/// slot-constant (the charge state only moves *between* slots in the
/// receding-horizon driver), so they are extracted once at construction,
/// with the products the reference steps form evaluated in the same order.
#[derive(Debug, Clone, Copy)]
struct DcStorage {
    /// Whether this datacenter has a battery (`capacity > 0`). Inactive
    /// storage keeps `d` pinned at exactly `0.0`.
    active: bool,
    /// Net-discharge box `[d_lo, d_hi]` (MW) from the charge state.
    d_lo: f64,
    d_hi: f64,
    /// Value-of-storage linear cost `κ_j · h` ($/MW).
    value_cost_h: f64,
    /// Degradation quadratic cost `γ · h` ($/MW²).
    degradation_h: f64,
    /// Ramp-tightened fuel-cell box `[μ_lo, μ_hi]` (MW).
    mu_lo: f64,
    mu_hi: f64,
}

/// A datacenter: owns `μ_j`, `ν_j`, the battery net discharge `d_j` (when
/// the storage block is scheduled), `a_·j`, the balance dual `φ_j`, and a
/// replica of the link duals `φ_·j`.
#[derive(Debug, Clone)]
pub struct DatacenterNode {
    index: usize,
    m: usize,
    alpha: f64,
    beta: f64,
    mu_max: f64,
    grid_price: f64,
    fuel_cell_price: f64,
    carbon_t_per_mwh: f64,
    emission: EmissionCostFn,
    slot_hours: f64,
    rho: f64,
    epsilon: f64,
    active_mu: bool,
    active_nu: bool,
    storage: Option<DcStorage>,
    mu: f64,
    nu: f64,
    d: f64,
    phi: f64,
    a: Vec<f64>,
    varphi: Vec<f64>,
    /// The last predicted column `ã_·j`.
    a_tilde: Vec<f64>,
    /// The a-QP kernel (its buffers are reused across rounds).
    qp: AColQp,
    /// Scratch buffer for the per-round linear term.
    c_buf: Vec<f64>,
}

/// What a datacenter returns from one protocol round.
#[derive(Debug, Clone, Copy)]
pub struct DatacenterStep<'a> {
    /// The predicted auxiliary shares `ã_·j` to route back to front-ends
    /// (the node's own buffer, also readable as
    /// [`DatacenterNode::a_tilde`]).
    pub a_tilde: &'a [f64],
    /// The corrected battery net discharge `d_j` after this round (exactly
    /// `0.0` when the storage block is absent or inactive).
    pub d: f64,
    /// Local residual contributions.
    pub residuals: NodeResiduals,
}

impl DatacenterNode {
    /// Extracts datacenter `j`'s local data from the instance.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn new(
        instance: &UfcInstance,
        j: usize,
        settings: &AdmgSettings,
        active_mu: bool,
        active_nu: bool,
    ) -> Self {
        assert!(j < instance.n_datacenters(), "datacenter {j} out of range");
        let m = instance.m_frontends();
        let storage = instance.storage.as_ref().map(|sp| {
            let (d_lo, d_hi) = sp.discharge_bounds(j, instance.slot_hours);
            let (mu_lo, mu_hi) = sp.mu_bounds(j, instance.mu_max[j]);
            DcStorage {
                active: sp.active(j),
                d_lo,
                d_hi,
                value_cost_h: sp.value_per_mwh[j] * instance.slot_hours,
                degradation_h: sp.degradation_per_mwh * instance.slot_hours,
                mu_lo,
                mu_hi,
            }
        });
        DatacenterNode {
            index: j,
            m,
            alpha: instance.alpha[j],
            beta: instance.beta[j],
            mu_max: instance.mu_max[j],
            grid_price: instance.grid_price[j],
            fuel_cell_price: instance.fuel_cell_price,
            carbon_t_per_mwh: instance.carbon_t_per_mwh[j],
            emission: instance.emission_cost[j].clone(),
            slot_hours: instance.slot_hours,
            rho: settings.rho,
            epsilon: settings.epsilon,
            active_mu,
            active_nu,
            storage,
            mu: 0.0,
            nu: 0.0,
            d: 0.0,
            phi: 0.0,
            a: vec![0.0; m],
            varphi: vec![0.0; m],
            a_tilde: vec![0.0; m],
            qp: AColQp::new(
                m,
                settings.rho,
                instance.beta[j],
                instance.capacities[j],
                instance.queueing,
            ),
            c_buf: vec![0.0; m],
        }
    }

    /// This node's datacenter index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current fuel-cell output `μ_j` (MW).
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Current grid draw `ν_j` (MW).
    #[must_use]
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Current battery net discharge `d_j` (MW; exactly `0.0` without a
    /// scheduled storage block).
    #[must_use]
    pub fn d(&self) -> f64 {
        self.d
    }

    /// The last predicted column `ã_·j`.
    #[must_use]
    pub fn a_tilde(&self) -> &[f64] {
        &self.a_tilde
    }

    /// Captures this node's iterate slice for checkpointing.
    #[must_use]
    pub fn snapshot(&self) -> DatacenterSnapshot {
        DatacenterSnapshot {
            mu: self.mu,
            nu: self.nu,
            phi: self.phi,
            d: self.d,
            a: self.a.clone(),
            varphi: self.varphi.clone(),
        }
    }

    /// Restores the iterate slice from a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] if the snapshot's shape does not match
    /// this node's front-end count.
    pub fn restore(&mut self, snap: &DatacenterSnapshot) -> Result<(), CoreError> {
        if snap.a.len() != self.m {
            return Err(CoreError::checkpoint(format!(
                "datacenter {} snapshot has {} front-ends, node has {}",
                self.index,
                snap.a.len(),
                self.m
            )));
        }
        self.mu = snap.mu;
        self.nu = snap.nu;
        self.phi = snap.phi;
        self.d = snap.d;
        self.a.clone_from(&snap.a);
        self.varphi.clone_from(&snap.varphi);
        Ok(())
    }

    /// Takes this datacenter's column of a full iterate (a warm start):
    /// `μ_j`, `ν_j`, `d_j`, `φ_j`, `a_·j` and `φ_·j`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not shaped for this node's instance.
    pub fn load(&mut self, state: &AdmgState) {
        let (j, n) = (self.index, state.n);
        self.mu = state.mu[j];
        self.nu = state.nu[j];
        self.d = state.d[j];
        self.phi = state.phi[j];
        for i in 0..self.m {
            self.a[i] = state.a[i * n + j];
            self.varphi[i] = state.varphi[i * n + j];
        }
    }

    /// Writes the blocks this datacenter owns, `μ_j`, `ν_j`, `d_j`, `φ_j`
    /// and `a_·j`, into a full iterate.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not shaped for this node's instance.
    pub fn store(&self, state: &mut AdmgState) {
        let (j, n) = (self.index, state.n);
        state.mu[j] = self.mu;
        state.nu[j] = self.nu;
        state.d[j] = self.d;
        state.phi[j] = self.phi;
        for (i, &v) in self.a.iter().enumerate() {
            state.a[i * n + j] = v;
        }
    }

    /// Steps 2–5 + correction: receive the column `λ̃_·j`, run the μ-, ν-,
    /// d-, a- and dual updates, apply the datacenter part of the
    /// correction, and return `ã_·j` (node-owned: the step allocates
    /// nothing) with the local residuals.
    ///
    /// The step cannot fail: a column poisoned by an unverified corrupted
    /// delivery yields an all-NaN `ã` for the divergence gate, never an
    /// error or a panic.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_tilde.len() != M` (a coordinator shape bug, not a
    /// data fault).
    pub fn process(&mut self, lambda_tilde: &[f64]) -> DatacenterStep<'_> {
        assert_eq!(lambda_tilde.len(), self.m, "lambda column length mismatch");
        let rho = self.rho;
        let h = self.slot_hours;
        let load_k: f64 = self.a.iter().sum();
        let demand = self.alpha + self.beta * load_k;
        // μ̃/ν̃ see the demand net of the battery's current net discharge
        // (`d = 0.0` without storage, and `x − 0.0 = x` bitwise).
        let demand_eff = demand - self.d;

        // Step 2: μ̃ (Eq. (18) closed form). With a storage block the box
        // tightens to the ramp window.
        let (mu_lo, mu_hi) = match &self.storage {
            Some(s) => (s.mu_lo, s.mu_hi),
            None => (0.0, self.mu_max),
        };
        let mu_tilde = if self.active_mu {
            mu_scalar_step_bounded(
                demand_eff,
                self.nu,
                self.phi,
                h * self.fuel_cell_price,
                rho,
                mu_lo,
                mu_hi,
            )
        } else {
            0.0
        };

        // Step 3: ν̃ (Eq. (19)).
        let nu_tilde = if self.active_nu {
            nu_scalar_step(
                demand_eff,
                mu_tilde,
                self.phi,
                h * self.grid_price,
                self.carbon_t_per_mwh * h,
                &self.emission,
                rho,
            )
        } else {
            0.0
        };

        // Storage block: d̃ from the *full* demand (the block re-solves the
        // net discharge, it does not increment the old one).
        let d_tilde = match &self.storage {
            Some(s) if s.active => storage_scalar_step(
                demand,
                mu_tilde,
                nu_tilde,
                self.phi,
                s.value_cost_h,
                s.degradation_h,
                rho,
                s.d_lo,
                s.d_hi,
            ),
            _ => 0.0,
        };

        // Step 4: ã (Eq. (20)).
        let drift = self.alpha - mu_tilde - nu_tilde - d_tilde;
        for (i, ci) in self.c_buf.iter_mut().enumerate() {
            *ci = -rho * lambda_tilde[i] - self.varphi[i] - self.phi * self.beta
                + rho * self.beta * drift;
        }
        self.qp.solve_into(&self.c_buf, &mut self.a_tilde);
        let a_tilde = &self.a_tilde;

        // Step 5: dual predictions.
        let a_tilde_load: f64 = a_tilde.iter().sum();
        let phi_tilde = self.phi
            - rho * (self.alpha + self.beta * a_tilde_load - mu_tilde - nu_tilde - d_tilde);
        // Correction, backward order: duals, a, d, ν, μ — expression for
        // expression the same as `crate::correction`.
        let mut res = NodeResiduals::default();
        let dphi = self.epsilon * (phi_tilde - self.phi);
        self.phi += dphi;
        res.track(dphi);
        let mut delta_a_load = 0.0;
        for i in 0..self.m {
            // Mirror of the front-end's dual replica (same update rule).
            let varphi_tilde = self.varphi[i] - rho * (a_tilde[i] - lambda_tilde[i]);
            self.varphi[i] += self.epsilon * (varphi_tilde - self.varphi[i]);
            let da = self.epsilon * (a_tilde[i] - self.a[i]);
            self.a[i] += da;
            delta_a_load += da;
            res.track(da);
            res.link = nan_max(res.link, (lambda_tilde[i] - self.a[i]).abs());
        }
        let mut delta_d = 0.0;
        if matches!(&self.storage, Some(s) if s.active) {
            delta_d = self.epsilon * (d_tilde - self.d) + self.beta * delta_a_load;
            self.d += delta_d;
            res.track(delta_d);
        }
        let mut delta_nu = 0.0;
        if self.active_nu {
            delta_nu = self.epsilon * (nu_tilde - self.nu) + self.beta * delta_a_load - delta_d;
            self.nu += delta_nu;
            res.track(delta_nu);
        }
        if self.active_mu {
            let dmu =
                self.epsilon * (mu_tilde - self.mu) - delta_nu + self.beta * delta_a_load - delta_d;
            self.mu += dmu;
            res.track(dmu);
        }
        let corrected_load: f64 = self.a.iter().sum();
        res.balance = (self.alpha + self.beta * corrected_load - self.mu - self.nu - self.d).abs();

        DatacenterStep {
            a_tilde: &self.a_tilde,
            d: self.d,
            residuals: res,
        }
    }
}

/// A front-end's iterate slice: `λ_i·`, its last prediction, and the local
/// replicas of `a_i·` and the link duals `φ_i·`, plus the eviction mask.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendSnapshot {
    /// Corrected routing row `λ_i·`.
    pub lambda: Vec<f64>,
    /// Last predicted row `λ̃_i·`.
    pub lambda_tilde: Vec<f64>,
    /// Auxiliary replica `a_i·`.
    pub a: Vec<f64>,
    /// Link-dual replica `φ_i·`.
    pub varphi: Vec<f64>,
    /// Datacenters this front-end currently treats as evicted.
    pub evicted: Vec<bool>,
}

impl FrontendSnapshot {
    /// Serializes the snapshot.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 8 * 4 * self.lambda.len());
        buf.extend_from_slice(FRONTEND_MAGIC);
        codec::put_f64s(&mut buf, &self.lambda);
        codec::put_f64s(&mut buf, &self.lambda_tilde);
        codec::put_f64s(&mut buf, &self.a);
        codec::put_f64s(&mut buf, &self.varphi);
        codec::put_mask(&mut buf, &self.evicted);
        buf
    }

    /// Deserializes a blob produced by [`FrontendSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on bad magic, truncation, or blocks of
    /// inconsistent length.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CoreError> {
        let mut pos = codec::check_magic(buf, FRONTEND_MAGIC)?;
        let snap = FrontendSnapshot {
            lambda: codec::get_f64s(buf, &mut pos)?,
            lambda_tilde: codec::get_f64s(buf, &mut pos)?,
            a: codec::get_f64s(buf, &mut pos)?,
            varphi: codec::get_f64s(buf, &mut pos)?,
            evicted: codec::get_mask(buf, &mut pos)?,
        };
        let n = snap.lambda.len();
        if [
            snap.lambda_tilde.len(),
            snap.a.len(),
            snap.varphi.len(),
            snap.evicted.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(CoreError::checkpoint("front-end block lengths disagree"));
        }
        Ok(snap)
    }

    /// Whether every stored value is finite — a poisoned snapshot is no
    /// rollback target.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.lambda
            .iter()
            .chain(&self.lambda_tilde)
            .chain(&self.a)
            .chain(&self.varphi)
            .all(|v| v.is_finite())
    }
}

/// A datacenter's iterate slice: `μ_j`, `ν_j`, the balance dual `φ_j`, the
/// battery net discharge `d_j`, and its column replicas `a_·j`, `φ_·j`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterSnapshot {
    /// Fuel-cell output `μ_j` (MW).
    pub mu: f64,
    /// Grid draw `ν_j` (MW).
    pub nu: f64,
    /// Balance dual `φ_j`.
    pub phi: f64,
    /// Battery net discharge `d_j` (MW; `0.0` without a storage block).
    pub d: f64,
    /// Auxiliary column `a_·j`.
    pub a: Vec<f64>,
    /// Link-dual replica `φ_·j`.
    pub varphi: Vec<f64>,
}

impl DatacenterSnapshot {
    /// Serializes the snapshot.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 8 * (4 + 2 * self.a.len()));
        buf.extend_from_slice(DATACENTER_MAGIC);
        codec::put_f64s(&mut buf, &[self.mu, self.nu, self.phi, self.d]);
        codec::put_f64s(&mut buf, &self.a);
        codec::put_f64s(&mut buf, &self.varphi);
        buf
    }

    /// Deserializes a blob produced by [`DatacenterSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on bad magic, truncation, or blocks of
    /// inconsistent length.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CoreError> {
        let mut pos = codec::check_magic(buf, DATACENTER_MAGIC)?;
        let scalars = codec::get_f64s(buf, &mut pos)?;
        if scalars.len() != 4 {
            return Err(CoreError::checkpoint("datacenter scalar block malformed"));
        }
        let snap = DatacenterSnapshot {
            mu: scalars[0],
            nu: scalars[1],
            phi: scalars[2],
            d: scalars[3],
            a: codec::get_f64s(buf, &mut pos)?,
            varphi: codec::get_f64s(buf, &mut pos)?,
        };
        if snap.a.len() != snap.varphi.len() {
            return Err(CoreError::checkpoint("datacenter block lengths disagree"));
        }
        Ok(snap)
    }

    /// Whether every stored value is finite — a poisoned snapshot is no
    /// rollback target.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        [self.mu, self.nu, self.phi, self.d]
            .iter()
            .chain(&self.a)
            .chain(&self.varphi)
            .all(|v| v.is_finite())
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
    fn frontend_prediction_matches_core_subproblem() {
        let inst = tiny();
        let settings = AdmgSettings::default();
        let mut fe = FrontendNode::new(&inst, 0, &settings);
        let state = AdmgState::zeros(&inst);
        let expected = crate::subproblems::lambda_step(&inst, settings.rho, &state).unwrap();
        let row = fe.predict_lambda();
        for j in 0..2 {
            assert!(
                (row[j] - expected[j]).abs() < 1e-12,
                "{row:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn frontend_correction_tracks_replicas() {
        let inst = tiny();
        let mut fe = FrontendNode::new(&inst, 0, &AdmgSettings::default());
        let lt = fe.predict_lambda().to_vec();
        let res = fe.receive_a_and_correct(&lt);
        // With ã = λ̃: link residual is |λ − a| after partial relaxation of a.
        assert!(res.link >= 0.0);
        assert_eq!(fe.lambda(), &lt[..]);
    }

    #[test]
    fn datacenter_respects_capacity_and_bounds() {
        let inst = tiny();
        let mut dc = DatacenterNode::new(&inst, 0, &AdmgSettings::default(), true, true);
        dc.process(&[1.5, 1.5]);
        let load: f64 = dc.a_tilde().iter().sum();
        assert!(load <= inst.capacities[0] + 1e-7);
        assert!(dc.a_tilde().iter().all(|&v| v >= -1e-9));
        assert!(dc.mu() >= -1e-12 && dc.mu() <= inst.mu_max[0] + 1e-9);
    }

    #[test]
    fn pinned_blocks_stay_zero_at_node_level() {
        let inst = tiny();
        let mut grid_dc = DatacenterNode::new(&inst, 0, &AdmgSettings::default(), false, true);
        grid_dc.process(&[0.5, 1.0]);
        assert_eq!(grid_dc.mu(), 0.0);
        let mut fc_dc = DatacenterNode::new(&inst, 0, &AdmgSettings::default(), true, false);
        fc_dc.process(&[0.5, 1.0]);
        assert_eq!(fc_dc.nu(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let _ = FrontendNode::new(&tiny(), 9, &AdmgSettings::default());
    }

    #[test]
    fn eviction_pins_column_and_preserves_arrival() {
        let inst = tiny();
        let mut fe = FrontendNode::new(&inst, 1, &AdmgSettings::default());
        fe.set_evicted(0);
        let row = fe.predict_lambda().to_vec();
        assert_eq!(row[0], 0.0, "evicted column must stay zero");
        let sum: f64 = row.iter().sum();
        assert!(
            (sum - inst.arrivals[1]).abs() < 1e-7,
            "arrival must be fully routed over survivors (sum {sum})"
        );
        let res = fe.receive_a_and_correct(&row);
        assert_eq!(fe.lambda()[0], 0.0);
        assert!(res.link >= 0.0);
        fe.clear_evicted(0);
        assert!(!fe.evicted_mask()[0]);
        // Re-admitted slot starts from zero, not stale state.
        assert_eq!(fe.lambda()[0], 0.0);
    }

    #[test]
    fn clean_path_unchanged_by_eviction_support() {
        // With no evictions the restricted branch is never taken: the
        // prediction is the persistent kernel's solve, bit for bit that of
        // a fresh kernel, and matches the core sub-problem (dense active
        // set) to solver precision.
        let inst = tiny();
        let settings = AdmgSettings::default();
        let mut fe = FrontendNode::new(&inst, 0, &settings);
        let state = AdmgState::zeros(&inst);
        let expected = crate::subproblems::lambda_step(&inst, settings.rho, &state).unwrap();
        let row = fe.predict_lambda().to_vec();
        let w = inst.weight_per_kserver();
        let fresh =
            LambdaQp::new(&inst.latency_s[0], inst.arrivals[0], w, settings.rho).solve(&[0.0, 0.0]);
        assert_eq!(row, fresh);
        for j in 0..2 {
            assert!(
                (row[j] - expected[j]).abs() <= 1e-9 * (1.0 + expected[j].abs()),
                "column {j} diverged: {row:?} vs {expected:?}"
            );
        }
    }

    /// The degraded-mode λ-QP over the two surviving columns of a
    /// three-datacenter instance runs the exact KKT kernel: it matches the
    /// dense reference step on the instance restricted to the survivors,
    /// round after round.
    #[test]
    fn restricted_lambda_row_honours_the_kkt_kernel() {
        let emission = vec![EmissionCostFn::linear(25.0).unwrap(); 3];
        let inst = UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0, 2.0],
            vec![0.24; 3],
            vec![0.12; 3],
            vec![0.48; 3],
            vec![30.0, 70.0, 50.0],
            80.0,
            vec![0.5, 0.3, 0.4],
            vec![vec![0.01, 0.02, 0.015], vec![0.02, 0.01, 0.0102]],
            10.0,
            emission.clone(),
            1.0,
        )
        .unwrap();
        let survivors = [1usize, 2];
        let restricted = UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24; 2],
            vec![0.12; 2],
            vec![0.48; 2],
            vec![70.0, 50.0],
            80.0,
            vec![0.3, 0.4],
            vec![vec![0.02, 0.015], vec![0.01, 0.0102]],
            10.0,
            emission[..2].to_vec(),
            1.0,
        )
        .unwrap();
        let rho = AdmgSettings::default().rho;
        let mut fe = FrontendNode::new(&inst, 1, &AdmgSettings::default());
        fe.set_evicted(0);
        for a_tilde in [[0.0, 0.9, 1.1], [0.0, 1.2, 0.8]] {
            let snap = fe.snapshot();
            let mut state = AdmgState::zeros(&restricted);
            for (t, &j) in survivors.iter().enumerate() {
                state.a[2 + t] = snap.a[j];
                state.varphi[2 + t] = snap.varphi[j];
            }
            let expected = crate::subproblems::lambda_step(&restricted, rho, &state).unwrap();
            let row = fe.predict_lambda();
            assert_eq!(row[0], 0.0, "evicted column");
            assert!(
                row[1] > 0.1 && row[2] > 0.1,
                "both survivors carry load: {row:?}"
            );
            for (t, &j) in survivors.iter().enumerate() {
                assert!(
                    (row[j] - expected[2 + t]).abs() <= 1e-9,
                    "{row:?} vs {expected:?}"
                );
            }
            fe.receive_a_and_correct(&a_tilde);
        }
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let inst = tiny();
        let settings = AdmgSettings::default();
        let mut fe = FrontendNode::new(&inst, 0, &settings);
        let mut dc = DatacenterNode::new(&inst, 0, &settings, true, true);
        // Advance one protocol round to get nonzero state.
        let lt = fe.predict_lambda()[0];
        let at = dc.process(&[lt, lt]).a_tilde[0];
        fe.receive_a_and_correct(&[at, at]);

        // Serialize through the wire codec, restore into fresh nodes.
        let fe_blob = fe.snapshot().to_bytes();
        let dc_blob = dc.snapshot().to_bytes();
        let mut fe2 = FrontendNode::new(&inst, 0, &settings);
        let mut dc2 = DatacenterNode::new(&inst, 0, &settings, true, true);
        fe2.restore(&FrontendSnapshot::from_bytes(&fe_blob).unwrap())
            .unwrap();
        dc2.restore(&DatacenterSnapshot::from_bytes(&dc_blob).unwrap())
            .unwrap();

        // The next round must be bit-identical.
        let r1 = fe.predict_lambda().to_vec();
        let r2 = fe2.predict_lambda().to_vec();
        assert_eq!(r1, r2);
        dc.process(&[r1[0], r1[0]]);
        dc2.process(&[r2[0], r2[0]]);
        assert_eq!(dc.a_tilde(), dc2.a_tilde());
        assert_eq!(dc.mu().to_bits(), dc2.mu().to_bits());
        assert_eq!(dc.nu().to_bits(), dc2.nu().to_bits());
        assert_eq!(dc.d().to_bits(), dc2.d().to_bits());
    }

    #[test]
    fn storage_process_matches_core_formulas_bit_for_bit() {
        let fleet = ufc_model::StorageFleet::new(2.0, 1.0)
            .initial_charge_frac(0.5)
            .value_per_mwh(40.0)
            .degradation(2.0)
            .ramp_mw(0.3);
        let inst = tiny().with_storage(fleet.initial_params(2)).unwrap();
        let settings = AdmgSettings::default();
        let (rho, eps) = (settings.rho, settings.epsilon);
        let h = inst.slot_hours;
        let j = 0;
        let mut dc = DatacenterNode::new(&inst, j, &settings, true, true);
        let step_d = dc.process(&[0.5, 1.0]).d;

        // Reference: the shared scalar kernels + the core correction
        // recursion, evaluated from the same zero state.
        let sp = inst.storage.as_ref().unwrap();
        let demand = inst.alpha[j]; // a replicas start at zero
        let (mu_lo, mu_hi) = sp.mu_bounds(j, inst.mu_max[j]);
        assert_eq!((mu_lo, mu_hi), (0.0, 0.3), "ramp window from μ_prev = 0");
        let mt = mu_scalar_step_bounded(
            demand - 0.0,
            0.0,
            0.0,
            h * inst.fuel_cell_price,
            rho,
            mu_lo,
            mu_hi,
        );
        let nt = nu_scalar_step(
            demand - 0.0,
            mt,
            0.0,
            h * inst.grid_price[j],
            inst.carbon_t_per_mwh[j] * h,
            &inst.emission_cost[j],
            rho,
        );
        let (d_lo, d_hi) = sp.discharge_bounds(j, h);
        let dt = storage_scalar_step(
            demand,
            mt,
            nt,
            0.0,
            sp.value_per_mwh[j] * h,
            sp.degradation_per_mwh * h,
            rho,
            d_lo,
            d_hi,
        );
        assert!((d_lo..=d_hi).contains(&dt), "d̃ must respect the box");
        let delta_a_load: f64 = dc.a_tilde().iter().map(|&v| eps * (v - 0.0)).sum();
        let dd = eps * (dt - 0.0) + inst.beta[j] * delta_a_load;
        let dnu = eps * (nt - 0.0) + inst.beta[j] * delta_a_load - dd;
        let dmu = eps * (mt - 0.0) - dnu + inst.beta[j] * delta_a_load - dd;
        assert_eq!(step_d.to_bits(), dc.d().to_bits());
        assert_eq!(dc.d().to_bits(), dd.to_bits(), "Δd recursion diverged");
        assert_eq!(dc.nu().to_bits(), dnu.to_bits(), "Δν recursion diverged");
        assert_eq!(dc.mu().to_bits(), dmu.to_bits(), "Δμ recursion diverged");
        assert!(dc.mu() <= mu_hi + 1e-9, "ramp bound violated");
    }

    #[test]
    fn zero_capacity_storage_is_bit_identical_to_no_storage() {
        let inst = tiny();
        let inst_s = tiny()
            .with_storage(ufc_model::StorageFleet::new(0.0, 1.0).initial_params(2))
            .unwrap();
        let settings = AdmgSettings::default();
        let mut plain = DatacenterNode::new(&inst, 0, &settings, true, true);
        let mut stored = DatacenterNode::new(&inst_s, 0, &settings, true, true);
        for _ in 0..3 {
            let r1 = plain.process(&[0.5, 1.0]).residuals;
            let (d2, r2) = {
                let s2 = stored.process(&[0.5, 1.0]);
                (s2.d, s2.residuals)
            };
            assert_eq!(plain.a_tilde(), stored.a_tilde());
            assert_eq!(d2, 0.0, "inactive battery must pin d at zero");
            assert_eq!(plain.mu().to_bits(), stored.mu().to_bits());
            assert_eq!(plain.nu().to_bits(), stored.nu().to_bits());
            assert_eq!(r1.balance.to_bits(), r2.balance.to_bits());
        }
    }

    #[test]
    fn residual_folds_are_nan_sticky() {
        // `f64::max` silently drops NaN operands; the residual folds must
        // not, or a poisoned iterate becomes invisible to the stop rule.
        assert!(nan_max(1.0, f64::NAN).is_nan());
        assert!(nan_max(f64::NAN, 1.0).is_nan());
        assert_eq!(nan_max(1.0, 2.0), 2.0);
        let mut res = NodeResiduals {
            movement: 0.5,
            ..NodeResiduals::default()
        };
        res.track(f64::NAN);
        assert!(res.movement.is_nan(), "NaN movement must poison the fold");

        let inst = tiny();
        let mut fe = FrontendNode::new(&inst, 0, &AdmgSettings::default());
        fe.predict_lambda();
        let res = fe.receive_a_and_correct(&[f64::NAN, 0.0]);
        assert!(
            res.link.is_nan() || res.movement.is_nan(),
            "a NaN ã must surface in the residuals: {res:?}"
        );
    }

    /// Found by `repro fuzz --faults` (seed 777): an unverified corrupted
    /// delivery poisons the replicas, and the node used to `.expect()` an
    /// inner QP that could not converge — an abort instead of the outcome
    /// the §12 corruption contract promises. The exact kernels solve
    /// through huge-magnitude poison (a bit-flipped exponent) or, when an
    /// intermediate overflows, return an all-NaN block; NaN poison always
    /// yields an all-NaN block. Either way the process survives and the
    /// divergence gate downstream flags the NaN residuals. The congested
    /// a-column (queueing extension) follows the same policy.
    #[test]
    fn poisoned_iterate_yields_a_nan_block_not_a_panic() {
        let inst = tiny();
        let settings = AdmgSettings::default();
        let finite_or_nan =
            |v: &[f64]| v.iter().all(|x| x.is_finite()) || v.iter().all(|x| x.is_nan());
        let mut fe = FrontendNode::new(&inst, 0, &settings);
        fe.predict_lambda();
        fe.receive_a_and_correct(&[-5.5e307, -5.5e307]);
        let row = fe.predict_lambda();
        assert!(finite_or_nan(row), "{row:?}");
        let mut fe = FrontendNode::new(&inst, 0, &settings);
        fe.predict_lambda();
        fe.receive_a_and_correct(&[f64::NAN, f64::NAN]);
        assert!(fe.predict_lambda().iter().all(|v| v.is_nan()));

        let congested = tiny().with_queueing(ufc_model::QueueingCost::default_interactive());
        for inst in [&inst, &congested] {
            let mut dc = DatacenterNode::new(inst, 0, &settings, true, true);
            dc.process(&[0.5, 1.0]);
            let step = dc.process(&[-5.5e307, -5.5e307]);
            assert!(finite_or_nan(step.a_tilde), "{:?}", step.a_tilde);

            let mut dc = DatacenterNode::new(inst, 0, &settings, true, true);
            dc.process(&[0.5, 1.0]);
            let step = dc.process(&[f64::NAN, f64::NAN]);
            assert!(step.a_tilde.iter().all(|v| v.is_nan()));
            assert!(step.residuals.link.is_nan() || step.residuals.movement.is_nan());
        }
    }

    /// Nodes load their slices of a full iterate and store back the blocks
    /// they own, which between them cover the whole iterate bit for bit.
    #[test]
    fn load_and_store_round_trip_a_full_iterate() {
        let inst = tiny();
        let settings = AdmgSettings::default();
        let mut state = AdmgState::zeros(&inst);
        let routing = state
            .lambda
            .iter_mut()
            .chain(&mut state.a)
            .chain(&mut state.varphi);
        for (k, v) in routing.enumerate() {
            *v = 0.25 * k as f64 - 1.0;
        }
        state.mu = vec![0.1, 0.2];
        state.nu = vec![0.3, -0.0];
        state.d = vec![-0.05, 0.07];
        state.phi = vec![2.5, -3.5];
        let mut back = AdmgState::zeros(&inst);
        for i in 0..2 {
            let mut fe = FrontendNode::new(&inst, i, &settings);
            fe.load(&state);
            assert_eq!(fe.lambda_tilde(), fe.lambda());
            fe.store(&mut back);
        }
        for j in 0..2 {
            let mut dc = DatacenterNode::new(&inst, j, &settings, true, true);
            dc.load(&state);
            dc.store(&mut back);
        }
        let bits = |s: &AdmgState| -> Vec<u64> {
            s.lambda
                .iter()
                .chain(&s.mu)
                .chain(&s.nu)
                .chain(&s.d)
                .chain(&s.a)
                .chain(&s.phi)
                .chain(&s.varphi)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&back), bits(&state));
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let inst = tiny();
        let mut fe = FrontendNode::new(&inst, 0, &AdmgSettings::default());
        let bad = FrontendSnapshot {
            lambda: vec![0.0; 5],
            lambda_tilde: vec![0.0; 5],
            a: vec![0.0; 5],
            varphi: vec![0.0; 5],
            evicted: vec![false; 5],
        };
        assert!(fe.restore(&bad).is_err());
    }
}
