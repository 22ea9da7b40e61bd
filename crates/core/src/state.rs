use ufc_model::UfcInstance;

/// Byte codec used for checkpoint blobs: little-endian, length-prefixed
/// slices, the primitives of the per-node snapshots in [`crate::node`].
pub mod codec {
    use crate::CoreError;

    /// Appends a `u32` length/shape field.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
        put_u32(buf, u32::try_from(values.len()).expect("slice too long"));
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a single `f64` value, little-endian.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads a single `f64` value, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on truncation.
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, CoreError> {
        let end = pos.checked_add(8).filter(|&e| e <= buf.len());
        let Some(end) = end else {
            return Err(CoreError::checkpoint("truncated f64 field"));
        };
        let v = f64::from_le_bytes(buf[*pos..end].try_into().expect("8-byte slice"));
        *pos = end;
        Ok(v)
    }

    /// Reads a `u32` field, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on truncation.
    pub fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, CoreError> {
        let end = pos.checked_add(4).filter(|&e| e <= buf.len());
        let Some(end) = end else {
            return Err(CoreError::checkpoint("truncated u32 field"));
        };
        let v = u32::from_le_bytes(buf[*pos..end].try_into().expect("4-byte slice"));
        *pos = end;
        Ok(v)
    }

    /// Reads a length-prefixed `f64` slice, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on truncation or an implausible length.
    pub fn get_f64s(buf: &[u8], pos: &mut usize) -> Result<Vec<f64>, CoreError> {
        let len = get_u32(buf, pos)? as usize;
        let bytes = len
            .checked_mul(8)
            .filter(|&b| *pos + b <= buf.len())
            .ok_or_else(|| CoreError::checkpoint("truncated f64 slice"))?;
        let out = buf[*pos..*pos + bytes]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        *pos += bytes;
        Ok(out)
    }

    /// Appends a length-prefixed boolean mask, one byte per entry.
    pub fn put_mask(buf: &mut Vec<u8>, mask: &[bool]) {
        put_u32(buf, u32::try_from(mask.len()).expect("mask too long"));
        buf.extend(mask.iter().map(|&b| u8::from(b)));
    }

    /// Reads a length-prefixed boolean mask, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on truncation.
    pub fn get_mask(buf: &[u8], pos: &mut usize) -> Result<Vec<bool>, CoreError> {
        let len = get_u32(buf, pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| CoreError::checkpoint("truncated bool mask"))?;
        let out = buf[*pos..end].iter().map(|&b| b != 0).collect();
        *pos = end;
        Ok(out)
    }

    /// Verifies a blob's magic prefix and returns the payload offset.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] if the blob is shorter than the prefix or
    /// starts with different bytes.
    pub fn check_magic(buf: &[u8], magic: &[u8]) -> Result<usize, CoreError> {
        if buf.len() < magic.len() || &buf[..magic.len()] != magic {
            return Err(CoreError::checkpoint("bad magic number"));
        }
        Ok(magic.len())
    }
}

/// The full iterate of the distributed N-block ADM-G algorithm (the
/// classic schedule has four blocks; the storage extension adds a fifth).
///
/// Routing blocks (`λ`, its auxiliary copy `a`, and the link duals `φ_ij`)
/// are stored row-major as `M × N` flats; per-datacenter blocks (`μ`, `ν`,
/// the battery discharge `d`, the balance duals `φ_j`) as length-`N`
/// vectors. Everything is initialized to zero, exactly as the paper's
/// algorithm statement prescribes — the first λ-minimization immediately
/// restores the load-balance constraint. On spatial-only instances `d`
/// stays identically zero and every formula below reduces bit-exactly to
/// the 4-block algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmgState {
    /// Number of front-ends `M`.
    pub m: usize,
    /// Number of datacenters `N`.
    pub n: usize,
    /// Request routing `λ_ij` (kilo-servers), row-major `M × N`.
    pub lambda: Vec<f64>,
    /// Fuel-cell output `μ_j` (MW).
    pub mu: Vec<f64>,
    /// Grid draw `ν_j` (MW).
    pub nu: Vec<f64>,
    /// Battery net discharge `d_j` (MW; positive discharges, negative
    /// charges). Identically zero without the storage block.
    pub d: Vec<f64>,
    /// Auxiliary routing copy `a_ij` (kilo-servers), row-major `M × N`.
    pub a: Vec<f64>,
    /// Balance duals `φ_j` (one per datacenter).
    pub phi: Vec<f64>,
    /// Link duals `φ_ij` ("varphi"), row-major `M × N`.
    pub varphi: Vec<f64>,
}

impl AdmgState {
    /// All-zero state shaped for `instance`.
    #[must_use]
    pub fn zeros(instance: &UfcInstance) -> Self {
        let m = instance.m_frontends();
        let n = instance.n_datacenters();
        AdmgState {
            m,
            n,
            lambda: vec![0.0; m * n],
            mu: vec![0.0; n],
            nu: vec![0.0; n],
            d: vec![0.0; n],
            a: vec![0.0; m * n],
            phi: vec![0.0; n],
            varphi: vec![0.0; m * n],
        }
    }

    /// Flat index of the `(i, j)` routing entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `i` or `j` is out of range.
    #[inline]
    #[must_use]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.m && j < self.n, "index ({i},{j}) out of range");
        i * self.n + j
    }

    /// Borrow row `i` of `λ`.
    #[must_use]
    pub fn lambda_row(&self, i: usize) -> &[f64] {
        &self.lambda[i * self.n..(i + 1) * self.n]
    }

    /// Borrow row `i` of `a`.
    #[must_use]
    pub fn a_row(&self, i: usize) -> &[f64] {
        &self.a[i * self.n..(i + 1) * self.n]
    }

    /// Per-datacenter auxiliary load `Σ_i a_ij` (kilo-servers).
    #[must_use]
    #[allow(clippy::needless_range_loop)] // (i, j) index the routing grid
    pub fn a_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.n];
        for i in 0..self.m {
            for j in 0..self.n {
                loads[j] += self.a[self.idx(i, j)];
            }
        }
        loads
    }

    /// Per-datacenter routed load `Σ_i λ_ij` (kilo-servers).
    #[must_use]
    #[allow(clippy::needless_range_loop)] // (i, j) index the routing grid
    pub fn lambda_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.n];
        for i in 0..self.m {
            for j in 0..self.n {
                loads[j] += self.lambda[self.idx(i, j)];
            }
        }
        loads
    }

    /// The ADMM-form objective (12) at the current `(λ, μ, ν, d)` in
    /// dollars:
    /// `Σ_j [V_j(C_j ν_j h) + h p_j ν_j + h p₀ μ_j + γ h d_j² + κ_j h d_j]
    /// − w Σ_i U(λ_i)`. The battery terms are the solver's surrogate cost
    /// (degradation plus the κ opportunity value of drained energy) and
    /// vanish without the storage block.
    #[must_use]
    pub fn objective(&self, instance: &UfcInstance) -> f64 {
        let h = instance.slot_hours;
        let mut obj = 0.0;
        for j in 0..self.n {
            let tons = instance.carbon_t_per_mwh[j] * self.nu[j] * h;
            obj += instance.emission_cost[j].value(tons)
                + h * instance.grid_price[j] * self.nu[j]
                + h * instance.fuel_cell_price * self.mu[j];
        }
        if let Some(sp) = &instance.storage {
            for j in 0..self.n {
                obj += sp.degradation_per_mwh * h * self.d[j] * self.d[j]
                    + sp.value_per_mwh[j] * h * self.d[j];
            }
        }
        let w = instance.weight_per_kserver();
        for i in 0..self.m {
            obj -= w * ufc_model::utility::quadratic_utility(
                self.lambda_row(i),
                &instance.latency_s[i],
                instance.arrivals[i],
            );
        }
        if let Some(q) = &instance.queueing {
            for (j, load) in self.lambda_loads().iter().enumerate() {
                obj += q.value(load.max(0.0), instance.capacities[j]);
            }
        }
        obj
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
    fn scalar_codec_round_trips_and_rejects_truncation() {
        let mut buf = Vec::new();
        codec::put_f64(&mut buf, -0.0);
        codec::put_f64(&mut buf, 1e-300);
        let mut pos = 0;
        assert_eq!(
            codec::get_f64(&buf, &mut pos).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(codec::get_f64(&buf, &mut pos).unwrap(), 1e-300);
        assert!(codec::get_f64(&buf, &mut pos).is_err(), "past the end");
        let mut pos = buf.len() - 3;
        assert!(codec::get_f64(&buf, &mut pos).is_err(), "truncated tail");
    }

    #[test]
    fn zeros_shape() {
        let s = AdmgState::zeros(&tiny());
        assert_eq!(s.m, 2);
        assert_eq!(s.n, 2);
        assert_eq!(s.lambda.len(), 4);
        assert_eq!(s.mu.len(), 2);
        assert!(s.lambda.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn loads_sum_each_datacenter_column() {
        let inst = tiny();
        let mut s = AdmgState::zeros(&inst);
        s.lambda = vec![0.5, 0.5, 1.0, 1.0];
        s.a = vec![0.5, 0.5, 1.0, 1.0];
        assert_eq!(s.lambda_loads(), vec![1.5, 1.5]);
        assert_eq!(s.a_loads(), vec![1.5, 1.5]);
        s.a[0] = 0.0;
        assert_eq!(s.a_loads(), vec![1.0, 1.5]);
        assert_eq!(s.lambda_loads(), vec![1.5, 1.5]);
    }

    #[test]
    fn objective_matches_manual_computation() {
        let inst = tiny();
        let mut s = AdmgState::zeros(&inst);
        s.lambda = vec![1.0, 0.0, 0.0, 2.0];
        s.nu = vec![0.36, 0.48];
        s.mu = vec![0.0, 0.0];
        // Energy: 0.36·30 + 0.48·70 = 44.4; carbon: (0.36·0.5 + 0.48·0.3)·25 = 8.1.
        // Disutility: w=1e4; U₁ = −(1·0.01)²/1 = −1e−4; U₂ = −(2·0.01)²/2 = −2e−4.
        // −w(U₁+U₂) = 1e4·3e−4 = 3.
        let expected = 44.4 + 8.1 + 3.0;
        assert!((s.objective(&inst) - expected).abs() < 1e-9);
    }
}
