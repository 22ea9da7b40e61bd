//! Per-node checkpoint snapshots for crash-restart.
//!
//! Each node's iterate slice serializes to the same self-describing
//! little-endian layout as [`ufc_core::AdmgState::to_bytes`], built entirely
//! from the shared primitives in `ufc_core::state::codec` (magic check,
//! length-prefixed `f64` slices, packed boolean masks) — this crate defines
//! no byte-format logic of its own. A [`CheckpointStore`] holds the most
//! recent blob per node plus the iteration it was taken at, so the
//! supervisor can respawn a crashed worker from the last checkpoint and
//! replay only the iterations since.

use ufc_core::state::codec;
use ufc_core::CoreError;

/// Magic prefix of front-end snapshot blobs (`UFCF` + version 2: the
/// eviction mask moved from an f64 vector to the codec's packed byte mask).
pub const FRONTEND_MAGIC: &[u8] = b"UFCF\x02";
/// Magic prefix of datacenter snapshot blobs (`UFCD` + version 2: the
/// scalar block grew a fourth slot for the battery net discharge `d_j`).
pub const DATACENTER_MAGIC: &[u8] = b"UFCD\x02";

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

/// The supervisor's per-run checkpoint store: one slot per node (front-ends
/// first, then datacenters), each holding the latest serialized snapshot
/// and the iteration *after* which it was taken.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    m: usize,
    slots: Vec<Option<(usize, Vec<u8>)>>,
}

impl CheckpointStore {
    /// Empty store for `m` front-ends and `n` datacenters.
    #[must_use]
    pub fn new(m: usize, n: usize) -> Self {
        CheckpointStore {
            m,
            slots: vec![None; m + n],
        }
    }

    /// Records front-end `i`'s blob taken after `iteration`.
    pub fn put_frontend(&mut self, i: usize, iteration: usize, blob: Vec<u8>) {
        self.slots[i] = Some((iteration, blob));
    }

    /// Records datacenter `j`'s blob taken after `iteration`.
    pub fn put_datacenter(&mut self, j: usize, iteration: usize, blob: Vec<u8>) {
        self.slots[self.m + j] = Some((iteration, blob));
    }

    /// Latest front-end blob, as `(iteration, bytes)`.
    #[must_use]
    pub fn frontend(&self, i: usize) -> Option<(usize, &[u8])> {
        self.slots[i].as_ref().map(|(it, b)| (*it, b.as_slice()))
    }

    /// Latest datacenter blob, as `(iteration, bytes)`.
    #[must_use]
    pub fn datacenter(&self, j: usize) -> Option<(usize, &[u8])> {
        self.slots[self.m + j]
            .as_ref()
            .map(|(it, b)| (*it, b.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_round_trip() {
        let snap = FrontendSnapshot {
            lambda: vec![0.5, 0.25, 0.0],
            lambda_tilde: vec![0.5, 0.125, 0.125],
            a: vec![0.4, 0.3, 0.05],
            varphi: vec![-1.5, 0.0, 2.25],
            evicted: vec![false, true, false],
        };
        let back = FrontendSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn datacenter_round_trip() {
        let snap = DatacenterSnapshot {
            mu: 0.42,
            nu: 1e-300,
            phi: -7.5,
            d: -0.25,
            a: vec![0.1, 0.9],
            varphi: vec![2.0, -2.0],
        };
        let back = DatacenterSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn rejects_cross_kind_and_corrupt_blobs() {
        let fe = FrontendSnapshot {
            lambda: vec![1.0],
            lambda_tilde: vec![1.0],
            a: vec![1.0],
            varphi: vec![0.0],
            evicted: vec![false],
        };
        let blob = fe.to_bytes();
        assert!(DatacenterSnapshot::from_bytes(&blob).is_err());
        assert!(FrontendSnapshot::from_bytes(&blob[..blob.len() - 2]).is_err());
        let mut bad = blob;
        bad[0] = b'X';
        assert!(FrontendSnapshot::from_bytes(&bad).is_err());
    }

    #[test]
    fn store_tracks_latest_blob_per_node() {
        let mut store = CheckpointStore::new(1, 2);
        assert!(store.frontend(0).is_none());
        store.put_frontend(0, 4, vec![1, 2, 3]);
        store.put_datacenter(1, 4, vec![9]);
        store.put_frontend(0, 8, vec![4, 5]);
        assert_eq!(store.frontend(0), Some((8, &[4u8, 5][..])));
        assert_eq!(store.datacenter(1), Some((4, &[9u8][..])));
        assert!(store.datacenter(0).is_none());
    }
}
