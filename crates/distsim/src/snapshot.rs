//! Per-node checkpoints for crash-restart.
//!
//! A checkpoint is a node's iterate slice serialized by its snapshot type
//! ([`ufc_core::node::FrontendSnapshot`],
//! [`ufc_core::node::DatacenterSnapshot`]) — this crate defines no
//! byte-format logic of its own. A [`CheckpointStore`] holds the most
//! recent blob per node plus the iteration it was taken at, so the
//! supervisor can respawn a crashed worker from the last checkpoint and
//! replay only the iterations since.

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
    use ufc_core::node::{DatacenterSnapshot, FrontendSnapshot};

    /// A front-end checkpoint decodes from its store slot exactly.
    #[test]
    fn frontend_round_trip() {
        let snap = FrontendSnapshot {
            lambda: vec![0.5, 0.25, 0.0],
            lambda_tilde: vec![0.5, 0.125, 0.125],
            a: vec![0.4, 0.3, 0.05],
            varphi: vec![-1.5, 0.0, 2.25],
            evicted: vec![false, true, false],
        };
        let mut store = CheckpointStore::new(2, 1);
        store.put_frontend(1, 3, snap.to_bytes());
        let (iteration, blob) = store.frontend(1).unwrap();
        assert_eq!(iteration, 3);
        assert_eq!(FrontendSnapshot::from_bytes(blob).unwrap(), snap);
    }

    /// A datacenter checkpoint decodes from its store slot exactly.
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
        let mut store = CheckpointStore::new(2, 1);
        store.put_datacenter(0, 5, snap.to_bytes());
        let (iteration, blob) = store.datacenter(0).unwrap();
        assert_eq!(iteration, 5);
        assert_eq!(DatacenterSnapshot::from_bytes(blob).unwrap(), snap);
    }

    /// A slot holding the other kind's blob, a truncated blob or a bad
    /// magic number fails to decode instead of restoring garbage.
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
        let mut store = CheckpointStore::new(1, 1);
        store.put_datacenter(0, 1, blob.clone());
        assert!(DatacenterSnapshot::from_bytes(store.datacenter(0).unwrap().1).is_err());
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
