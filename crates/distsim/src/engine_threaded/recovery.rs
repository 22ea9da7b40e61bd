//! Crash recovery and checkpointing for the supervised threaded engine.
//!
//! These `Supervisor` methods implement the coordinator side of the
//! checkpoint-restart protocol: snapshot rounds, respawn-and-replay from
//! the last checkpoint, datacenter eviction, and the final iterate
//! gather. They live in a child module purely to keep the engine file
//! focused on the `Transport` phase sequence; the decision machine they
//! serve is `crate::fault::FaultTracker`.

use std::collections::HashSet;

use ufc_core::CoreError;

use crate::coordinator::{column_of, replay_entries, row_of, Gathered};
use crate::fault::NodeId;
use crate::message::Message;
use crate::node::{DatacenterNode, FrontendNode};
use crate::snapshot::{DatacenterSnapshot, FrontendSnapshot};
use crate::supervision::{gather_phase, DcCmd, FeCmd, Reply};

use super::Supervisor;

impl Supervisor<'_> {
    /// Respawns front-end `i` from its last checkpoint, replays the
    /// buffered inputs since, and re-applies this iteration's membership
    /// deltas, so its state is exactly what the crashed worker's would
    /// have been entering iteration `k`.
    pub(super) fn respawn_frontend(&mut self, i: usize, k: usize) -> Result<(), CoreError> {
        let mut node = FrontendNode::new(self.instance, i, &self.settings);
        let mut base = 0usize;
        if let Some((it, blob)) = self.store.frontend(i) {
            node.restore(&FrontendSnapshot::from_bytes(blob)?)?;
            base = it;
        }
        self.spawn_frontend(i, node, k);
        let mut replayed = 0usize;
        for entry in replay_entries(&self.history, base, k) {
            self.send_fe(
                i,
                FeCmd::Predict {
                    iteration: entry.iteration,
                },
            );
            self.send_fe(
                i,
                FeCmd::Correct {
                    iteration: entry.iteration,
                    a_row: row_of(&entry.a_cols, i),
                },
            );
            replayed += 1;
        }
        self.tracker.report.recomputed_iterations += replayed;
        for &j in &self.readmitted_now {
            self.send_fe(
                i,
                FeCmd::Membership {
                    datacenter: j,
                    evict: false,
                },
            );
        }
        Ok(())
    }

    /// Respawns datacenter `j` from its last checkpoint and replays the
    /// buffered λ̃ columns since.
    pub(super) fn respawn_datacenter(&mut self, j: usize, k: usize) -> Result<(), CoreError> {
        let mut node = DatacenterNode::new(
            self.instance,
            j,
            &self.settings,
            self.active_mu,
            self.active_nu,
        );
        let mut base = 0usize;
        if let Some((it, blob)) = self.store.datacenter(j) {
            node.restore(&DatacenterSnapshot::from_bytes(blob)?)?;
            base = it;
        }
        self.spawn_datacenter(j, node, k);
        let mut replayed = 0usize;
        for entry in replay_entries(&self.history, base, k) {
            self.send_dc(
                j,
                DcCmd::Process {
                    iteration: entry.iteration,
                    column: column_of(&entry.rows, j),
                },
            );
            replayed += 1;
        }
        self.tracker.report.recomputed_iterations += replayed;
        Ok(())
    }

    /// Evicts datacenter `j`: drops its command channel, joins the dead
    /// worker, and broadcasts the membership change to every front-end.
    pub(super) fn evict_datacenter(&mut self, j: usize) {
        self.dc_tx[j] = None;
        if let Some(handle) = self.dc_handles[j].take() {
            let _ = handle.join();
        }
        for i in 0..self.m {
            self.send_fe(
                i,
                FeCmd::Membership {
                    datacenter: j,
                    evict: true,
                },
            );
            self.stats.record(&Message::Membership {
                datacenter: j,
                evict: true,
            });
        }
    }

    /// One checkpoint round: every live node snapshots its iterate slice
    /// and ships it to the coordinator, which accounts the traffic and
    /// clears the replay buffer.
    pub(super) fn checkpoint_round(&mut self, k: usize) -> Result<(), CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        for i in 0..m {
            self.send_fe(i, FeCmd::Snapshot { iteration: k });
        }
        for j in 0..n {
            if !self.tracker.is_evicted(j) {
                self.send_dc(j, DcCmd::Snapshot { iteration: k });
                pending.insert(NodeId::Datacenter(j));
            }
        }
        let mut fe_blobs: Vec<Option<Vec<u8>>> = vec![None; m];
        let mut dc_blobs: Vec<Option<Vec<u8>>> = vec![None; n];
        let missing = gather_phase(
            &self.reply_rx,
            &mut pending,
            self.timeout,
            self.rounds,
            |node| self.alive(node),
            |reply| match reply {
                Reply::FeSnapshot { i, iteration, blob } if iteration == k => {
                    fe_blobs[i] = Some(blob);
                    Some(NodeId::Frontend(i))
                }
                Reply::DcSnapshot { j, iteration, blob } if iteration == k => {
                    dc_blobs[j] = Some(blob);
                    Some(NodeId::Datacenter(j))
                }
                _ => None,
            },
        );
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                k,
                "no reply to the checkpoint request",
            ));
        }
        for (i, blob) in fe_blobs.into_iter().enumerate() {
            let blob = blob.ok_or_else(|| {
                CoreError::node_failure(
                    NodeId::Frontend(i).to_string(),
                    k,
                    "checkpoint blob missing after gather",
                )
            })?;
            self.stats.record(&Message::Checkpoint {
                node: i,
                payload_bytes: blob.len(),
            });
            self.store.put_frontend(i, k, blob);
        }
        for (j, blob) in dc_blobs.into_iter().enumerate() {
            let Some(blob) = blob else { continue };
            self.stats.record(&Message::Checkpoint {
                node: m + j,
                payload_bytes: blob.len(),
            });
            self.store.put_datacenter(j, k, blob);
        }
        self.tracker.report.checkpoints_taken += 1;
        self.history.clear();
        Ok(())
    }

    /// Ships `Finish` to every live worker and gathers the final iterate.
    pub(super) fn final_gather(&mut self, iterations: usize) -> Result<Gathered, CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        for i in 0..m {
            self.send_fe(i, FeCmd::Finish);
        }
        for j in 0..n {
            if !self.tracker.is_evicted(j) {
                self.send_dc(j, DcCmd::Finish);
                pending.insert(NodeId::Datacenter(j));
            }
        }
        let mut lambda_rows: Vec<Vec<f64>> = vec![Vec::new(); m];
        let mut mu = vec![0.0; n];
        let mut d = vec![0.0; n];
        let missing = gather_phase(
            &self.reply_rx,
            &mut pending,
            self.timeout,
            self.rounds,
            |node| self.alive(node),
            |reply| match reply {
                Reply::FeFinal { i, lambda } => {
                    lambda_rows[i] = lambda;
                    Some(NodeId::Frontend(i))
                }
                Reply::DcFinal { j, mu: v, d: dv } => {
                    mu[j] = v;
                    d[j] = dv;
                    Some(NodeId::Datacenter(j))
                }
                _ => None,
            },
        );
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                iterations,
                "no reply to the final gather",
            ));
        }
        Ok((lambda_rows, mu, d))
    }
}
