//! Logical messages of the distributed protocol (paper Fig. 2).
//!
//! Each variant carries the logical payload exchanged between a front-end
//! and a datacenter (or the coordinator); [`Message::wire_bytes`] gives the
//! size a real deployment would put on the wire (payload + a fixed header),
//! which the statistics use for byte accounting. This module defines no
//! byte format: the simulated link channel (`crate::fault`) checks the
//! values it carries with [`crate::wire::crc32`], and the socket engine
//! frames what it sends in [`crate::wire`].

/// Fixed per-message header: sender, receiver, iteration, type tag.
pub const HEADER_BYTES: usize = 16;

/// Extra on-wire bytes a checksummed data message is charged over the plain
/// payload accounting: the modelled trailer of a magic byte plus a 4-byte
/// CRC32.
pub const CHECKSUM_OVERHEAD_BYTES: usize = 5;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Step 1 — front-end `i` sends its predicted routing share to
    /// datacenter `j`.
    LambdaTilde {
        /// Originating front-end.
        frontend: usize,
        /// Destination datacenter.
        datacenter: usize,
        /// Predicted `λ̃_ij` (kilo-servers).
        value: f64,
    },
    /// Step 4 — datacenter `j` sends the corrected auxiliary routing share
    /// back to front-end `i`.
    ATilde {
        /// Destination front-end.
        frontend: usize,
        /// Originating datacenter.
        datacenter: usize,
        /// Predicted `ã_ij` (kilo-servers).
        value: f64,
    },
    /// Step 5 — a node reports its local residual contributions to the
    /// coordinator.
    ResidualReport {
        /// Reporting node (front-ends then datacenters).
        node: usize,
        /// Local link residual (kilo-servers).
        link: f64,
        /// Local balance residual (MW; zero for front-ends).
        balance: f64,
        /// Local dual/iterate movement.
        movement: f64,
    },
    /// Coordinator broadcast: continue to the next iteration or stop.
    Control {
        /// `true` to stop (converged or iteration cap).
        stop: bool,
    },
    /// Checkpoint round-trip: the coordinator requests a snapshot and a
    /// node ships back its serialized iterate slice.
    Checkpoint {
        /// Node whose state is snapshotted (front-ends then datacenters).
        node: usize,
        /// Serialized snapshot size (bytes) — the payload put on the wire.
        payload_bytes: usize,
    },
    /// Coordinator broadcast announcing a membership change (datacenter
    /// eviction or readmission) to every surviving front-end.
    Membership {
        /// Datacenter whose status changed.
        datacenter: usize,
        /// `true` for eviction, `false` for readmission.
        evict: bool,
    },
    /// A datacenter reports one scheduled extension block's corrected value
    /// to the coordinator (e.g. the storage block's net discharge `d_j`).
    /// The block is identified by its stable [`BlockKind`] wire id, so the
    /// message generalizes to any future block without a new kind tag.
    ///
    /// [`BlockKind`]: ufc_core::BlockKind
    BlockReport {
        /// Reporting datacenter.
        datacenter: usize,
        /// The block's [`ufc_core::BlockKind::wire_id`].
        block: u8,
        /// The block's corrected scalar value this iteration.
        value: f64,
    },
}

impl Message {
    /// Bytes this message would occupy on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        let payload = match self {
            Message::LambdaTilde { .. } | Message::ATilde { .. } => 8,
            Message::ResidualReport { .. } => 24,
            Message::Control { .. } => 1,
            Message::Checkpoint { payload_bytes, .. } => *payload_bytes,
            Message::Membership { .. } => 2,
            Message::BlockReport { .. } => 13,
        };
        HEADER_BYTES + payload
    }

    /// `true` for the per-pair data messages (λ̃/ã), `false` for control
    /// traffic.
    #[must_use]
    pub fn is_data(&self) -> bool {
        matches!(self, Message::LambdaTilde { .. } | Message::ATilde { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let m = Message::LambdaTilde {
            frontend: 0,
            datacenter: 1,
            value: 1.5,
        };
        assert_eq!(m.wire_bytes(), HEADER_BYTES + 8);
        assert!(m.is_data());

        let r = Message::ResidualReport {
            node: 3,
            link: 0.0,
            balance: 0.0,
            movement: 0.0,
        };
        assert_eq!(r.wire_bytes(), HEADER_BYTES + 24);
        assert!(!r.is_data());

        let c = Message::Control { stop: true };
        assert_eq!(c.wire_bytes(), HEADER_BYTES + 1);
        assert!(!c.is_data());
    }
}
