//! Message and wall-clock accounting for the distributed protocol.

use crate::message::Message;

/// Aggregate traffic statistics of one distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// λ̃/ã data messages (the per-pair payloads of Fig. 2).
    pub data_messages: usize,
    /// Residual reports and control broadcasts.
    pub control_messages: usize,
    /// Total bytes on the wire (payload + headers).
    pub total_bytes: usize,
}

impl MessageStats {
    /// Records one message.
    pub fn record(&mut self, message: &Message) {
        if message.is_data() {
            self.data_messages += 1;
        } else {
            self.control_messages += 1;
        }
        self.total_bytes += message.wire_bytes();
    }

    /// Total message count.
    #[must_use]
    pub fn total_messages(&self) -> usize {
        self.data_messages + self.control_messages
    }
}

/// Estimates the WAN wall-clock cost of the synchronous protocol.
///
/// Each iteration has four sequential latency-bound phases: the λ̃ scatter,
/// the ã gather, the residual reports, and the control broadcast. With a
/// coordinator co-located at the worst-positioned site, each phase costs at
/// most the maximum front-end↔datacenter latency, so
///
/// ```text
/// wall ≈ iterations × 4 × max_ij L_ij
/// ```
///
/// (computation is negligible next to WAN round trips at the paper's
/// sub-problem sizes).
#[must_use]
pub fn estimated_wan_seconds(iterations: usize, latency_s: &[Vec<f64>]) -> f64 {
    estimated_wan_seconds_live(iterations, latency_s, &[])
}

/// [`estimated_wan_seconds`] restricted to *live* links: latency columns of
/// evicted datacenters carry no protocol traffic in degraded mode, so they
/// must not set the per-phase stall unit. `evicted[j]` marks datacenter `j`
/// evicted; columns past the mask's length count as live. With every
/// datacenter evicted there is no WAN traffic at all and the estimate is 0.
#[must_use]
pub fn estimated_wan_seconds_live(
    iterations: usize,
    latency_s: &[Vec<f64>],
    evicted: &[bool],
) -> f64 {
    iterations as f64 * 4.0 * max_live_latency(latency_s, evicted)
}

/// Worst *live* link latency — the per-phase stall unit (see
/// [`estimated_wan_seconds_live`]); 0 with every datacenter evicted.
pub(crate) fn max_live_latency(latency_s: &[Vec<f64>], evicted: &[bool]) -> f64 {
    latency_s
        .iter()
        .flat_map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(j, _)| !evicted.get(j).copied().unwrap_or(false))
                .map(|(_, &l)| l)
        })
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::HEADER_BYTES;

    #[test]
    fn records_by_kind() {
        let mut s = MessageStats::default();
        s.record(&Message::LambdaTilde {
            frontend: 0,
            datacenter: 0,
            value: 1.0,
        });
        s.record(&Message::Control { stop: false });
        assert_eq!(s.data_messages, 1);
        assert_eq!(s.control_messages, 1);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes, HEADER_BYTES + 8 + HEADER_BYTES + 1);
    }

    #[test]
    fn wan_estimate_scales_with_iterations_and_latency() {
        let lat = vec![vec![0.010, 0.020], vec![0.015, 0.005]];
        let t = estimated_wan_seconds(100, &lat);
        assert!((t - 100.0 * 4.0 * 0.020).abs() < 1e-12);
        assert_eq!(estimated_wan_seconds(0, &lat), 0.0);
    }

    #[test]
    fn wan_estimate_ignores_evicted_links() {
        let lat = vec![vec![0.010, 0.020], vec![0.015, 0.005]];
        // Column 1 (the worst link) is evicted: the live max is 0.015.
        let t = estimated_wan_seconds_live(100, &lat, &[false, true]);
        assert!((t - 100.0 * 4.0 * 0.015).abs() < 1e-12);
        // An empty mask treats every link as live.
        assert_eq!(
            estimated_wan_seconds_live(100, &lat, &[]),
            estimated_wan_seconds(100, &lat)
        );
        // All datacenters evicted: no WAN traffic, zero estimate.
        assert_eq!(estimated_wan_seconds_live(100, &lat, &[true, true]), 0.0);
    }
}
