//! Chaos study: link-level payload corruption vs the protocol's defenses.
//!
//! Geo-distributed WAN links do not just drop packets — they occasionally
//! deliver *wrong bytes* (bit rot, faulty NICs, middlebox bugs). This
//! extension sweeps seeded corruption rates over the lockstep engine in
//! two postures: **verified** (CRC32-framed payloads, corrupt copies
//! detected on receive and retransmitted — the run must reach the clean
//! operating point bit-for-bit) and **unverified** (poison is delivered
//! and the driver's divergence gate is the only line of defense — runs
//! end converged, typed-diverged, or typed-exhausted, never panicked and
//! never silently wrong without the integrity counters saying so).

use std::path::Path;

use ufc_core::{AdmgSettings, CoreError, Result, Strategy};
use ufc_distsim::{
    CorruptionConfig, CorruptionKind, DistributedAdmg, Engine, RunSpec, SocketOptions,
};
use ufc_model::scenario::ScenarioBuilder;
use ufc_traces::csv::Csv;

use crate::parallel::{default_threads, par_map};

/// Per-payload corruption probabilities swept by the study.
pub const CORRUPTION_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// Aggregate over all hours for one (rate, posture) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// Per-payload corruption probability.
    pub rate: f64,
    /// Whether receivers verified CRC32 checksums.
    pub verified: bool,
    /// Hours attempted.
    pub hours_attempted: usize,
    /// Hours that converged.
    pub hours_converged: usize,
    /// Hours ended by the divergence gate (typed `Divergence`).
    pub hours_diverged: usize,
    /// Hours ended by retransmit-budget exhaustion (typed
    /// `CorruptPayload`).
    pub hours_exhausted: usize,
    /// Payloads corrupted on the wire.
    pub corruptions_injected: u64,
    /// Corruptions caught by verify-on-receive.
    pub corruptions_detected: u64,
    /// Corruptions delivered into the iterate stream (unverified only).
    pub corruptions_delivered: u64,
    /// Checksum-triggered retransmissions.
    pub retransmissions: u64,
    /// Mean wire-byte overhead vs the clean run, over converged hours
    /// (fraction; the checksum trailer plus resent frames).
    pub mean_extra_bytes: f64,
    /// Worst relative |UFC delta| vs the clean run over converged hours —
    /// must be 0 when `verified`.
    pub max_abs_ufc_delta: f64,
}

/// The full study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosStudy {
    /// One aggregate per (rate, posture) cell.
    pub points: Vec<ChaosPoint>,
}

/// One hour's outcome (internal).
enum HourOutcome {
    Converged {
        integrity: ufc_core::telemetry::IntegrityCounters,
        extra_bytes: f64,
        rel_delta: f64,
    },
    Diverged,
    Exhausted,
}

/// Runs the sweep over `hours` hourly instances for every
/// [`CORRUPTION_RATES`] entry × checksum posture on the lockstep engine.
/// Typed corruption/divergence failures end only their own hour and are
/// tallied; anything else propagates.
///
/// # Errors
///
/// Scenario construction or clean-run solver failures.
pub fn run(seed: u64, hours: usize, settings: AdmgSettings) -> Result<ChaosStudy> {
    run_rates(seed, hours, settings, &CORRUPTION_RATES)
}

/// [`run`] with a caller-chosen rate list (the `--quick` CI smoke uses a
/// shorter one).
///
/// # Errors
///
/// As for [`run`].
pub fn run_rates(
    seed: u64,
    hours: usize,
    settings: AdmgSettings,
    rates: &[f64],
) -> Result<ChaosStudy> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()
        .map_err(CoreError::Model)?;
    let hour_ids: Vec<usize> = (0..scenario.instances.len()).collect();

    // Clean per-hour baselines: the operating point every verified run
    // must reproduce and the byte count the overhead is measured against.
    let runner = DistributedAdmg::try_new(settings)?;
    let baselines = par_map(&hour_ids, default_threads(), |_, &t| {
        runner
            .execute(
                &scenario.instances[t],
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .map(|r| (r.breakdown.ufc(), r.stats.total_bytes))
    });
    let baselines: Vec<(f64, usize)> = baselines.into_iter().collect::<Result<_>>()?;

    let mut points = Vec::new();
    for (r, &rate) in rates.iter().enumerate() {
        for verified in [true, false] {
            let outcomes = par_map(&hour_ids, default_threads(), |_, &t| {
                let inst = &scenario.instances[t];
                // One independent, reproducible stream per (rate, hour).
                let cfg_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((r * hours + t) as u64);
                let cfg = CorruptionConfig::try_new(rate, cfg_seed)?.with_checksums(verified);
                match runner.execute(
                    inst,
                    Strategy::Hybrid,
                    &RunSpec::new(Engine::Lockstep).with_corruption(cfg),
                    &mut (),
                ) {
                    Ok(report) => {
                        let (clean_ufc, clean_bytes) = baselines[t];
                        let delta = report.breakdown.ufc() - clean_ufc;
                        Ok(HourOutcome::Converged {
                            integrity: report.integrity.unwrap_or_default(),
                            extra_bytes: (report.stats.total_bytes as f64 - clean_bytes as f64)
                                / clean_bytes as f64,
                            rel_delta: delta.abs() / clean_ufc.abs().max(1.0),
                        })
                    }
                    Err(CoreError::Divergence { .. }) => Ok(HourOutcome::Diverged),
                    Err(CoreError::CorruptPayload { .. }) => Ok(HourOutcome::Exhausted),
                    Err(e) => Err(e),
                }
            });

            let mut point = ChaosPoint {
                rate,
                verified,
                hours_attempted: hour_ids.len(),
                hours_converged: 0,
                hours_diverged: 0,
                hours_exhausted: 0,
                corruptions_injected: 0,
                corruptions_detected: 0,
                corruptions_delivered: 0,
                retransmissions: 0,
                mean_extra_bytes: 0.0,
                max_abs_ufc_delta: 0.0,
            };
            let mut extra_sum = 0.0;
            for outcome in outcomes {
                match outcome? {
                    HourOutcome::Converged {
                        integrity,
                        extra_bytes,
                        rel_delta,
                    } => {
                        point.hours_converged += 1;
                        point.corruptions_injected += integrity.corruptions_injected;
                        point.corruptions_detected += integrity.corruptions_detected;
                        point.corruptions_delivered += integrity.corruptions_delivered;
                        point.retransmissions += integrity.checksum_retransmissions;
                        extra_sum += extra_bytes;
                        point.max_abs_ufc_delta = point.max_abs_ufc_delta.max(rel_delta);
                    }
                    HourOutcome::Diverged => point.hours_diverged += 1,
                    HourOutcome::Exhausted => point.hours_exhausted += 1,
                }
            }
            point.mean_extra_bytes = extra_sum / point.hours_converged.max(1) as f64;
            points.push(point);
        }
    }
    Ok(ChaosStudy { points })
}

impl ChaosStudy {
    /// `true` when every verified cell converged every hour onto the
    /// clean operating point — the codec's headline guarantee.
    #[must_use]
    pub fn verified_cells_clean(&self) -> bool {
        self.points
            .iter()
            .filter(|p| p.verified)
            .all(|p| p.hours_converged == p.hours_attempted && p.max_abs_ufc_delta == 0.0)
    }

    /// CSV with one row per (rate, posture) cell.
    #[must_use]
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new(&[
            "corruption_rate",
            "verified",
            "hours_converged",
            "hours_diverged",
            "hours_exhausted",
            "corruptions_injected",
            "corruptions_detected",
            "corruptions_delivered",
            "retransmissions",
            "mean_extra_bytes_pct",
            "max_abs_ufc_delta_pct",
        ]);
        for p in &self.points {
            csv.push_row(&[
                p.rate,
                f64::from(u8::from(p.verified)),
                p.hours_converged as f64,
                p.hours_diverged as f64,
                p.hours_exhausted as f64,
                p.corruptions_injected as f64,
                p.corruptions_detected as f64,
                p.corruptions_delivered as f64,
                p.retransmissions as f64,
                100.0 * p.mean_extra_bytes,
                100.0 * p.max_abs_ufc_delta,
            ]);
        }
        csv
    }
}

/// One cell of the socket sweep: a corruption posture applied to the
/// engine's real TCP traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketChaosPoint {
    /// Per-attempt corruption probability.
    pub rate: f64,
    /// `None` for §12 value-level corruption (random kind per event,
    /// verified checksums); a wire-level kind for whole-frame chaos.
    pub kind: Option<CorruptionKind>,
    /// Hours attempted.
    pub hours_attempted: usize,
    /// Hours that converged.
    pub hours_converged: usize,
    /// Hours ended by retransmit-budget exhaustion (typed
    /// `CorruptPayload`).
    pub hours_exhausted: usize,
    /// Hours whose UFC matched the clean lockstep run bit-for-bit.
    pub hours_bitwise_clean: usize,
    /// Corruption attempts injected into the live byte stream.
    pub corruptions_injected: u64,
    /// Injections caught by the CRC ladder or absorbed structurally.
    pub corruptions_detected: u64,
    /// Corruptions delivered into the iterate stream — must stay 0.
    pub corruptions_delivered: u64,
    /// Repair retransmissions over the wire.
    pub retransmissions: u64,
}

/// Result of the socket-engine chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketChaosStudy {
    /// One aggregate per (rate, posture) cell.
    pub points: Vec<SocketChaosPoint>,
}

/// Sweeps seeded corruption over the multi-process socket engine's real
/// TCP traffic: for every positive rate, one verified value-level cell
/// (identical draw order to the in-process engines) and one cell per
/// wire-level kind — frame truncation, duplication, reordering — applied
/// to live frame bytes in both directions. Typed budget-exhaustion
/// failures end only their own hour; anything else propagates.
///
/// # Errors
///
/// Scenario construction, clean-run solver failures, or a socket run
/// ending in anything other than convergence or a typed
/// `CorruptPayload`.
pub fn run_sockets_chaos(
    seed: u64,
    hours: usize,
    settings: AdmgSettings,
    rates: &[f64],
    worker: &Path,
) -> Result<SocketChaosStudy> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()
        .map_err(CoreError::Model)?;
    let hour_ids: Vec<usize> = (0..scenario.instances.len()).collect();

    // Clean lockstep baselines: the socket engine is bit-identical to
    // lockstep, so these are the bits every repaired hour must reproduce.
    let runner = DistributedAdmg::try_new(settings)?;
    let baselines = par_map(&hour_ids, default_threads(), |_, &t| {
        runner
            .execute(
                &scenario.instances[t],
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .map(|r| r.breakdown.ufc().to_bits())
    });
    let baselines: Vec<u64> = baselines.into_iter().collect::<Result<_>>()?;

    let mut cells: Vec<(f64, Option<CorruptionKind>)> = Vec::new();
    for &rate in rates {
        cells.push((rate, None));
        if rate > 0.0 {
            for kind in [
                CorruptionKind::FrameTruncate,
                CorruptionKind::FrameDuplicate,
                CorruptionKind::FrameReorder,
            ] {
                cells.push((rate, Some(kind)));
            }
        }
    }

    let sockets = RunSpec::new(Engine::Sockets(SocketOptions::new(worker)));
    let mut points = Vec::new();
    for (c, &(rate, kind)) in cells.iter().enumerate() {
        let mut point = SocketChaosPoint {
            rate,
            kind,
            hours_attempted: hour_ids.len(),
            hours_converged: 0,
            hours_exhausted: 0,
            hours_bitwise_clean: 0,
            corruptions_injected: 0,
            corruptions_detected: 0,
            corruptions_delivered: 0,
            retransmissions: 0,
        };
        // Socket runs already fan out one OS process per node; run the
        // hours serially instead of stacking process fleets.
        for &t in &hour_ids {
            let cfg_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((c * hours + t) as u64);
            // Value-level cells verify checksums so every strike is
            // repaired; wire-level cells rely on the always-on framing CRC.
            let mut cfg = CorruptionConfig::try_new(rate, cfg_seed)?.with_checksums(kind.is_none());
            cfg.kind = kind;
            match runner.execute(
                &scenario.instances[t],
                Strategy::Hybrid,
                &sockets.clone().with_corruption(cfg),
                &mut (),
            ) {
                Ok(report) => {
                    point.hours_converged += usize::from(report.converged);
                    point.hours_bitwise_clean +=
                        usize::from(report.breakdown.ufc().to_bits() == baselines[t]);
                    let integrity = report.integrity.unwrap_or_default();
                    point.corruptions_injected += integrity.corruptions_injected;
                    point.corruptions_detected += integrity.corruptions_detected;
                    point.corruptions_delivered += integrity.corruptions_delivered;
                    point.retransmissions += integrity.checksum_retransmissions;
                }
                Err(CoreError::CorruptPayload { .. }) => point.hours_exhausted += 1,
                Err(e) => return Err(e),
            }
        }
        points.push(point);
    }
    Ok(SocketChaosStudy { points })
}

impl SocketChaosStudy {
    /// `true` when every hour of every cell converged onto the clean UFC
    /// bit-for-bit with nothing corrupt delivered — the sweep's headline
    /// guarantee.
    #[must_use]
    pub fn all_hours_bitwise_clean(&self) -> bool {
        self.points.iter().all(|p| {
            p.hours_converged == p.hours_attempted
                && p.hours_bitwise_clean == p.hours_attempted
                && p.corruptions_delivered == 0
        })
    }

    /// `true` when every wire-level cell detected (or structurally
    /// absorbed) exactly as many faults as it injected.
    #[must_use]
    pub fn wire_faults_all_caught(&self) -> bool {
        self.points
            .iter()
            .filter(|p| p.kind.is_some())
            .all(|p| p.corruptions_detected == p.corruptions_injected)
    }

    /// CSV with one row per cell; the kind column is 0 for value-level
    /// corruption, 1/2/3 for frame truncate/duplicate/reorder.
    #[must_use]
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new(&[
            "corruption_rate",
            "kind",
            "hours_converged",
            "hours_exhausted",
            "hours_bitwise_clean",
            "corruptions_injected",
            "corruptions_detected",
            "corruptions_delivered",
            "retransmissions",
        ]);
        for p in &self.points {
            let kind = match p.kind {
                None => 0.0,
                Some(CorruptionKind::FrameTruncate) => 1.0,
                Some(CorruptionKind::FrameDuplicate) => 2.0,
                Some(CorruptionKind::FrameReorder) => 3.0,
                Some(_) => -1.0,
            };
            csv.push_row(&[
                p.rate,
                kind,
                p.hours_converged as f64,
                p.hours_exhausted as f64,
                p.hours_bitwise_clean as f64,
                p.corruptions_injected as f64,
                p.corruptions_detected as f64,
                p.corruptions_delivered as f64,
                p.retransmissions as f64,
            ]);
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verified_runs_reach_the_clean_point_and_unverified_poison_is_typed() {
        let study = run_rates(
            crate::DEFAULT_SEED,
            2,
            AdmgSettings::default(),
            &[0.0, 1e-3],
        )
        .unwrap();
        // 2 rates × 2 postures.
        assert_eq!(study.points.len(), 4);
        assert!(study.verified_cells_clean());

        for p in &study.points {
            assert_eq!(
                p.hours_converged + p.hours_diverged + p.hours_exhausted,
                p.hours_attempted,
                "every hour ends in exactly one tallied state"
            );
            if p.rate == 0.0 {
                assert_eq!(p.hours_converged, p.hours_attempted);
                assert_eq!(p.corruptions_injected, 0);
                assert_eq!(p.max_abs_ufc_delta, 0.0);
            }
            if p.verified {
                assert_eq!(p.corruptions_delivered, 0);
                if p.rate > 0.0 {
                    assert!(p.corruptions_injected > 0, "rate 1e-3 must strike");
                    assert!(p.mean_extra_bytes > 0.0, "checksums cost bytes");
                }
            } else if p.rate > 0.0 {
                // Unverified poison was delivered or ended the hour with a
                // typed error; either way it is visible, never silent.
                assert!(
                    p.corruptions_delivered > 0 || p.hours_diverged + p.hours_exhausted > 0,
                    "delivered poison must be accounted"
                );
            }
        }
    }
}
