//! The traced pass: one extra pass with run telemetry on, kept as spans in
//! memory, written as JSONL at the end, and reduced to the per-layer
//! metrics.
//!
//! Spans are recorded from the benchmark's side of the layer boundaries:
//! one `solve` span per hourly solve (start, end), whose children are the
//! engine phases of `ufc_core::engine::drive` — aggregated per solve from
//! the solve's `RunTelemetry` as a total and a count, since a phase runs
//! once per iteration — and the `repair.assemble_point` / `model.evaluate`
//! replays made afterwards on the solve's final iterate. A solve's self
//! time (span minus its phase children) is the work outside the iteration
//! loop: workspace construction and polish in process, process spawn,
//! handshake and teardown on sockets.
//!
//! Times are scaled to the reference speed like the end-to-end ones (see
//! the `speed` module): each solve's phases by the probe run before that
//! solve, each replay by a probe run before it. The transport floor and
//! the spans file keep the times as measured.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use ufc_core::repair::assemble_point;
use ufc_core::{Phase, SolverCounters, Strategy};
use ufc_model::evaluate;

use crate::floor;
use crate::speed;
use crate::stats::{declared, json_string, ratio, Declared, Metric};
use crate::workloads::{Inputs, Solve, PARALLELISM};

/// Messages per channel topology of the transport floor (a tenth as many
/// TCP frames).
const FLOOR_MESSAGES: usize = 200_000;

/// Name, unit and better direction of every per-layer metric, in output
/// order.
pub const PER_LAYER: [Declared; 26] = [
    ("engine.begin.us_per_iter", "us", "lower"),
    ("engine.predict_lambda.us_per_iter", "us", "lower"),
    ("engine.step_datacenters.us_per_iter", "us", "lower"),
    ("engine.correct.us_per_iter", "us", "lower"),
    ("engine.finish_iteration.us_per_iter", "us", "lower"),
    ("engine.begin.share", "frac", "lower"),
    ("engine.predict_lambda.share", "frac", "lower"),
    ("engine.step_datacenters.share", "frac", "lower"),
    ("engine.correct.share", "frac", "lower"),
    ("engine.finish_iteration.share", "frac", "lower"),
    ("engine.outside_drive.ms_per_solve", "ms", "lower"),
    ("opt.kkt_factorizations_per_iter", "1/iter", "lower"),
    ("opt.kkt_cache_hit_ratio", "frac", "higher"),
    ("opt.warm_start_accept_ratio", "frac", "higher"),
    ("pool.maps_per_iter", "1/iter", "lower"),
    ("pool.tasks_per_map", "1/map", "higher"),
    ("repair.assemble_point.us_per_solve", "us", "lower"),
    ("model.evaluate.us_per_solve", "us", "lower"),
    ("wire.bytes_per_iter", "B/iter", "lower"),
    ("wire.data_msgs_per_iter", "1/iter", "lower"),
    ("wire.control_msgs_per_iter", "1/iter", "lower"),
    ("floor.chan_seq_ns_per_msg", "ns", "lower"),
    ("floor.chan_spsc_ns_per_msg", "ns", "lower"),
    ("floor.chan_mpsc_ns_per_msg", "ns", "lower"),
    ("floor.tcp_loopback_ns_per_msg", "ns", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
];

fn layer_metric(name: &str, value: f64) -> Metric {
    declared(&PER_LAYER, name, value)
}

/// Per-layer metrics of the traced pass, plus the gate failures it found.
pub struct Traced {
    /// Every [`PER_LAYER`] metric, in order.
    pub metrics: Vec<Metric>,
    /// Telemetry changed an iterate, or a replay disagreed with its solve.
    pub failures: Vec<String>,
}

/// Runs the traced pass and reduces it. `reference` is the first timed
/// pass as the gates left it (its final iterates drive the replays),
/// `untraced_ms` the summed hour times of the untraced passes at the
/// reference speed. With `out`, the spans are written there as JSONL.
///
/// # Errors
///
/// Solver-settings, socket or trace-file errors.
pub fn traced_pass(
    inputs: &Inputs,
    reference: &[Solve],
    untraced_ms: f64,
    quick: bool,
    out: Option<&Path>,
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let traced = inputs.run_hours(usize::MAX, true)?;
    let traced_ms: f64 = traced.iter().map(Solve::ms).sum();
    let mut failures = Vec::new();
    for (t, r) in traced.iter().zip(reference) {
        if t.iterations() != r.iterations() {
            failures.push(format!(
                "hour {} {}: telemetry changed the run ({} vs {} iterations)",
                t.hour,
                t.strategy.label(),
                t.iterations(),
                r.iterations()
            ));
        }
    }

    // Layer totals over the solves that returned a point.
    let mut phase_ns = [0f64; 5];
    let (mut solve_ns, mut solves, mut iterations) = (0f64, 0usize, 0f64);
    let mut counters = SolverCounters::default();
    let (mut bytes, mut data, mut control) = (0f64, 0f64, 0f64);
    for s in &traced {
        let Ok(x) = &s.outcome else { continue };
        let speed = speed::factor(s.probe);
        solves += 1;
        solve_ns += s.wall.as_nanos() as f64 * speed;
        iterations += x.iterations as f64;
        if let Some(t) = &x.telemetry {
            for p in Phase::ALL {
                phase_ns[p.index()] += t.phase(p).total_ns() as f64 * speed;
            }
            let c = t.solver;
            counters.kkt_cache_hits += c.kkt_cache_hits;
            counters.kkt_cache_misses += c.kkt_cache_misses;
            counters.warm_starts_accepted += c.warm_starts_accepted;
            counters.warm_starts_rejected += c.warm_starts_rejected;
            counters.pool_tasks += c.pool_tasks;
            counters.pool_maps += c.pool_maps;
        }
        if let Some(w) = &x.wire {
            bytes += w.total_bytes as f64;
            data += w.data_messages as f64;
            control += w.control_messages as f64;
        }
    }

    // Replays of repair and evaluation on each reference final iterate.
    let mut replay_ns = vec![(0u128, 0u128); reference.len()];
    let (mut assemble_ns, mut evaluate_ns, mut replays) = (0f64, 0f64, 0usize);
    for (s, slot) in reference.iter().zip(replay_ns.iter_mut()) {
        let Ok(x) = &s.outcome else { continue };
        let Some(state) = &x.state else { continue };
        let inst = inputs.instance(s);
        let speed = speed::factor(speed::probe());
        let t0 = Instant::now();
        let point = assemble_point(inst, state, s.strategy == Strategy::FuelCellOnly);
        let t1 = Instant::now();
        let breakdown = point.as_ref().ok().map(|p| evaluate(inst, p));
        let t2 = Instant::now();
        *slot = ((t1 - t0).as_nanos(), (t2 - t1).as_nanos());
        match (point, breakdown) {
            (Ok(p), Some(Ok(b))) if p == x.point && b.ufc().to_bits() == x.ufc.to_bits() => {
                assemble_ns += slot.0 as f64 * speed;
                evaluate_ns += slot.1 as f64 * speed;
                replays += 1;
            }
            _ => failures.push(format!(
                "hour {} {}: replaying repair and evaluation does not reproduce the point",
                s.hour,
                s.strategy.label()
            )),
        }
    }

    let messages = if quick {
        FLOOR_MESSAGES / 100
    } else {
        FLOOR_MESSAGES
    };
    let floor =
        floor::measure(messages, PARALLELISM).map_err(|e| format!("transport floor: {e}"))?;

    if let Some(path) = out {
        write_spans(path, epoch, &traced, &replay_ns, &floor)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let solves_f = solves.max(1) as f64;
    let iters = iterations.max(1.0);
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for p in Phase::ALL {
        metrics.push(layer_metric(
            &format!("engine.{}.us_per_iter", p.name()),
            phase_ns[p.index()] / 1e3 / iters,
        ));
    }
    for p in Phase::ALL {
        metrics.push(layer_metric(
            &format!("engine.{}.share", p.name()),
            ratio(phase_ns[p.index()], solve_ns),
        ));
    }
    let drive_ns: f64 = phase_ns.iter().sum();
    let c = counters;
    metrics.extend([
        layer_metric(
            "engine.outside_drive.ms_per_solve",
            (solve_ns - drive_ns) / 1e6 / solves_f,
        ),
        layer_metric(
            "opt.kkt_factorizations_per_iter",
            c.kkt_cache_misses as f64 / iters,
        ),
        layer_metric(
            "opt.kkt_cache_hit_ratio",
            ratio(
                c.kkt_cache_hits as f64,
                (c.kkt_cache_hits + c.kkt_cache_misses) as f64,
            ),
        ),
        layer_metric(
            "opt.warm_start_accept_ratio",
            ratio(
                c.warm_starts_accepted as f64,
                (c.warm_starts_accepted + c.warm_starts_rejected) as f64,
            ),
        ),
        layer_metric("pool.maps_per_iter", c.pool_maps as f64 / iters),
        layer_metric(
            "pool.tasks_per_map",
            ratio(c.pool_tasks as f64, c.pool_maps as f64),
        ),
        layer_metric(
            "repair.assemble_point.us_per_solve",
            assemble_ns / 1e3 / replays.max(1) as f64,
        ),
        layer_metric(
            "model.evaluate.us_per_solve",
            evaluate_ns / 1e3 / replays.max(1) as f64,
        ),
        layer_metric("wire.bytes_per_iter", bytes / iters),
        layer_metric("wire.data_msgs_per_iter", data / iters),
        layer_metric("wire.control_msgs_per_iter", control / iters),
        layer_metric("floor.chan_seq_ns_per_msg", floor.chan_seq_ns),
        layer_metric("floor.chan_spsc_ns_per_msg", floor.chan_spsc_ns),
        layer_metric("floor.chan_mpsc_ns_per_msg", floor.chan_mpsc_ns),
        layer_metric("floor.tcp_loopback_ns_per_msg", floor.tcp_loopback_ns),
        layer_metric("trace.overhead_frac", traced_ms / untraced_ms - 1.0),
    ]);
    Ok(Traced { metrics, failures })
}

/// Writes the spans as JSONL: per solve one `solve` span (times in ns
/// since the traced pass started) followed by its children, then the
/// transport floor.
fn write_spans(
    path: &Path,
    epoch: Instant,
    traced: &[Solve],
    replay_ns: &[(u128, u128)],
    floor: &floor::Floor,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    let mut id = 0u64;
    for (s, &(assemble, eval)) in traced.iter().zip(replay_ns) {
        id += 1;
        let parent = id;
        let start = (s.start - epoch).as_nanos();
        let (iterations, converged) = (s.iterations(), s.converged());
        writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{parent},\"parent\":null,\"name\":\"solve\",\
             \"hour\":{},\"strategy\":{},\"start_ns\":{start},\"end_ns\":{},\
             \"iterations\":{iterations},\"converged\":{converged}}}",
            s.hour,
            json_string(s.strategy.label()),
            start + s.wall.as_nanos(),
        )?;
        if let Some(t) = s.outcome.as_ref().ok().and_then(|x| x.telemetry.as_ref()) {
            for p in Phase::ALL {
                id += 1;
                let h = t.phase(p);
                writeln!(
                    out,
                    "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"engine.{}\",\
                     \"total_ns\":{},\"count\":{}}}",
                    p.name(),
                    h.total_ns(),
                    h.count()
                )?;
            }
        }
        for (name, ns) in [
            ("repair.assemble_point", assemble),
            ("model.evaluate", eval),
        ] {
            id += 1;
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
                 \"total_ns\":{ns},\"count\":1}}"
            )?;
        }
    }
    writeln!(
        out,
        "{{\"type\":\"floor\",\"chan_seq_ns\":{},\"chan_spsc_ns\":{},\"chan_mpsc_ns\":{},\
         \"tcp_loopback_ns\":{}}}",
        floor.chan_seq_ns, floor.chan_spsc_ns, floor.chan_mpsc_ns, floor.tcp_loopback_ns
    )?;
    out.flush()
}
