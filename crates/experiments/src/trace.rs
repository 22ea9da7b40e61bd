//! `repro trace` — one telemetry-instrumented ADM-G run emitted as JSON
//! lines: one `"type":"iteration"` object per iteration (residuals,
//! objective, stop decision, per-phase wall-clock) followed by one
//! `"type":"summary"` object (the full `RunTelemetry` snapshot: phase
//! histograms plus solver/traffic/fault counters).
//!
//! The run itself is a plain solve with `AdmgSettings::telemetry` enabled —
//! telemetry is strictly observational, so the iterates are bit-identical
//! to an untraced run (see DESIGN.md §11). The module also carries a
//! dependency-free JSON well-formedness checker used by `--check` and CI.

use std::time::Duration;

use ufc_core::telemetry::{RunTelemetry, TrafficCounters};
use ufc_core::{AdmgSettings, AdmgSolver, BlockSchedule, JsonlSink, Strategy};
use ufc_distsim::{
    CorruptionConfig, DistributedAdmg, Engine, FaultPlan, NodeId, RunSpec, SocketOptions,
};
use ufc_model::scenario::ScenarioBuilder;

/// Which execution engine the trace drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEngine {
    /// The in-memory `AdmgSolver` (solver counters, no traffic).
    InProcess,
    /// The distributed lockstep engine (solver + traffic counters).
    Lockstep,
    /// The lockstep engine under a scripted [`FaultPlan`] (solver +
    /// traffic + fault counters).
    Faulty,
    /// The lockstep engine under seeded payload corruption with CRC32
    /// verification on (solver + traffic + integrity counters).
    Corrupt,
    /// The multi-process socket engine under the
    /// [`crate::sockets::recovery_fault_plan`] script: real `SIGKILL`s and
    /// torn connections (traffic + fault + integrity counters; the
    /// kernels live in worker processes, so solver counters read 0).
    Sockets,
}

impl TraceEngine {
    /// Parses the `--engine` flag value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "inprocess" => Some(TraceEngine::InProcess),
            "lockstep" => Some(TraceEngine::Lockstep),
            "faulty" => Some(TraceEngine::Faulty),
            "corrupt" => Some(TraceEngine::Corrupt),
            "sockets" => Some(TraceEngine::Sockets),
            _ => None,
        }
    }

    /// The flag spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEngine::InProcess => "inprocess",
            TraceEngine::Lockstep => "lockstep",
            TraceEngine::Faulty => "faulty",
            TraceEngine::Corrupt => "corrupt",
            TraceEngine::Sockets => "sockets",
        }
    }
}

/// A finished trace: the JSON lines (iterations, then the summary) plus the
/// structured snapshot they were rendered from.
#[derive(Debug)]
pub struct TraceOutput {
    /// The engine that ran.
    pub engine: TraceEngine,
    /// One JSON object per line: `iterations` iteration lines followed by
    /// one summary line.
    pub lines: Vec<String>,
    /// The structured telemetry snapshot behind the summary line.
    pub telemetry: RunTelemetry,
    /// Iterations the run performed.
    pub iterations: usize,
    /// Whether the run converged before the iteration cap.
    pub converged: bool,
    /// Prediction blocks per iteration, one per front-end and one per
    /// datacenter (`m + n`): the worker-pool tasks an in-process iteration
    /// dispatches.
    pub blocks: usize,
}

/// The deterministic fault script the `faulty` trace engine runs under:
/// two recoverable crashes, one straggler, periodic checkpoints — enough
/// to make every fault counter move without slowing the trace down.
#[must_use]
pub fn trace_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(10))
        .crash_and_recover(NodeId::Datacenter(0), 6, 1)
        .crash_and_recover(NodeId::Frontend(1), 10, 1)
        .straggle(NodeId::Datacenter(1), 8, Duration::from_millis(2))
}

/// Runs one Hybrid-strategy hour on the chosen engine with telemetry on,
/// streaming a [`JsonlSink`] and returning the collected lines.
///
/// # Errors
///
/// Scenario construction or solver failures.
pub fn run(
    seed: u64,
    threads: usize,
    engine: TraceEngine,
) -> Result<TraceOutput, Box<dyn std::error::Error>> {
    let settings = AdmgSettings::default()
        .with_threads(threads)
        .with_telemetry(true);
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(1)
        .build()?;
    let instance = &scenario.instances[0];
    let mut sink = JsonlSink::new(Vec::new());
    let distributed = match engine {
        TraceEngine::InProcess => None,
        TraceEngine::Lockstep => Some((settings, RunSpec::new(Engine::Lockstep))),
        TraceEngine::Faulty => Some((
            settings,
            RunSpec::new(Engine::Lockstep).with_plan(trace_fault_plan()),
        )),
        // Rate 0.02 over tens of thousands of payloads: every seed sees
        // strikes, and every strike is caught by the checksum.
        TraceEngine::Corrupt => Some((
            settings,
            RunSpec::new(Engine::Lockstep)
                .with_corruption(CorruptionConfig::new(0.02, seed).with_checksums(true)),
        )),
        TraceEngine::Sockets => Some((
            settings,
            RunSpec::new(Engine::Sockets(SocketOptions::new(
                crate::sockets::locate_worker()?,
            )))
            .with_plan(crate::sockets::recovery_fault_plan()),
        )),
    };
    let (iterations, converged, telemetry) = match distributed {
        None => {
            let sol =
                AdmgSolver::new(settings).solve_observed(instance, Strategy::Hybrid, &mut sink)?;
            (sol.iterations, sol.converged, sol.telemetry)
        }
        Some((settings, spec)) => {
            let report = DistributedAdmg::new(settings).execute(
                instance,
                Strategy::Hybrid,
                &spec,
                &mut sink,
            )?;
            (report.iterations, report.converged, report.telemetry)
        }
    };
    let telemetry = telemetry.ok_or("telemetry was enabled but not returned")?;
    let bytes = sink.finish()?;
    let mut lines: Vec<String> = String::from_utf8(bytes)?
        .lines()
        .map(str::to_owned)
        .collect();
    lines.push(telemetry.to_json());
    Ok(TraceOutput {
        engine,
        lines,
        telemetry,
        iterations,
        converged,
        blocks: instance.m_frontends() + instance.n_datacenters(),
    })
}

/// Validates a finished trace: every line is well-formed JSON, the line
/// count matches the iteration count, every phase histogram saw every
/// iteration with non-zero total time, the counter groups the engine can
/// observe all moved, and in process the pool ran exactly one task per
/// prediction block per iteration.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check(out: &TraceOutput) -> Result<(), String> {
    for (idx, line) in out.lines.iter().enumerate() {
        validate_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    if out.lines.len() != out.iterations + 1 {
        return Err(format!(
            "expected {} iteration lines + 1 summary, got {} lines",
            out.iterations,
            out.lines.len()
        ));
    }
    let t = &out.telemetry;
    if t.iterations as usize != out.iterations {
        return Err(format!(
            "telemetry saw {} iterations, run reported {}",
            t.iterations, out.iterations
        ));
    }
    // The trace scenario carries no storage, so the driver runs the classic
    // schedule; its derived phase list is the source of truth for which
    // histograms must have seen every iteration.
    for phase in BlockSchedule::classic().phases() {
        if t.phase(phase).count() != t.iterations {
            return Err(format!(
                "phase {} recorded {} samples over {} iterations",
                phase.name(),
                t.phase(phase).count(),
                t.iterations
            ));
        }
    }
    if t.total_ns() == 0 {
        return Err("all phase timings are zero".to_owned());
    }
    // The socket engine hosts the kernels in worker processes, so the
    // coordinator-side solver counters read 0.
    if out.engine != TraceEngine::Sockets && t.solver.pool_maps == 0 {
        return Err("worker-pool counters never moved".to_owned());
    }
    if out.engine == TraceEngine::InProcess {
        let expected = (out.blocks as u64) * t.iterations;
        if t.solver.pool_tasks != expected {
            return Err(format!(
                "pool ran {} tasks, expected {} blocks x {} iterations = {expected}",
                t.solver.pool_tasks, out.blocks, t.iterations
            ));
        }
        if t.traffic.is_some() {
            return Err("in-process run reported traffic counters".to_owned());
        }
    } else {
        let traffic = t.traffic.ok_or("distributed run lost traffic counters")?;
        if traffic.data_messages == 0 || traffic.control_messages == 0 {
            return Err("traffic counters never moved".to_owned());
        }
        check_egress(out.engine, &traffic)?;
    }
    match out.engine {
        TraceEngine::Faulty => {
            let fault = t.fault.ok_or("faulty run lost fault counters")?;
            if fault.crashes_resolved == 0 {
                return Err("no crash was resolved".to_owned());
            }
            if fault.stragglers_observed == 0 {
                return Err("no straggler was charged".to_owned());
            }
            if fault.checkpoints_taken == 0 {
                return Err("no checkpoint was taken".to_owned());
            }
        }
        TraceEngine::Sockets => {
            let fault = t.fault.ok_or("socket run lost fault counters")?;
            if fault.crashes_resolved == 0 {
                return Err("no SIGKILL'd process was recovered".to_owned());
            }
            if fault.checkpoints_taken == 0 {
                return Err("no checkpoint was taken".to_owned());
            }
        }
        _ => {
            if t.fault.is_some() {
                return Err("clean run reported fault counters".to_owned());
            }
        }
    }
    match out.engine {
        TraceEngine::Corrupt => {
            let integrity = t.integrity.ok_or("corrupt run lost integrity counters")?;
            if integrity.corruptions_injected == 0 {
                return Err("no corruption was injected".to_owned());
            }
            if integrity.corruptions_delivered != 0 {
                return Err("a verified link delivered corrupt bytes".to_owned());
            }
            if integrity.checksum_retransmissions != integrity.corruptions_detected {
                return Err("every detection must trigger exactly one retransmit".to_owned());
            }
        }
        TraceEngine::Sockets => {
            let integrity = t.integrity.ok_or("socket run lost integrity counters")?;
            if integrity.dead_node_declarations == 0 {
                return Err("the deadline ladder never declared a dead node".to_owned());
            }
            if integrity.reconnects == 0 {
                return Err("no torn connection was re-established".to_owned());
            }
        }
        _ => {
            if t.integrity.is_some() {
                return Err("uncorrupted run reported integrity counters".to_owned());
            }
        }
    }
    Ok(())
}

/// The socket coordinator's egress counters: a socket run wrote at least
/// once and never more often than it sent frames (a write carries one or
/// more); every in-memory engine sends no frames at all.
fn check_egress(engine: TraceEngine, traffic: &TrafficCounters) -> Result<(), String> {
    let (frames, writes) = (traffic.frames_sent, traffic.socket_writes);
    if engine == TraceEngine::Sockets {
        if writes == 0 || writes > frames {
            return Err(format!(
                "socket egress counters are inconsistent: {writes} writes for {frames} frames"
            ));
        }
    } else if frames != 0 || writes != 0 {
        return Err(format!(
            "{} run reported socket egress: {frames} frames, {writes} writes",
            engine.name()
        ));
    }
    Ok(())
}

/// Checks that `input` is exactly one well-formed JSON value (RFC 8259
/// grammar; no trailing garbage). Dependency-free: a ~hundred-line
/// recursive-descent walk, used by `repro trace --check` and the tests.
///
/// # Errors
///
/// A message naming the byte offset of the first syntax error.
pub fn validate_json(input: &str) -> Result<(), String> {
    let mut p = JsonCursor {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(())
}

struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl JsonCursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        if self.depth > 128 {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(format!("bad \\u escape at byte {}", self.pos));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0, or a nonzero digit run (no leading zeros).
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-0.5e+3",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\\u00e9\"}",
            "  {\"nested\":{\"deep\":[true,false]}}  ",
        ] {
            assert!(validate_json(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "{} trailing",
            "{\"a\" 1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [
            TraceEngine::InProcess,
            TraceEngine::Lockstep,
            TraceEngine::Faulty,
            TraceEngine::Corrupt,
            TraceEngine::Sockets,
        ] {
            assert_eq!(TraceEngine::parse(engine.name()), Some(engine));
        }
        assert_eq!(TraceEngine::parse("warp"), None);
    }

    #[test]
    fn egress_check_needs_writes_on_sockets_and_none_elsewhere() {
        let traffic = |frames_sent, socket_writes| TrafficCounters {
            frames_sent,
            socket_writes,
            ..TrafficCounters::default()
        };
        assert!(check_egress(TraceEngine::Sockets, &traffic(24, 12)).is_ok());
        assert!(check_egress(TraceEngine::Sockets, &traffic(24, 24)).is_ok());
        assert!(check_egress(TraceEngine::Sockets, &traffic(24, 0)).is_err());
        assert!(check_egress(TraceEngine::Sockets, &traffic(24, 25)).is_err());
        for engine in [
            TraceEngine::Lockstep,
            TraceEngine::Faulty,
            TraceEngine::Corrupt,
        ] {
            assert!(check_egress(engine, &traffic(0, 0)).is_ok());
            assert!(check_egress(engine, &traffic(1, 0)).is_err());
            assert!(check_egress(engine, &traffic(0, 1)).is_err());
        }
    }

    #[test]
    fn inprocess_trace_passes_check() {
        let out = run(7, 1, TraceEngine::InProcess).expect("trace runs");
        assert!(out.converged);
        check(&out).expect("trace invariants hold");
        assert!(out
            .lines
            .last()
            .expect("summary")
            .contains("\"type\":\"summary\""));
        assert!(out.lines[0].contains("\"type\":\"iteration\""));
        // One pool task per front-end and per datacenter each iteration
        // (14 at 10×4); one task more or fewer fails the check.
        assert_eq!(out.blocks, 14);
        let mut out = out;
        out.telemetry.solver.pool_tasks += 1;
        assert!(check(&out).unwrap_err().starts_with("pool ran"));
    }

    #[test]
    fn corrupt_trace_moves_the_integrity_group() {
        let out = run(7, 1, TraceEngine::Corrupt).expect("trace runs");
        assert!(out.converged);
        check(&out).expect("trace invariants hold");
        let integrity = out.telemetry.integrity.expect("integrity counters");
        assert!(integrity.corruptions_injected > 0);
        assert!(out
            .lines
            .last()
            .expect("summary")
            .contains("\"integrity\":{"));
    }

    #[test]
    fn faulty_trace_moves_every_counter_group() {
        let out = run(7, 1, TraceEngine::Faulty).expect("trace runs");
        check(&out).expect("trace invariants hold");
        let t = &out.telemetry;
        assert!(t.traffic.expect("traffic").total_bytes > 0);
        let fault = t.fault.expect("fault counters");
        assert!(fault.crashes_resolved >= 2);
        assert_eq!(fault.stragglers_observed, 1);
    }
}
