//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <command> [--hours N] [--seed N] [--csv DIR]
//!
//! commands:
//!   table1   Table I  — weekly energy costs at Dallas / San Jose
//!   fig3     Fig. 3   — input traces (workload, prices, carbon rates)
//!   fig4     Fig. 4   — hourly UFC improvements
//!   fig5     Fig. 5   — hourly average propagation latency
//!   fig6     Fig. 6   — hourly energy cost
//!   fig7     Fig. 7   — hourly carbon cost
//!   fig8     Fig. 8   — hourly fuel-cell utilization
//!   fig9     Fig. 9   — fuel-cell price sweep
//!   fig10    Fig. 10  — carbon-tax sweep
//!   fig11    Fig. 11  — CDF of ADM-G iterations
//!   rightsize  extension: server right-sizing (the paper's §II-C Remark)
//!   baseline   extension: ADM-G vs dual-subgradient iteration counts
//!   forecast   extension: UFC regret when acting on forecasted arrivals
//!   faults     extension: crash/straggler injection and degraded-mode cost
//!   chaos      extension: corruption-rate sweep of the checksummed wire
//!              codec and divergence safeguards on the lockstep engine;
//!              `--engine sockets` runs the sweep over the multi-process
//!              socket engine's real socket frames instead, including the
//!              wire-level kinds (frame truncate/duplicate/reorder);
//!              `--quick` shrinks the sweep for CI smoke runs
//!   sockets    extension: multi-process socket engine (one OS process per
//!              node over the own-host Unix socket) vs lockstep, clean and
//!              under real SIGKILL + partition recovery; `--quick` shrinks
//!              the sweep for CI smoke runs
//!   storage    extension: receding-horizon battery + fuel-cell ramp study
//!              (the 5th ADM-G block) over the 24-hour trace, lockstep vs
//!              the in-process solver bit-compared each hour; `--quick`
//!              shrinks the horizon for CI smoke runs
//!   wsweep     extension: latency-weight (w) Pareto sweep
//!   bench      solver hot-path wall-clock (writes BENCH_solver.json);
//!              fails when the largest size's cost per routing variable
//!              per iteration exceeds 3x the 1-thread 32x4 leg's;
//!              `--quick` shrinks the workload for CI smoke runs
//!   trace      run-telemetry JSONL trace of one instrumented solve;
//!              `--engine inprocess|lockstep|faulty|corrupt|sockets`
//!              picks the execution engine, `--check` validates the emitted
//!              JSON and counter invariants
//!   verify     self-test: centralized / in-memory / distributed agreement
//!   fuzz       differential fuzzing of the whole solver stack: replays the
//!              corpus under `--corpus DIR` (default `tests/corpus`), then
//!              generates `--cases N` (default 500; `--quick` → 60) random
//!              instances and cross-checks every engine plus the generic
//!              matrix-form reference; failing cases are shrunk and written
//!              to the corpus as permanent reproducers; `--faults` forces
//!              the crash/recovery and corruption legs onto every generated
//!              case, `--mutate-corpus` biases generation toward mutants of
//!              the committed reproducers
//!   all      everything above (except extensions)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ufc_core::AdmgSettings;
use ufc_experiments::report::{fmt, pct, text_table, write_csv};
use ufc_experiments::{convergence, fig3, sweep, table1, weekly, DEFAULT_SEED};

struct Options {
    command: String,
    hours: usize,
    seed: u64,
    csv_dir: Option<PathBuf>,
    quick: bool,
    threads: usize,
    engine: String,
    check: bool,
    cases: Option<usize>,
    corpus: PathBuf,
    faults: bool,
    mutate_corpus: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command (try `repro all`)")?;
    let mut opts = Options {
        command,
        hours: 168,
        seed: DEFAULT_SEED,
        csv_dir: None,
        quick: false,
        threads: 4,
        engine: "inprocess".to_owned(),
        check: false,
        cases: None,
        corpus: PathBuf::from("tests/corpus"),
        faults: false,
        mutate_corpus: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--hours" => {
                let v = args.next().ok_or("--hours needs a value")?;
                opts.hours = v.parse().map_err(|_| format!("bad --hours value {v:?}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(v));
            }
            "--quick" => opts.quick = true,
            "--check" => opts.check = true,
            "--faults" => opts.faults = true,
            "--mutate-corpus" => opts.mutate_corpus = true,
            "--engine" => {
                let v = args.next().ok_or("--engine needs a value")?;
                opts.engine = v;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value {v:?}"))?;
            }
            "--cases" => {
                let v = args.next().ok_or("--cases needs a value")?;
                opts.cases = Some(v.parse().map_err(|_| format!("bad --cases value {v:?}"))?);
            }
            "--corpus" => {
                let v = args.next().ok_or("--corpus needs a directory")?;
                opts.corpus = PathBuf::from(v);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let settings = AdmgSettings::default();
    let all = opts.command == "all";
    let mut matched = all;

    if all || opts.command == "table1" {
        matched = true;
        run_table1(opts)?;
    }
    if all || opts.command == "fig3" {
        matched = true;
        run_fig3(opts)?;
    }
    let weekly_needed = all
        || matches!(
            opts.command.as_str(),
            "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig11"
        );
    if weekly_needed {
        matched = true;
        run_weekly(opts, settings, all)?;
    }
    if all || opts.command == "fig9" {
        matched = true;
        run_fig9(opts, settings)?;
    }
    if all || opts.command == "fig10" {
        matched = true;
        run_fig10(opts, settings)?;
    }
    if opts.command == "rightsize" {
        matched = true;
        run_rightsize(opts, settings)?;
    }
    if opts.command == "baseline" {
        matched = true;
        run_baseline(opts, settings)?;
    }
    if opts.command == "forecast" {
        matched = true;
        run_forecast(opts, settings)?;
    }
    if opts.command == "faults" {
        matched = true;
        run_faults(opts, settings)?;
    }
    if opts.command == "chaos" {
        matched = true;
        run_chaos(opts, settings)?;
    }
    if opts.command == "sockets" {
        matched = true;
        run_sockets(opts, settings)?;
    }
    if opts.command == "storage" {
        matched = true;
        run_storage(opts, settings)?;
    }
    if opts.command == "wsweep" {
        matched = true;
        run_wsweep(opts, settings)?;
    }
    if opts.command == "bench" {
        matched = true;
        run_bench(opts)?;
    }
    if opts.command == "trace" {
        matched = true;
        run_trace(opts)?;
    }
    if opts.command == "verify" {
        matched = true;
        run_verify(opts, settings)?;
    }
    if opts.command == "fuzz" {
        matched = true;
        run_fuzz(opts)?;
    }
    if !matched {
        return Err(format!("unknown command {:?} (try `repro all`)", opts.command).into());
    }
    Ok(())
}

fn run_table1(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let t = table1::run(opts.seed);
    println!(
        "== Table I: one-week energy costs ($), p0 = {} $/MWh ==",
        t.fuel_cell_price
    );
    let rows: Vec<Vec<String>> = t
        .sites
        .iter()
        .map(|s| {
            vec![
                s.site.clone(),
                fmt(s.grid, 0),
                fmt(s.fuel_cell, 0),
                fmt(s.hybrid, 0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["Strategy", "Grid", "Fuel Cell", "Hybrid"], &rows)
    );
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "table1_costs", &t.costs_csv())?;
        write_csv(dir, "fig1_series", &t.series_csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_fig3(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let f = fig3::run(opts.seed, opts.hours)?;
    println!("== Fig. 3: input traces ({} hours) ==", f.scenario.hours());
    let p = f.mean_prices();
    let c = f.mean_carbon();
    let rows: Vec<Vec<String>> = f
        .scenario
        .dc_names
        .iter()
        .enumerate()
        .map(|(j, n)| vec![n.clone(), fmt(p[j], 1), fmt(c[j], 0)])
        .collect();
    println!(
        "{}",
        text_table(
            &["Datacenter", "mean price $/MWh", "mean carbon g/kWh"],
            &rows
        )
    );
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig3_traces", &f.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn run_weekly(
    opts: &Options,
    settings: AdmgSettings,
    all: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let results = weekly::run(opts.seed, opts.hours, settings)?;
    let which = |name: &str| all || opts.command == name;

    if which("fig4") {
        println!("== Fig. 4: UFC improvements (week averages) ==");
        let rows = vec![
            vec![
                "I_hg (Hybrid vs Grid)".to_owned(),
                pct(results.mean_of(|h| h.i_hg)),
            ],
            vec![
                "I_hf (Hybrid vs Fuel cell)".to_owned(),
                pct(results.mean_of(|h| h.i_hf)),
            ],
            vec![
                "I_fg (Fuel cell vs Grid)".to_owned(),
                pct(results.mean_of(|h| h.i_fg)),
            ],
            vec![
                "max I_hg".to_owned(),
                pct(results
                    .hours
                    .iter()
                    .map(|h| h.i_hg)
                    .fold(f64::MIN, f64::max)),
            ],
            vec![
                "min I_fg".to_owned(),
                pct(results
                    .hours
                    .iter()
                    .map(|h| h.i_fg)
                    .fold(f64::MAX, f64::min)),
            ],
        ];
        println!("{}", text_table(&["metric", "value"], &rows));
    }
    if which("fig5") {
        println!("== Fig. 5: average propagation latency (ms) ==");
        let rows = vec![
            vec![
                "Hybrid".to_owned(),
                fmt(1e3 * results.mean_of(|h| h.latency_s[0]), 2),
            ],
            vec![
                "Grid".to_owned(),
                fmt(1e3 * results.mean_of(|h| h.latency_s[1]), 2),
            ],
            vec![
                "Fuel cell".to_owned(),
                fmt(1e3 * results.mean_of(|h| h.latency_s[2]), 2),
            ],
        ];
        println!("{}", text_table(&["strategy", "mean latency"], &rows));
    }
    if which("fig6") {
        println!("== Fig. 6: energy cost ($, weekly totals) ==");
        let n = results.hours.len() as f64;
        let rows = vec![
            vec![
                "Hybrid".to_owned(),
                fmt(n * results.mean_of(|h| h.energy_cost[0]), 0),
            ],
            vec![
                "Grid".to_owned(),
                fmt(n * results.mean_of(|h| h.energy_cost[1]), 0),
            ],
            vec![
                "Fuel cell".to_owned(),
                fmt(n * results.mean_of(|h| h.energy_cost[2]), 0),
            ],
        ];
        println!("{}", text_table(&["strategy", "total energy cost"], &rows));
    }
    if which("fig7") {
        println!("== Fig. 7: carbon cost ($, weekly totals) ==");
        let n = results.hours.len() as f64;
        let rows = vec![
            vec![
                "Hybrid".to_owned(),
                fmt(n * results.mean_of(|h| h.carbon_cost[0]), 0),
            ],
            vec![
                "Grid".to_owned(),
                fmt(n * results.mean_of(|h| h.carbon_cost[1]), 0),
            ],
            vec![
                "Fuel cell".to_owned(),
                fmt(n * results.mean_of(|h| h.carbon_cost[2]), 0),
            ],
        ];
        println!("{}", text_table(&["strategy", "total carbon cost"], &rows));
    }
    if which("fig8") {
        println!("== Fig. 8: hybrid fuel-cell utilization ==");
        let avg = results.mean_of(|h| h.utilization);
        let max = results
            .hours
            .iter()
            .map(|h| h.utilization)
            .fold(f64::MIN, f64::max);
        let rows = vec![
            vec!["average".to_owned(), pct(avg)],
            vec!["maximum".to_owned(), pct(max)],
        ];
        println!("{}", text_table(&["metric", "value"], &rows));
    }
    if which("fig11") {
        let cdf = convergence::from_counts(results.iteration_counts());
        println!("== Fig. 11: ADM-G iterations to convergence ==");
        let rows = vec![
            vec!["min".to_owned(), cdf.min().to_string()],
            vec!["max".to_owned(), cdf.max().to_string()],
            vec![
                "within 100 iterations".to_owned(),
                pct(cdf.fraction_within(100)),
            ],
        ];
        println!("{}", text_table(&["metric", "value"], &rows));
        if let Some(dir) = &opts.csv_dir {
            write_csv(dir, "fig11_cdf", &cdf.csv())?;
        }
    }
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig4_improvements", &results.improvements_csv())?;
        write_csv(dir, "fig5_latency", &results.latency_csv())?;
        write_csv(dir, "fig6_energy", &results.energy_csv())?;
        write_csv(dir, "fig7_carbon", &results.carbon_csv())?;
        write_csv(dir, "fig8_utilization", &results.utilization_csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_fig9(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    let s = sweep::sweep_fuel_cell_price(opts.seed, opts.hours, settings, &sweep::fig9_prices())?;
    println!("== Fig. 9: fuel-cell price sweep ==");
    print_sweep(&s, "p0 $/MWh");
    if let Some(x) = s.crossover(0.99, false) {
        println!("utilization reaches ~100% at p0 ≈ {x} $/MWh (paper: 27)\n");
    }
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig9_p0_sweep", &s.csv())?;
    }
    Ok(())
}

fn run_fig10(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    let s = sweep::sweep_carbon_tax(opts.seed, opts.hours, settings, &sweep::fig10_taxes())?;
    println!("== Fig. 10: carbon-tax sweep ==");
    print_sweep(&s, "tax $/ton");
    if let Some(x) = s.crossover(0.99, true) {
        println!("utilization reaches ~100% at tax ≈ {x} $/ton (paper: 140)\n");
    }
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig10_tax_sweep", &s.csv())?;
    }
    Ok(())
}

fn run_rightsize(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_core::right_sizing::{solve_with_right_sizing, RightSizingOptions};
    use ufc_core::Strategy;
    use ufc_model::scenario::ScenarioBuilder;

    let hours = opts.hours.min(24);
    let scenario = ScenarioBuilder::paper_default()
        .seed(opts.seed)
        .hours(hours)
        .build()?;
    println!("== Extension: server right-sizing (paper §II-C Remark), {hours} hours ==");
    let mut rows = Vec::new();
    let mut total_gain = 0.0;
    for (t, inst) in scenario.instances.iter().enumerate() {
        let out = solve_with_right_sizing(
            inst,
            Strategy::Hybrid,
            settings,
            RightSizingOptions::default(),
        )?;
        total_gain += out.ufc_gain();
        if t % 6 == 0 {
            let active: f64 = out.active_servers_k.iter().sum();
            rows.push(vec![
                t.to_string(),
                fmt(active, 1),
                fmt(inst.total_capacity(), 1),
                fmt(out.ufc_gain(), 2),
            ]);
        }
    }
    println!(
        "{}",
        text_table(
            &["hour", "active kservers", "fleet kservers", "UFC gain $"],
            &rows
        )
    );
    println!("total UFC gain over {hours} hours: {total_gain:.2} $\n");
    Ok(())
}

fn run_baseline(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    let hours = opts.hours.min(24);
    let cmp = ufc_experiments::baseline::run(opts.seed, hours, settings)?;
    println!("== Extension: ADM-G vs dual-subgradient baseline ({hours} hours) ==");
    let (admg, sub) = cmp.mean_iterations();
    let rows = vec![
        vec!["mean ADM-G iterations".to_owned(), fmt(admg, 0)],
        vec!["mean subgradient iterations".to_owned(), fmt(sub, 0)],
        vec!["speedup".to_owned(), format!("{:.1}x", sub / admg)],
        vec![
            "mean UFC gap of baseline".to_owned(),
            pct(cmp.mean_ufc_gap()),
        ],
    ];
    println!("{}", text_table(&["metric", "value"], &rows));
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "baseline_comparison", &cmp.csv())?;
    }
    Ok(())
}

fn run_forecast(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::robustness;
    let hours = opts.hours.max(robustness::WARMUP_HOURS + 12);
    let study = robustness::run(opts.seed, hours, settings)?;
    println!(
        "== Extension: forecast robustness ({} evaluated hours after {}-hour warm-up) ==",
        study.hours.len(),
        robustness::WARMUP_HOURS
    );
    let rows = vec![
        vec!["mean arrival MAPE".to_owned(), pct(study.mean_mape())],
        vec!["mean UFC regret".to_owned(), pct(study.mean_regret())],
        vec!["max UFC regret".to_owned(), pct(study.max_regret())],
    ];
    println!("{}", text_table(&["metric", "value"], &rows));
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "forecast_robustness", &study.csv())?;
    }
    Ok(())
}

fn run_faults(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::faults;
    let hours = opts.hours.min(24);
    let study = faults::run(opts.seed, hours, settings)?;
    println!("== Extension: fault-tolerance sweep ({hours} hours per crash rate) ==");
    let rows: Vec<Vec<String>> = study
        .points
        .iter()
        .map(|p| {
            vec![
                fmt(p.crash_rate, 2),
                format!("{}/{}", p.hours_completed, p.hours_attempted),
                p.crashes_observed.to_string(),
                p.evictions.to_string(),
                p.readmissions.to_string(),
                p.recomputed_iterations.to_string(),
                fmt(p.downtime_s, 2),
                pct(p.mean_abs_ufc_delta),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "crash rate",
                "completed",
                "crashes",
                "evictions",
                "readmits",
                "recomputed",
                "downtime s",
                "mean |UFC delta|"
            ],
            &rows
        )
    );
    println!(
        "completion at the harshest rate: {}\n",
        pct(study.worst_completion_rate())
    );
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fault_sweep", &study.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_chaos(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::chaos;
    if opts.engine == "sockets" {
        return run_chaos_sockets(opts, settings);
    }
    if opts.engine != "inprocess" {
        return Err(format!(
            "unknown chaos --engine {:?} (expected inprocess|sockets)",
            opts.engine
        )
        .into());
    }
    let (hours, rates): (usize, &[f64]) = if opts.quick {
        (2, &[0.0, 1e-3])
    } else {
        (opts.hours.min(24), &chaos::CORRUPTION_RATES)
    };
    let study = chaos::run_rates(opts.seed, hours, settings, rates)?;
    println!("== Extension: corruption chaos sweep ({hours} hours per cell, lockstep) ==");
    let rows: Vec<Vec<String>> = study
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0e}", p.rate),
                if p.verified { "on" } else { "off" }.to_owned(),
                format!(
                    "{}/{}/{}",
                    p.hours_converged, p.hours_diverged, p.hours_exhausted
                ),
                p.corruptions_injected.to_string(),
                p.corruptions_detected.to_string(),
                p.corruptions_delivered.to_string(),
                p.retransmissions.to_string(),
                pct(p.mean_extra_bytes),
                pct(p.max_abs_ufc_delta),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "rate",
                "crc",
                "ok/div/exh",
                "injected",
                "detected",
                "delivered",
                "resends",
                "extra bytes",
                "max |UFC delta|"
            ],
            &rows
        )
    );
    if !study.verified_cells_clean() {
        return Err("checksummed runs failed to reproduce the clean operating point".into());
    }
    println!("checksummed runs reproduced the clean operating point in every cell\n");
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "chaos_sweep", &study.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_chaos_sockets(
    opts: &Options,
    settings: AdmgSettings,
) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::{chaos, sockets};
    let worker = sockets::locate_worker()?;
    let (hours, rates): (usize, &[f64]) = if opts.quick {
        (1, &[1e-2])
    } else {
        (opts.hours.min(4), &[1e-3, 1e-2])
    };
    let study = chaos::run_sockets_chaos(opts.seed, hours, settings, rates, &worker)?;
    println!(
        "== Extension: chaos over the real wire ({hours} hours per cell, one OS process per \
         node) =="
    );
    let rows: Vec<Vec<String>> = study
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0e}", p.rate),
                p.kind.map_or("value".to_owned(), |k| {
                    format!("{k:?}").to_lowercase().replace("frame", "")
                }),
                format!(
                    "{}/{}/{}",
                    p.hours_converged, p.hours_attempted, p.hours_exhausted
                ),
                p.hours_bitwise_clean.to_string(),
                p.corruptions_injected.to_string(),
                p.corruptions_detected.to_string(),
                p.corruptions_delivered.to_string(),
                p.retransmissions.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "rate",
                "kind",
                "ok/att/exh",
                "bitwise",
                "injected",
                "detected",
                "delivered",
                "resends"
            ],
            &rows
        )
    );
    if !study.all_hours_bitwise_clean() {
        return Err(
            "a verified socket run failed to reproduce the clean operating point bitwise".into(),
        );
    }
    if !study.wire_faults_all_caught() {
        return Err("a wire-level fault was injected but never detected".into());
    }
    println!(
        "every injected corruption was caught and every hour reproduced the clean UFC \
         bit-for-bit\n"
    );
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "chaos_sockets", &study.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_sockets(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::sockets;
    let hours = if opts.quick { 2 } else { opts.hours.min(24) };
    let worker = sockets::locate_worker()?;
    let study = sockets::run(opts.seed, hours, settings, &worker)?;
    println!(
        "== Extension: multi-process socket engine ({hours} clean hours, {} worker processes) ==",
        study.processes
    );
    let rows: Vec<Vec<String>> = study
        .hours
        .iter()
        .map(|h| {
            vec![
                h.hour.to_string(),
                h.iterations.to_string(),
                if h.converged { "yes" } else { "no" }.to_owned(),
                if h.bitwise_match { "yes" } else { "no" }.to_owned(),
                fmt(h.wan_seconds, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["hour", "iterations", "converged", "bitwise", "est WAN s"],
            &rows
        )
    );
    let r = &study.recovery;
    println!(
        "recovery scenario: {} SIGKILLs resolved, {} dead-node declarations, \
         {} reconnects, {} checkpoints, {} iterations recomputed, UFC delta {} $",
        r.crashes_resolved,
        r.dead_node_declarations,
        r.reconnects,
        r.checkpoints_taken,
        r.recomputed_iterations,
        fmt(r.ufc_delta_vs_clean, 6),
    );
    if !study.all_bitwise() {
        return Err("socket engine failed to reproduce the lockstep operating point".into());
    }
    println!("socket engine reproduced the lockstep operating point bit-for-bit in every run\n");
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "socket_sweep", &study.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_storage(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::storage;
    let hours = if opts.quick { 6 } else { opts.hours.min(24) };
    let study = storage::run(opts.seed, hours, settings, storage::default_fleet())?;
    println!("== Extension: battery storage + ramp limits (5-block schedule, {hours} hours) ==");
    let rows: Vec<Vec<String>> = study
        .hours
        .iter()
        .map(|h| {
            vec![
                h.hour.to_string(),
                fmt(h.baseline_ufc, 2),
                fmt(h.storage_ufc, 2),
                fmt(h.net_discharge_mwh, 3),
                fmt(h.mean_charge_mwh, 3),
                h.iterations.to_string(),
                if h.bitwise { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "hour",
                "spatial UFC $",
                "5-block UFC $",
                "net discharge MWh",
                "mean charge MWh",
                "iters",
                "bitwise"
            ],
            &rows
        )
    );
    let summary = vec![
        vec![
            "total spatial-only UFC $".to_owned(),
            fmt(study.total_baseline_ufc(), 2),
        ],
        vec![
            "total 5-block UFC $".to_owned(),
            fmt(study.total_storage_ufc(), 2),
        ],
        vec!["UFC improvement".to_owned(), pct(study.improvement())],
        vec![
            "charge-adjusted improvement".to_owned(),
            pct(study.adjusted_improvement()),
        ],
        vec![
            "net stored-energy value $".to_owned(),
            fmt(study.charge_delta_value(), 2),
        ],
    ];
    println!("{}", text_table(&["metric", "value"], &summary));
    if !study.all_converged() {
        return Err("a storage-study solve failed to converge".into());
    }
    if !study.all_bitwise() {
        return Err("lockstep and in-process storage runs diverged bitwise".into());
    }
    println!("lockstep and the in-process solver agreed bit-for-bit in every hour\n");
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "storage_horizon", &study.csv())?;
        println!("(csv written to {})", dir.display());
    }
    Ok(())
}

fn run_wsweep(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    let hours = opts.hours.min(48);
    let weights = [0.5, 2.0, 5.0, 10.0, 25.0, 60.0, 150.0];
    let pts = sweep::sweep_latency_weight(opts.seed, hours, settings, &weights)?;
    println!("== Extension: latency-weight sweep ({hours} hours, Hybrid) ==");
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                fmt(p.weight, 1),
                fmt(1e3 * p.avg_latency_s, 2),
                fmt(p.avg_cost, 0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["w $/s²", "mean latency ms", "mean hourly cost $"], &rows)
    );
    println!("(the paper fixes w = 10; the sweep shows the Pareto front that choice sits on)\n");
    Ok(())
}

fn run_bench(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::solver_bench;

    // `--quick` is the CI smoke configuration; the full run times a day's
    // worth of hourly instances and the full size trajectory.
    let hours = if opts.quick { 3 } else { opts.hours.min(24) };
    let sizes = if opts.quick {
        solver_bench::QUICK_TRAJECTORY
    } else {
        solver_bench::TRAJECTORY
    };
    let mut report = solver_bench::run(opts.seed, hours, opts.threads, sizes)?;
    report.socket = solver_bench::socket_latency(opts.seed)?;
    println!(
        "== Solver bench: admg_scaling, {} hours, {} threads ==",
        report.hours, report.parallel.threads
    );
    let rows = vec![
        vec![
            "1 thread".to_owned(),
            fmt(report.sequential.wall_ms, 1),
            report.sequential.iters.to_string(),
        ],
        vec![
            format!("{} threads", report.parallel.threads),
            fmt(report.parallel.wall_ms, 1),
            report.parallel.iters.to_string(),
        ],
    ];
    println!(
        "{}",
        text_table(&["configuration", "wall ms", "iterations"], &rows)
    );
    let congested = &report.congested;
    println!(
        "congested leg: {} paper hours with queueing (rho {}, cap {}, 1 thread): {} iterations, \
         {:.4} ms/iter, {:.3} ms/solve",
        report.hours,
        solver_bench::CONGESTED_RHO,
        solver_bench::CONGESTED_MAX_ITERATIONS,
        congested.iters,
        congested.wall_ms / congested.iters.max(1) as f64,
        congested.wall_ms / report.hours.max(1) as f64,
    );
    if !report.sizes.is_empty() {
        let rows: Vec<Vec<String>> = report
            .sizes
            .iter()
            .map(|leg| {
                vec![
                    format!("{}x{}", leg.frontends, leg.datacenters),
                    fmt(leg.wall_ms, 1),
                    leg.iters.to_string(),
                    fmt(leg.per_iter_ms(), 3),
                    fmt(leg.us_per_var_iter(), 4),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "size (FE x DC)",
                    "wall ms",
                    "iters",
                    "ms/iter",
                    "us/var/iter"
                ],
                &rows
            )
        );
    }
    if let Some(g) = &report.scaling {
        println!(
            "scaling guard: {}x{} costs {:.4} us per routing variable per iteration, \
             {:.2}x the 1-thread {}x{} leg's {:.4} us (at most {}x)",
            g.frontends,
            g.datacenters,
            g.large_us_per_var_iter,
            g.ratio(),
            solver_bench::SCALING_FRONTENDS,
            solver_bench::SCALING_DATACENTERS,
            g.seed_us_per_var_iter,
            solver_bench::ScalingGuard::MAX_RATIO
        );
    }
    match &report.socket {
        Some(s) => println!(
            "socket engine: on a parked fleet {:.4} ms/iter (q1 {:.4}, q3 {:.4}) vs {:.4} \
             ms/iter lockstep ({:.2}x overhead, {} iters), {:.4} ms/iter on {} co-hosting \
             processes (parked and lockstep: median of {} runs); cold, with launch and \
             teardown, {:.3} and {:.3} ms/iter",
            s.warm_socket_per_iter_ms(),
            s.warm_socket_quartiles_per_iter_ms().0,
            s.warm_socket_quartiles_per_iter_ms().1,
            s.lockstep_per_iter_ms(),
            s.overhead(),
            s.iterations,
            s.warm_cohosted_per_iter_ms(),
            solver_bench::COHOSTED_PROCESSES,
            solver_bench::LATENCY_RUNS,
            s.socket_per_iter_ms(),
            s.cohosted_per_iter_ms(),
        ),
        None => println!("socket engine: skipped (ufc-node worker binary not found)"),
    }
    let path = PathBuf::from("BENCH_solver.json");
    std::fs::write(&path, report.to_json())?;
    println!("(written to {})\n", path.display());
    if let Some(g) = report.scaling {
        g.check()?;
    }
    Ok(())
}

fn run_trace(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::trace;

    let engine = trace::TraceEngine::parse(&opts.engine).ok_or_else(|| {
        format!(
            "unknown --engine {:?} (expected inprocess|lockstep|faulty|corrupt|sockets)",
            opts.engine
        )
    })?;
    let out = trace::run(opts.seed, opts.threads, engine)?;
    // JSON lines go to stdout, everything human-facing to stderr, so the
    // trace pipes cleanly into `jq` and friends.
    for line in &out.lines {
        println!("{line}");
    }
    eprintln!(
        "trace: engine={} iterations={} converged={} lines={}",
        engine.name(),
        out.iterations,
        out.converged,
        out.lines.len()
    );
    if opts.check {
        trace::check(&out).map_err(|e| format!("trace check failed: {e}"))?;
        eprintln!("trace: check passed");
    }
    Ok(())
}

fn run_verify(opts: &Options, settings: AdmgSettings) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_core::{centralized, AdmgSolver, Strategy};
    use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
    use ufc_model::scenario::ScenarioBuilder;

    let hours = opts.hours.min(3);
    let scenario = ScenarioBuilder::paper_default()
        .seed(opts.seed)
        .hours(hours)
        .build()?;
    println!("== Self-test: three solution paths on {hours} hourly instances ==");
    let solver = AdmgSolver::new(settings);
    let dist = DistributedAdmg::new(settings);
    let mut rows = Vec::new();
    let mut ok = true;
    for (t, inst) in scenario.instances.iter().enumerate() {
        let mem = solver.solve(inst, Strategy::Hybrid)?;
        let net = dist.execute(
            inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )?;
        let cen = centralized::solve(inst, Strategy::Hybrid, centralized::Backend::Admm)?;
        let scale = cen.breakdown.ufc().abs().max(1.0);
        let gap_mc = (mem.breakdown.ufc() - cen.breakdown.ufc()).abs() / scale;
        let gap_md = (mem.breakdown.ufc() - net.breakdown.ufc()).abs() / scale;
        let pass =
            mem.converged && gap_mc < 5e-3 && gap_md < 1e-9 && mem.iterations == net.iterations;
        ok &= pass;
        rows.push(vec![
            t.to_string(),
            fmt(cen.breakdown.ufc(), 2),
            fmt(mem.breakdown.ufc(), 2),
            mem.iterations.to_string(),
            format!("{:.2e}", gap_mc),
            format!("{:.1e}", gap_md),
            if pass {
                "PASS".to_owned()
            } else {
                "FAIL".to_owned()
            },
        ]);
    }
    println!(
        "{}",
        text_table(
            &[
                "hour",
                "centralized UFC",
                "ADM-G UFC",
                "iters",
                "gap(central)",
                "gap(distributed)",
                "status"
            ],
            &rows
        )
    );
    if !ok {
        return Err("self-test failed".into());
    }
    println!("all paths agree.\n");
    Ok(())
}

fn run_fuzz(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use ufc_experiments::{fuzz, sockets};

    let cases = opts.cases.unwrap_or(if opts.quick { 60 } else { 500 });
    // Socket legs need the ufc-node worker binary; skip them (they are a
    // sampled subset anyway) when it is not built next to us.
    let worker = sockets::locate_worker().ok();
    println!(
        "== Differential fuzzing: corpus {} + {cases} generated cases, seed {} ==",
        opts.corpus.display(),
        opts.seed
    );
    if worker.is_none() {
        println!("(ufc-node worker not found; socket legs skipped)");
    }
    let report = fuzz::run_with(
        opts.seed,
        cases,
        &opts.corpus,
        worker.as_deref(),
        opts.mutate_corpus,
        opts.faults,
    )?;
    println!(
        "corpus replayed: {}  generated: {}  solved: {}  rejected: {}  socket runs: {}",
        report.corpus_replayed,
        report.generated,
        report.solved,
        report.rejected,
        report.socket_runs
    );
    println!(
        "faulty legs: {}  corrupt legs: {}  corpus mutants: {}",
        report.faulty_runs, report.corrupt_runs, report.mutated
    );
    if report.failures.is_empty() {
        println!("no divergences.\n");
        return Ok(());
    }
    for f in &report.failures {
        eprintln!("FAIL [{}] {}: {}", f.kind, f.label, f.message);
        if let Some(path) = &f.reproducer {
            eprintln!("  reproducer: {}", path.display());
        }
    }
    Err(format!("fuzzing found {} divergence(s)", report.failures.len()).into())
}

fn print_sweep(s: &sweep::Sweep, label: &str) {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                fmt(p.value, 0),
                pct(p.avg_improvement),
                pct(p.avg_utilization),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&[label, "avg UFC improvement", "avg utilization"], &rows)
    );
}
