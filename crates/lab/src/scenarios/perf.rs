//! Simulator-throughput baseline: committed instructions per host second
//! for the event-driven scheduler vs. the retained scan-based reference
//! scheduler, across the standard workload suite — plus sweep-throughput
//! rows comparing warm-snapshot forks against the classic
//! fresh-machine-per-point sweep, and `scenario-e2e` rows timing whole
//! experiments under the batched vs per-machine trial paths.
//!
//! The payload (`results`) is exactly the committed `BENCH_pipeline.json`
//! document, so the legacy `perf_baseline` binary can keep refreshing the
//! baseline and `racer-lab perf-check` can diff against it. Sweep rows
//! reuse the same column names (`event_driven_instrs_per_sec` holds the
//! forked sweep, `reference_instrs_per_sec` the per-machine sweep), so
//! the existing perf gate covers them with no schema change.

use super::header;
use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use hacky_racers::experiments::{spectre_eval, timer_mitigations, TrialPath};
use hacky_racers::gadget_search::{eval_cpu_config, FitnessConfig, GadgetTemplate, SplitMix64};
use racer_cpu::workloads::{
    alu_chain, measure_sweep_forked, measure_sweep_fresh, measure_workload, memory_stream,
    standard_suite,
};
use racer_cpu::{Backend, Cpu};
use racer_mem::HierarchyConfig;
use racer_results::Value;
use std::fmt::Write as _;
use std::time::Instant;

/// Untimed warmup executions each sweep point needs before its timed run.
/// Per-machine sweeps pay this per point; forked sweeps pay it once —
/// which is exactly the gap the sweep rows measure.
const SWEEP_WARMUP: usize = 24;

/// Loop iterations for the sweep-row programs. Fixed (not scaled by
/// `iters`) so the sweep rows measure identical work under both presets
/// and the perf gate's quick re-measurement is comparable to the
/// paper-scale baseline.
const SWEEP_ITERS: i64 = 2_000;

/// Timer models for the `e2e-timer-mitigations` row. The heavy magnifier
/// runs are timer-independent, so the batched trial path runs the
/// (rounds × trial × bit) grid once and scores it under every timer,
/// while the per-machine path re-runs the grid per timer — a structural
/// ~`E2E_TIMERS.len()`× collapse on top of forking prepared machines.
const E2E_TIMERS: [&str; 5] = ["5us", "100us", "5us+jitter", "fuzzy-5us", "1ms"];

/// Magnifier round counts for the `e2e-timer-mitigations` row. Fixed
/// across presets (like [`SWEEP_ITERS`]) so the perf gate's quick
/// re-measurement runs the same work as the paper-scale baseline.
const E2E_ROUNDS: [usize; 2] = [192, 768];

/// Transmissions per (timer, rounds) cell for `e2e-timer-mitigations`.
const E2E_TRIALS: usize = 6;

/// Browser-timer resolutions for the `e2e-spectre-resolutions` row. The
/// SpectreBack machine run is timer-independent, so the batched path runs
/// the attack once and replays its recorded measurement windows through
/// each resolution — a structural `len()`× collapse.
const E2E_SPECTRE_RESOLUTIONS: [f64; 4] = [1_000.0, 5_000.0, 25_000.0, 100_000.0];

/// Secret each `e2e-spectre-resolutions` arm leaks.
const E2E_SPECTRE_SECRET: &[u8] = b"ASPLOS";

/// Sampled templates for the `search-throughput` row (each lowered at
/// every [`SEARCH_TARGETS`] entry — one generation's worth of fitness
/// batch, at the search's own traced evaluation config).
const SEARCH_CANDIDATES: usize = 24;

/// Target ladder the `search-throughput` candidates are lowered at.
const SEARCH_TARGETS: [usize; 3] = [0, 2, 4];

/// Warmup executions before candidate evaluation: the batched column
/// pays these once per row, the per-machine column once per program.
const SEARCH_WARMUP: usize = 16;

/// DRAM-jitter seed for the `e2e-spectre-resolutions` machines.
const E2E_SPECTRE_SEED: u64 = 42;

fn run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let iters = ctx.params.i64("iters");
    let reps = ctx.params.usize("reps");
    let sweep_points = ctx.params.usize("sweep_points");
    let mut text = header("perf baseline", "pipeline scheduler throughput");
    let _ = writeln!(
        text,
        "# pipeline scheduler throughput (committed Minstr/s, higher is better)"
    );
    let _ = writeln!(
        text,
        "# workload            event-driven   reference   speedup   ipc   mispredicts"
    );
    let mut rows = Vec::new();
    for w in &standard_suite(iters, reps) {
        let fast = measure_workload(w, Backend::EventDriven);
        let reference = measure_workload(w, Backend::Reference);
        assert_eq!(
            (fast.result.cycles, fast.result.committed, &fast.result.regs),
            (
                reference.result.cycles,
                reference.result.committed,
                &reference.result.regs
            ),
            "schedulers diverged on {}",
            w.name
        );
        let speedup = fast.instrs_per_sec / reference.instrs_per_sec;
        let _ = writeln!(
            text,
            "{:<21} {:>10.2}M {:>10.2}M {:>8.1}x {:>6.2} {:>10}",
            w.name,
            fast.instrs_per_sec / 1e6,
            reference.instrs_per_sec / 1e6,
            speedup,
            fast.result.ipc(),
            fast.result.mispredicts,
        );
        rows.push(
            Value::object()
                .with("workload", w.name)
                .with("description", w.description)
                .with("dyn_instrs_per_run", fast.result.committed)
                .with("cycles_per_run", fast.result.cycles)
                .with("mispredicts_per_run", fast.result.mispredicts)
                .with("squashed_per_run", fast.result.squashed_instrs)
                .with("ipc", round3(fast.result.ipc()))
                .with("event_driven_instrs_per_sec", fast.instrs_per_sec.round())
                .with("reference_instrs_per_sec", reference.instrs_per_sec.round())
                .with("speedup", round2(speedup)),
        );
    }
    let _ = writeln!(
        text,
        "# sweep throughput ({sweep_points} warmed points, {SWEEP_WARMUP} warmup runs each):"
    );
    let _ = writeln!(
        text,
        "# workload                  forked   per-machine  speedup"
    );
    let sweeps = [
        (
            "sweep-alu-chain",
            "warmed sweep: snapshot forks (event-driven col) vs fresh machine per point",
            alu_chain(SWEEP_ITERS),
        ),
        (
            "sweep-memory-stream",
            "warmed cache-heavy sweep: snapshot forks vs fresh machine per point",
            memory_stream(SWEEP_ITERS),
        ),
    ];
    for (name, description, prog) in &sweeps {
        let forked = measure_sweep_forked(prog, SWEEP_WARMUP, sweep_points);
        let per_machine = measure_sweep_fresh(prog, SWEEP_WARMUP, sweep_points);
        assert_eq!(
            (
                forked.result.cycles,
                forked.result.committed,
                &forked.result.regs
            ),
            (
                per_machine.result.cycles,
                per_machine.result.committed,
                &per_machine.result.regs
            ),
            "sweep strategies diverged on {name}"
        );
        let speedup = forked.instrs_per_sec / per_machine.instrs_per_sec;
        let _ = writeln!(
            text,
            "{:<21} {:>10.2}M {:>10.2}M {:>8.1}x",
            name,
            forked.instrs_per_sec / 1e6,
            per_machine.instrs_per_sec / 1e6,
            speedup,
        );
        rows.push(
            Value::object()
                .with("workload", *name)
                .with("description", *description)
                .with("dyn_instrs_per_run", forked.result.committed)
                .with("cycles_per_run", forked.result.cycles)
                .with("mispredicts_per_run", forked.result.mispredicts)
                .with("squashed_per_run", forked.result.squashed_instrs)
                .with("ipc", round3(forked.result.ipc()))
                .with("event_driven_instrs_per_sec", forked.instrs_per_sec.round())
                .with(
                    "reference_instrs_per_sec",
                    per_machine.instrs_per_sec.round(),
                )
                .with("speedup", round2(speedup)),
        );
    }
    // Search-throughput row: gadget-search candidate evaluation, the
    // batched path (warm one machine, fan every lowered program through
    // `Snapshot::run_many`) vs the pre-batching shape (fresh machine +
    // full warmup per program). The snapshot is built inline — not via
    // `SnapshotCache` — so the batched column pays its warmup inside the
    // timed region too; the gap is warmup amortisation, exactly what the
    // search loop banks per generation.
    {
        let fit = FitnessConfig::default();
        let cfg = eval_cpu_config(fit.cycle_budget);
        let hier = HierarchyConfig::small_plru;
        let warm = alu_chain(32);
        let mut rng = SplitMix64::new(7);
        let progs: Vec<_> = (0..SEARCH_CANDIDATES)
            .map(|_| GadgetTemplate::sample(&mut rng))
            .flat_map(|tpl| SEARCH_TARGETS.map(|target| tpl.lower(target, fit.clock_len).prog))
            .collect();
        let start = Instant::now();
        let mut cpu = Cpu::new(cfg, hier());
        for _ in 0..SEARCH_WARMUP {
            cpu.run_one(&warm, Backend::EventDriven);
        }
        let batched_results = cpu.snapshot().run_many(&progs);
        let batched_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut per_machine_results = Vec::with_capacity(progs.len());
        for prog in &progs {
            let mut cpu = Cpu::new(cfg, hier());
            for _ in 0..SEARCH_WARMUP {
                cpu.run_one(&warm, Backend::EventDriven);
            }
            per_machine_results.push(cpu.run_one(prog, Backend::EventDriven));
        }
        let per_machine_secs = start.elapsed().as_secs_f64();
        let mut committed = 0u64;
        for (b, p) in batched_results.iter().zip(&per_machine_results) {
            assert!(b.halted && !b.limit_hit, "candidate must run to completion");
            assert_eq!(
                (b.cycles, b.committed, &b.regs),
                (p.cycles, p.committed, &p.regs),
                "search evaluation paths diverged"
            );
            committed += b.committed;
        }
        let batched_ips = committed as f64 / batched_secs;
        let per_machine_ips = committed as f64 / per_machine_secs;
        let speedup = per_machine_secs / batched_secs;
        let _ = writeln!(
            text,
            "# search throughput ({} candidates x {} targets, {SEARCH_WARMUP} warmup runs):",
            SEARCH_CANDIDATES,
            SEARCH_TARGETS.len(),
        );
        let _ = writeln!(
            text,
            "search-throughput     {:>10.2}M {:>10.2}M {:>8.1}x",
            batched_ips / 1e6,
            per_machine_ips / 1e6,
            speedup,
        );
        let sample = &batched_results[batched_results.len() - 1];
        rows.push(
            Value::object()
                .with("workload", "search-throughput")
                .with(
                    "description",
                    "gadget-search candidate evaluation: one warmed snapshot fanned via run_many (event-driven col) vs fresh machine + full warmup per program",
                )
                .with("dyn_instrs_per_run", committed)
                .with("cycles_per_run", sample.cycles)
                .with("mispredicts_per_run", sample.mispredicts)
                .with("squashed_per_run", sample.squashed_instrs)
                .with("ipc", round3(sample.ipc()))
                .with("event_driven_instrs_per_sec", batched_ips.round())
                .with("reference_instrs_per_sec", per_machine_ips.round())
                .with("speedup", round2(speedup)),
        );
    }
    // Scenario-e2e rows: whole-experiment wall clock, batched trial path
    // (TrialPath::Batched, the default) vs the pre-port per-machine shape.
    // Both columns divide the *per-machine* arm's committed instructions
    // by each arm's wall time — the batched path may structurally skip
    // redundant heavy runs (the timer-axis collapse), so its own commit
    // count would understate the win; with a shared work numerator,
    // `speedup` is the pure wall-clock ratio.
    let _ = writeln!(
        text,
        "# scenario e2e (whole experiment, batched vs per-machine trial path):"
    );
    let _ = writeln!(
        text,
        "# scenario              batched   per-machine  speedup"
    );
    let e2e_row = |text: &mut String,
                   rows: &mut Vec<Value>,
                   name: &str,
                   description: &str,
                   work: u64,
                   batched_secs: f64,
                   per_machine_secs: f64| {
        let batched_ips = work as f64 / batched_secs;
        let per_machine_ips = work as f64 / per_machine_secs;
        let speedup = per_machine_secs / batched_secs;
        let _ = writeln!(
            text,
            "{:<21} {:>10.2}M {:>10.2}M {:>8.2}x",
            name,
            batched_ips / 1e6,
            per_machine_ips / 1e6,
            speedup,
        );
        rows.push(
            Value::object()
                .with("workload", name)
                .with("description", description)
                .with("dyn_instrs_per_run", work)
                .with("event_driven_instrs_per_sec", batched_ips.round())
                .with("reference_instrs_per_sec", per_machine_ips.round())
                .with("speedup", round2(speedup)),
        );
    };
    {
        let start = Instant::now();
        let (bp, _) = timer_mitigations::sweep_sharded_on(
            &E2E_TIMERS,
            &E2E_ROUNDS,
            E2E_TRIALS,
            1,
            1,
            TrialPath::Batched,
        );
        let batched_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (pp, pc) = timer_mitigations::sweep_sharded_on(
            &E2E_TIMERS,
            &E2E_ROUNDS,
            E2E_TRIALS,
            1,
            1,
            TrialPath::PerMachine,
        );
        let per_machine_secs = start.elapsed().as_secs_f64();
        assert_eq!(bp.len(), pp.len(), "e2e trial paths diverged");
        for (b, p) in bp.iter().zip(&pp) {
            assert!(
                b.timer == p.timer
                    && b.rounds == p.rounds
                    && b.accuracy.to_bits() == p.accuracy.to_bits()
                    && b.trials == p.trials,
                "e2e trial paths diverged on timer_mitigations ({}, {})",
                b.timer,
                b.rounds
            );
        }
        e2e_row(
            &mut text,
            &mut rows,
            "e2e-timer-mitigations",
            "timer_mitigations sweep, batched trial path (shared heavy runs scored under every timer) vs per-machine",
            pc,
            batched_secs,
            per_machine_secs,
        );
    }
    {
        let start = Instant::now();
        let (bp, _) = spectre_eval::resolution_sweep_on(
            E2E_SPECTRE_SECRET,
            &E2E_SPECTRE_RESOLUTIONS,
            E2E_SPECTRE_SEED,
            TrialPath::Batched,
        );
        let batched_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (pp, pc) = spectre_eval::resolution_sweep_on(
            E2E_SPECTRE_SECRET,
            &E2E_SPECTRE_RESOLUTIONS,
            E2E_SPECTRE_SEED,
            TrialPath::PerMachine,
        );
        let per_machine_secs = start.elapsed().as_secs_f64();
        assert_eq!(bp.len(), pp.len(), "e2e trial paths diverged");
        for (b, p) in bp.iter().zip(&pp) {
            assert!(
                b.recovered == p.recovered
                    && b.accuracy.to_bits() == p.accuracy.to_bits()
                    && b.kbps.to_bits() == p.kbps.to_bits(),
                "e2e trial paths diverged on spectre_eval"
            );
        }
        e2e_row(
            &mut text,
            &mut rows,
            "e2e-spectre-resolutions",
            "SpectreBack leak scored at every timer resolution: one recorded attack replayed per timer vs one attack run per resolution",
            pc,
            batched_secs,
            per_machine_secs,
        );
    }
    let data = Value::object()
        .with("bench", "pipeline-scheduler-throughput")
        .with("unit", "committed instructions per host second")
        .with("scale", ctx.scale.name())
        .with("config", "coffee_lake (224-entry ROB, 6-wide issue)")
        .with(
            "reference",
            "racer_cpu::reference (scan-based seed scheduler); sweep rows: per-machine sweep",
        )
        .with("workloads", Value::Array(rows));
    Ok(ScenarioOutput { data, text })
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Registration for the throughput baseline. The only scenario whose
/// results depend on wall-clock time, hence `deterministic: false`.
pub fn perf_baseline() -> Scenario {
    Scenario {
        name: "perf_baseline",
        title: "perf baseline",
        description: "event-driven vs reference scheduler throughput per workload shape",
        params: vec![
            ParamSpec::int("iters", "loop iterations per workload", 2_000, 12_000),
            ParamSpec::int("reps", "timed executions per workload", 2, 4),
            // Identical under both presets: the sweep metric's timed
            // fraction is points/(warmup+points), so the perf gate's
            // quick re-measurement only compares against a paper-scale
            // baseline if the point count matches.
            ParamSpec::int("sweep_points", "points per sweep-throughput row", 32, 32),
        ],
        seed: 0,
        deterministic: false,
        run,
    }
}
