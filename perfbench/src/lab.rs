//! The `lab-paper` and `gadget-search` workloads, both driven through the
//! `racer-lab` command-line entry point, plus their traced forms and the
//! quick-preset golden pass.

use crate::check;
use crate::host::{p90, secs};
use crate::metrics::LAB_SCENARIOS;
use hacky_racers::gadget_search::{evaluate, FitnessConfig, SearchConfig, SearchState};
use racer_cpu::engine::SnapshotCache;
use racer_isa::Program;
use racer_lab::params::ResolvedParams;
use racer_lab::{find, run_scenario, RunOptions, Scale};
use racer_results::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The search scenario, the `gadget-search` workload.
pub const SEARCH: &str = "gadget_search_eval";

/// Scenarios of `lab-paper` with committed quick-preset goldens under
/// `crates/lab/tests/golden/`.
const LAB_GOLDENS: [&str; 12] = [
    "countermeasures_eval",
    "fig03_plru_walk",
    "smt_contention_eval",
    "fig08_granularity_add",
    "fig09_granularity_mul",
    "table_granularity",
    "fig10_reorder_distribution",
    "fig11_arbitrary_replacement",
    "fig12_arithmetic",
    "noise_sensitivity_eval",
    "timer_mitigations_eval",
    "detection_eval",
];

/// Archived templates timed one by one for `search.evaluate_ms`.
const EVALUATE_SAMPLES: usize = 32;

/// The parameter overrides the committed goldens were generated at; they
/// must stay equal to `tiny_overrides` in `crates/lab/tests/golden.rs`.
fn golden_overrides(name: &str) -> Vec<(String, String)> {
    let kv: &[(&str, &str)] = match name {
        "fig08_granularity_add" => &[("max_target", "8")],
        "fig09_granularity_mul" => &[("max_target", "16")],
        "fig10_reorder_distribution" => &[("trials", "2"), ("rounds", "120")],
        "fig11_arbitrary_replacement" => &[("points", "2,4")],
        "fig12_arithmetic" => &[("points", "10,20"), ("interrupt_cycles", "4000")],
        "table_granularity" => &[("fig8_max_target", "8"), ("fig9_max_target", "16")],
        "noise_sensitivity_eval" => &[("jitter_levels", "0,60")],
        "timer_mitigations_eval" => &[("timers", "5us,1ms"), ("rounds", "500"), ("trials", "1")],
        SEARCH => &[
            ("generations", "2"),
            ("population", "12"),
            ("targets", "0,1,2"),
            ("clock_len", "48"),
        ],
        _ => &[],
    };
    kv.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A lab seed: the benchmark seed folded into the non-negative `i64`
/// range the report format records.
pub fn lab_seed(seed: u64) -> u64 {
    seed & i64::MAX as u64
}

/// One `racer-lab run` invocation, ready to time.
pub struct LabJob {
    /// Arguments to `racer_lab::cli::dispatch`.
    pub argv: Vec<String>,
    /// Scenarios the invocation writes reports for.
    pub scenarios: Vec<&'static str>,
    out: PathBuf,
}

/// One timed repetition of a workload.
pub struct Rep {
    /// Host seconds of the timed part.
    pub secs: f64,
    /// Operations attempted (scenario reports, searches or kernel runs).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Candidate evaluations the search report records (0 for the
    /// paper scenarios).
    pub candidates: u64,
}

fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clearing the benchmark output directory");
    }
    std::fs::create_dir_all(dir).expect("creating the benchmark output directory");
}

/// Output directory of this process for `workload`, inside the checkout.
pub fn out_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{workload}-{}", std::process::id()))
}

/// Remove this process's output directory, and its parent once no other
/// run is using it.
pub fn clean(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    if let Some(parent) = dir.parent() {
        std::fs::remove_dir(parent).ok();
    }
}

/// Build the `lab-paper` invocation: look up every scenario and resolve
/// its paper parameters, as `run` does before any compute.
pub fn lab_paper_setup(seed: u64, out: &Path) -> LabJob {
    let opts = RunOptions::default();
    for name in LAB_SCENARIOS {
        let sc = find(name).expect("registered lab scenario");
        racer_lab::runner::resolve_params(&sc, &opts).expect("paper parameters resolve");
    }
    let mut argv: Vec<String> = vec!["run".into()];
    argv.extend(LAB_SCENARIOS.iter().map(|s| s.to_string()));
    argv.extend(run_flags(seed, out));
    LabJob {
        argv,
        scenarios: LAB_SCENARIOS.to_vec(),
        out: out.to_path_buf(),
    }
}

/// Build the `gadget-search` invocation at the paper preset with the
/// search's workers capped at the host's.
pub fn gadget_setup(seed: u64, out: &Path) -> LabJob {
    let sc = find(SEARCH).expect("registered search scenario");
    racer_lab::runner::resolve_params(&sc, &RunOptions::default())
        .expect("paper parameters resolve");
    let mut argv: Vec<String> = vec!["run".into(), SEARCH.into()];
    argv.extend(run_flags(seed, out));
    argv.extend([
        "--set".into(),
        format!("workers={}", crate::host::worker_cap()),
    ]);
    LabJob {
        argv,
        scenarios: vec![SEARCH],
        out: out.to_path_buf(),
    }
}

fn run_flags(seed: u64, out: &Path) -> Vec<String> {
    vec![
        "--paper".into(),
        "--seed".into(),
        lab_seed(seed).to_string(),
        "--quiet".into(),
        "--out".into(),
        out.display().to_string(),
    ]
}

/// Candidate evaluations a search report records, if it is internally
/// consistent (every generation evaluated its whole population).
fn search_candidates(doc: &Value) -> Option<u64> {
    let config = doc.get("config")?;
    let generations = config.get("generations")?.as_i64()?;
    let population = config.get("population")?.as_i64()?;
    let logs = doc.get("results")?.get("generations")?.as_array()?;
    let evaluated: i64 = logs
        .iter()
        .map(|l| l.get("evaluated").and_then(Value::as_i64))
        .sum::<Option<i64>>()?;
    (logs.len() as i64 == generations && evaluated == generations * population)
        .then_some(evaluated as u64)
}

/// Run `job` once from a cold snapshot cache, then check every report it
/// wrote.
pub fn rep(job: &LabJob) -> Rep {
    SnapshotCache::global().clear();
    fresh_dir(&job.out);
    let start = Instant::now();
    let outcome = racer_lab::cli::dispatch(&job.argv);
    let secs = secs(start);
    let (mut failed, mut candidates) = (0, 0);
    for name in &job.scenarios {
        let text =
            std::fs::read_to_string(job.out.join(format!("{name}.json"))).unwrap_or_default();
        if !check::report_ok(&text, name) {
            failed += 1;
            continue;
        }
        if *name == SEARCH {
            match Value::parse(&text)
                .ok()
                .as_ref()
                .and_then(search_candidates)
            {
                Some(n) => candidates += n,
                None => failed += 1,
            }
        }
    }
    if outcome.is_err() && failed == 0 {
        failed = 1;
    }
    Rep {
        secs,
        attempted: job.scenarios.len() as u64,
        failed,
        candidates,
    }
}

/// The lab scenarios run as `racer-lab run` runs them (fanned out across
/// the worker cap, reports written atomically), with a span per scenario
/// and per report write.
pub struct LabTrace {
    /// Seconds per scenario, in [`LAB_SCENARIOS`] order.
    pub scenario_secs: Vec<f64>,
    /// Failed scenarios.
    pub failed: u64,
    /// Total milliseconds rendering reports (`Value::to_pretty`).
    pub write_ms: f64,
    /// Total milliseconds parsing them back (`Value::parse`).
    pub parse_ms: f64,
    /// Total KiB of report text.
    pub kb: f64,
    /// Total milliseconds in `racer_lab::write_atomic`.
    pub write_atomic_ms: f64,
}

/// Run [`LAB_SCENARIOS`] at `scale` and `seed` (the registered seeds when
/// `None`) from a cold snapshot cache, writing reports under `out`.
pub fn lab_section(scale: Scale, seed: Option<u64>, out: &Path) -> LabTrace {
    SnapshotCache::global().clear();
    fresh_dir(out);
    let scenarios: Vec<_> = LAB_SCENARIOS
        .iter()
        .map(|n| find(n).expect("registered lab scenario"))
        .collect();
    let opts = RunOptions {
        scale,
        seed: seed.map(lab_seed),
        ..RunOptions::default()
    };
    let outcomes = racer_cpu::batch::try_par_map(&scenarios, |sc| {
        let t = Instant::now();
        let report = run_scenario(sc, &opts);
        (secs(t), report)
    });
    let (mut write_ms, mut write_atomic_ms) = (0.0, 0.0);
    let mut texts = Vec::new();
    let mut scenario_secs = Vec::new();
    let mut failed = 0;
    for (sc, outcome) in scenarios.iter().zip(outcomes) {
        match outcome {
            Ok((s, Ok(report))) => {
                scenario_secs.push(s);
                let t = Instant::now();
                let text = report.json.to_pretty();
                write_ms += secs(t) * 1e3;
                let t = Instant::now();
                let written =
                    racer_lab::write_atomic(&out.join(format!("{}.json", sc.name)), &text);
                write_atomic_ms += secs(t) * 1e3;
                failed += u64::from(written.is_err());
                texts.push((sc.name, text));
            }
            Ok((s, Err(_))) => {
                scenario_secs.push(s);
                failed += 1;
            }
            Err(_) => {
                scenario_secs.push(0.0);
                failed += 1;
            }
        }
    }
    let mut parse_ms = 0.0;
    for (name, text) in &texts {
        let t = Instant::now();
        let ok = check::report_ok(text, name);
        parse_ms += secs(t) * 1e3;
        failed += u64::from(!ok);
    }
    LabTrace {
        scenario_secs,
        failed,
        write_ms,
        parse_ms,
        kb: texts.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / 1024.0,
        write_atomic_ms,
    }
}

/// The search configuration `gadget_search_eval` builds at `scale`.
pub fn search_config(scale: Scale, seed: u64) -> SearchConfig {
    let sc = find(SEARCH).expect("registered search scenario");
    let p = ResolvedParams::resolve(&sc.params, scale, &[]).expect("search parameters resolve");
    SearchConfig {
        seed: lab_seed(seed),
        population: p.usize("population"),
        generations: p.usize("generations") as u32,
        fitness: FitnessConfig {
            targets: p.usize_list("targets"),
            clock_len: p.usize("clock_len"),
            ..FitnessConfig::default()
        },
        workers: crate::host::worker_cap(),
    }
}

/// The search run generation by generation through `SearchState::step`,
/// then its archive re-measured template by template.
pub struct SearchTrace {
    /// 90th-percentile seconds per generation.
    pub step_s: f64,
    /// 90th-percentile milliseconds per `gadget_search::evaluate` of an
    /// archived template.
    pub evaluate_ms: f64,
    /// 90th-percentile microseconds per `GadgetTemplate::lower`.
    pub lower_us: f64,
    /// Milliseconds per program of one `Snapshot::run_many` over every
    /// lowered archive program.
    pub run_many_ms_per_prog: f64,
    /// Candidates evaluated.
    pub candidates: u64,
    /// Occupied archive cells at the end.
    pub archive_cells: u64,
    /// Every archived template lowered at every target.
    pub programs: Vec<Program>,
}

/// Run the search of `cfg` from a cold snapshot cache.
pub fn search_section(cfg: &SearchConfig) -> SearchTrace {
    SnapshotCache::global().clear();
    let snap = cfg.fitness.snapshot();
    let mut state = SearchState::new(cfg.seed);
    let mut steps = Vec::new();
    while state.generation < cfg.generations {
        let t = Instant::now();
        state.step(cfg, &snap);
        steps.push(secs(t));
    }

    let templates: Vec<_> = state.archive.values().map(|c| c.template).collect();
    let mut lowers = Vec::new();
    let mut programs = Vec::new();
    for tpl in &templates {
        for &target in &cfg.fitness.targets {
            let t = Instant::now();
            let lowered = tpl.lower(target, cfg.fitness.clock_len);
            lowers.push(secs(t) * 1e6);
            programs.push(lowered.prog);
        }
    }
    let evaluates: Vec<f64> = templates
        .iter()
        .take(EVALUATE_SAMPLES)
        .map(|tpl| {
            let t = Instant::now();
            std::hint::black_box(evaluate(tpl, &cfg.fitness, &snap));
            secs(t) * 1e3
        })
        .collect();
    let t = Instant::now();
    std::hint::black_box(snap.run_many(&programs));
    let run_many_ms_per_prog = secs(t) * 1e3 / programs.len().max(1) as f64;
    SearchTrace {
        step_s: p90(&steps),
        evaluate_ms: p90(&evaluates),
        lower_us: p90(&lowers),
        run_many_ms_per_prog,
        candidates: state.log.iter().map(|l| u64::from(l.evaluated)).sum(),
        archive_cells: state.archive.len() as u64,
        programs,
    }
}

/// The quick-preset golden pass for `workload`, run after the timed part
/// so it neither warms nor counts in that part's snapshot cache: each
/// scenario with a committed golden must reproduce it byte for byte, and
/// the search must meet its fitness floor at its default seed. Returns
/// `(attempted, failed)`.
pub fn golden_pass(workload: crate::Workload) -> (u64, u64) {
    let (names, floor): (&[&str], bool) = match workload {
        crate::Workload::LabPaper => (&LAB_GOLDENS, false),
        crate::Workload::GadgetSearch => (&[SEARCH], true),
        crate::Workload::SimKernels => (&[], false),
    };
    let pairs: Vec<(String, String)> = racer_cpu::batch::par_map(names, |name| {
        let golden =
            std::fs::read_to_string(format!("crates/lab/tests/golden/{name}.results.json")).ok();
        let opts = RunOptions {
            overrides: golden_overrides(name),
            ..RunOptions::quick()
        };
        let got = find(name)
            .and_then(|sc| run_scenario(&sc, &opts).ok())
            .and_then(|r| r.json.get("results").map(Value::to_pretty));
        // A failed run or a missing golden is a mismatch.
        got.zip(golden)
            .unwrap_or_else(|| ("run failed".into(), "golden missing".into()))
    });
    let mut failed = check::golden_failures(&pairs);
    let mut attempted = pairs.len() as u64;
    if floor {
        attempted += 1;
        let floor_met = find(SEARCH)
            .and_then(|sc| run_scenario(&sc, &RunOptions::quick()).ok())
            .and_then(|r| r.json.get("results")?.get("floor_met")?.as_bool());
        failed += u64::from(floor_met != Some(true));
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_builds_the_same_invocation() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let out = dir.as_path();
        let a = lab_paper_setup(5, out).argv;
        assert_eq!(a, lab_paper_setup(5, out).argv);
        assert_ne!(a, lab_paper_setup(6, out).argv);
        assert_eq!(gadget_setup(5, out).argv, gadget_setup(5, out).argv);
        assert_ne!(gadget_setup(5, out).argv, gadget_setup(6, out).argv);
        clean(out);
    }

    #[test]
    fn the_golden_list_covers_every_committed_lab_golden() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/lab/tests/golden");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .expect("golden directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter_map(|f| f.strip_suffix(".results.json").map(str::to_string))
            .filter(|n| n != SEARCH)
            .collect();
        on_disk.sort();
        let mut ours: Vec<String> = LAB_GOLDENS.iter().map(|s| s.to_string()).collect();
        ours.sort();
        assert_eq!(on_disk, ours);
        assert!(LAB_GOLDENS.iter().all(|g| LAB_SCENARIOS.contains(g)));
    }

    #[test]
    fn lab_scenarios_are_the_registry_minus_search_and_perf_baseline() {
        let names: Vec<&str> = racer_lab::registry()
            .iter()
            .map(|s| s.name)
            .filter(|n| *n != SEARCH && *n != "perf_baseline")
            .collect();
        assert_eq!(names, LAB_SCENARIOS);
    }
}
