//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <lab-paper|gadget-search|sim-kernels>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is one JSON object carrying the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! Both forms hold `correct`, `attempted` and `failed`, the outcome of
//! the run's correctness checks. See `perfbench/README.md` for the
//! workloads and every metric.

mod check;
mod host;
mod kernels;
mod lab;
mod metrics;
mod probes;

use host::{mean, median, secs};
use metrics::Metrics;
use racer_cpu::engine::SnapshotCache;
use racer_lab::Scale;
use racer_results::Value;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <lab-paper|gadget-search|sim-kernels> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Lab set-ups timed before the first repetition and after every one.
/// A lab set-up takes tens of microseconds, so it is timed many times.
const SETUPS: usize = 101;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every deterministic paper scenario through `racer-lab run`, paper
    /// preset.
    LabPaper,
    /// The `gadget_search_eval` search through `racer-lab run`, paper
    /// preset.
    GadgetSearch,
    /// The six standard-suite shapes on the event-driven scheduler.
    SimKernels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LabPaper,
        Workload::GadgetSearch,
        Workload::SimKernels,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LabPaper => "lab-paper",
            Workload::GadgetSearch => "gadget-search",
            Workload::SimKernels => "sim-kernels",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                // Any integer seeds the run; a negative one is taken as
                // its two's-complement bit pattern.
                seed = Some(
                    value
                        .parse::<u64>()
                        .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if !Path::new("crates/lab/tests/golden").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/lab/tests/golden not found)");
        std::process::exit(2);
    }
    host::cap_workers();
    let out = lab::out_dir(args.workload.name());
    let result = if args.trace {
        traced(&args, &out)
    } else {
        untraced(&args, &out)
    };
    lab::clean(&out);
    match result {
        Ok(doc) => {
            print_metrics(&doc);
            println!("{}", doc.to_compact());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_metrics(doc: &Value) {
    for (name, m) in doc.get("metrics").and_then(Value::members).unwrap_or(&[]) {
        let value = m.get("value").map(Value::to_compact).unwrap_or_default();
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("# {name:<34} {value} {unit}");
    }
}

/// Set up the lab invocation for `w` [`SETUPS`] times, timing each. The
/// first call of a process is cold (page faults, allocator growth); the
/// median is the warm figure.
fn lab_setups(w: Workload, seed: u64, out: &Path) -> (Vec<f64>, lab::LabJob) {
    let setup = || match w {
        Workload::GadgetSearch => lab::gadget_setup(seed, out),
        _ => lab::lab_paper_setup(seed, out),
    };
    let mut times = Vec::with_capacity(SETUPS);
    let mut job = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        job = Some(setup());
        times.push(secs(start));
    }
    (times, job.expect("SETUPS > 0"))
}

/// The untraced run: the end-to-end metrics.
fn untraced(a: &Args, out: &Path) -> Result<Value, String> {
    let calib_before = host::calib_ns();
    let peak = || host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status");
    let r = match a.workload {
        Workload::SimKernels => {
            let s = kernels::series(a.seed, kernels::ITERS, a.seconds);
            let peak_rss_mb = peak()?;
            let pairs = kernels::reference_pairs(&s.last);
            let rounds = s.round_secs();
            Measured {
                wall_s: mean(&rounds),
                reps: rounds,
                setup_s: median(&s.setup_secs),
                peak_rss_mb,
                rate: Some(("sim_minstr_per_s", s.minstr_per_s(), "Minstr/s")),
                attempted: s.attempted() + pairs.len() as u64,
                failed: s.failures() + check::kernel_failures(&pairs),
            }
        }
        w => {
            // Set-ups are timed again after every repetition, so their
            // samples span the run like the repetitions do.
            let (mut setups, job) = lab_setups(w, a.seed, out);
            let start = Instant::now();
            let mut reps = Vec::new();
            loop {
                reps.push(lab::rep(&job));
                setups.extend(lab_setups(w, a.seed, out).0);
                if secs(start) >= a.seconds {
                    break;
                }
            }
            let peak_rss_mb = peak()?;
            let (golden_attempted, golden_failed) = lab::golden_pass(w);
            let rep_secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
            let wall_s = median(&rep_secs);
            Measured {
                reps: rep_secs,
                wall_s,
                setup_s: median(&setups),
                peak_rss_mb,
                rate: (w == Workload::GadgetSearch).then(|| {
                    (
                        "candidates_per_s",
                        reps[0].candidates as f64 / wall_s,
                        "1/s",
                    )
                }),
                attempted: reps.iter().map(|r| r.attempted).sum::<u64>() + golden_attempted,
                failed: reps.iter().map(|r| r.failed).sum::<u64>() + golden_failed,
            }
        }
    };
    let calib_after = host::calib_ns();
    println!(
        "# workload {} seed {}: {} repetitions of {:.4}-{:.4} s",
        a.workload.name(),
        a.seed,
        r.reps.len(),
        r.reps.iter().copied().fold(f64::INFINITY, f64::min),
        r.reps.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "# failed_frac {} ({} of {} operations)",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
    if let Some((rate, value, unit)) = r.rate {
        println!("# {rate} {value} {unit}");
    }
    println!("# host.calib_ns {calib_before} (before) {calib_after} (after)");
    let mut m = Metrics::default();
    m.float("wall_s", r.wall_s, "s");
    m.float("setup_s", r.setup_s, "s");
    m.float("peak_rss_mb", r.peak_rss_mb, "MiB");
    m.into_result(&metrics::end_to_end(), r.attempted, r.failed)
}

/// The end-to-end figures of one untraced run.
struct Measured {
    /// Seconds of each repetition.
    reps: Vec<f64>,
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    /// Name, value and unit of the rate the workload is named for: a
    /// fixed amount of work per seed over `wall_s`, printed beside the
    /// metrics.
    rate: Option<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

/// Snapshot-cache counters, process CPU time and wall time around one
/// section.
struct Window {
    hits: u64,
    misses: u64,
    cpu_s: f64,
    wall_s: f64,
    /// Spans ended inside the section, this window's own included.
    spans: u64,
}

fn observe<T>(f: impl FnOnce() -> T) -> (T, Window) {
    let spans0 = host::spans();
    let c0 = SnapshotCache::global().counters();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let out = f();
    let wall_s = secs(start);
    let c1 = SnapshotCache::global().counters();
    let window = Window {
        hits: c1.hits - c0.hits,
        misses: c1.misses - c0.misses,
        cpu_s: host::cpu_seconds().unwrap_or(0.0) - cpu0,
        wall_s,
        spans: host::spans() - spans0,
    };
    (out, window)
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The traced run: the workload's own section at full size with spans
/// and counter reads around each layer call, the other workloads'
/// sections at probe size (so every per-layer metric is present), and
/// the fixed layer probes. The tracing overhead is the spans ended inside
/// the workload's section times the cost of one span.
fn traced(a: &Args, out: &Path) -> Result<Value, String> {
    let w = a.workload;
    let calib_before = host::calib_ns();

    let full = |x: Workload| w == x;
    let lab_scale = if full(Workload::LabPaper) {
        Scale::Paper
    } else {
        Scale::Quick
    };
    let search_cfg = lab::search_config(
        if full(Workload::GadgetSearch) {
            Scale::Paper
        } else {
            Scale::Quick
        },
        a.seed,
    );
    let kernel_seconds = if full(Workload::SimKernels) {
        a.seconds
    } else {
        0.0
    };
    let run_lab = || lab::lab_section(lab_scale, full(Workload::LabPaper).then_some(a.seed), out);
    let run_search = || lab::search_section(&search_cfg);
    let run_kernels = || kernels::series(a.seed, kernels::ITERS, kernel_seconds);
    let (lab, search, kern, window) = match w {
        Workload::LabPaper => {
            let (lab, win) = observe(run_lab);
            (lab, run_search(), run_kernels(), win)
        }
        Workload::GadgetSearch => {
            let (search, win) = observe(run_search);
            (run_lab(), search, run_kernels(), win)
        }
        Workload::SimKernels => {
            let (kern, win) = observe(run_kernels);
            (run_lab(), run_search(), kern, win)
        }
    };

    let attempted = metrics::LAB_SCENARIOS.len() as u64 + 1 + kern.attempted();
    let mut failed = lab.failed + kern.failures();
    failed += u64::from(
        search.candidates != u64::from(search_cfg.generations) * search_cfg.population as u64,
    );

    let mut programs: Vec<_> = kern
        .last
        .iter()
        .flat_map(|k| k.progs.iter().cloned())
        .collect();
    programs.extend(search.programs.iter().cloned());
    let decode_ns = probes::decode(&programs);
    // `gadget_search::evaluate` lowers a candidate at every target and
    // `Snapshot::run_many` decodes each of those distinct programs once.
    let decode_calls = search.candidates * search_cfg.fitness.targets.len() as u64;
    let span_cost_s = host::span_cost_s();
    let (l1_hit_ns, dram_miss_ns) = probes::mem_access();
    let engine = probes::engine();
    let calib_ns = median(&[calib_before, host::calib_ns(), host::calib_ns()]);

    let mut m = Metrics::default();
    m.count("isa.decode.calls", decode_calls, "count");
    m.float("isa.decode.ns_per_instr", decode_ns, "ns");
    m.float("mem.l1_hit_ns", l1_hit_ns, "ns");
    m.float("mem.dram_miss_ns", dram_miss_ns, "ns");
    m.float("mem.cow_private_kb", engine.cow_private_kb, "KiB");
    let at = |shape: &str| {
        kern.names
            .iter()
            .position(|n| *n == shape)
            .expect("every shape ran")
    };
    for shape in metrics::SHAPES {
        let stats = &kern.rounds[0][at(shape)].results[0].mem_stats;
        m.float(
            &format!("mem.{shape}.l1d_hit_rate"),
            hit_rate(stats.l1d.hits, stats.l1d.misses),
            "ratio",
        );
        m.float(
            &format!("mem.{shape}.llc_hit_rate"),
            hit_rate(stats.l3.hits, stats.l3.misses),
            "ratio",
        );
    }
    for shape in metrics::SHAPES {
        let i = at(shape);
        let first = &kern.rounds[0][i];
        let cycles = first.results.iter().map(|r| r.cycles).max().unwrap_or(0);
        let shape_s = mean(&kern.rounds.iter().map(|r| r[i].secs).collect::<Vec<_>>());
        m.float(
            &format!("cpu.{shape}.minstr_per_s"),
            first.committed() as f64 / shape_s / 1e6,
            "Minstr/s",
        );
        m.float(
            &format!("cpu.{shape}.host_ns_per_cycle"),
            shape_s * 1e9 / cycles.max(1) as f64,
            "ns",
        );
        m.count(&format!("cpu.{shape}.cycles"), cycles, "count");
        m.count(
            &format!("cpu.{shape}.committed"),
            first.committed(),
            "count",
        );
        m.count(
            &format!("cpu.{shape}.squashed"),
            first.results.iter().map(|r| r.squashed_instrs).sum(),
            "count",
        );
    }
    m.float("engine.snapshot_us", engine.snapshot_us, "us");
    m.float("engine.fork_us", engine.fork_us, "us");
    m.float(
        "engine.run_many.ms_per_prog",
        search.run_many_ms_per_prog,
        "ms",
    );
    m.count("engine.cache.hits", window.hits, "count");
    m.count("engine.cache.misses", window.misses, "count");
    m.float(
        "engine.cache.hit_rate",
        hit_rate(window.hits, window.misses),
        "ratio",
    );
    m.float(
        "host.cpu_util",
        window.cpu_s / (window.wall_s * host::worker_cap() as f64),
        "ratio",
    );
    m.float("host.calib_ns", calib_ns, "ns");
    m.float("trace.overhead_s", window.spans as f64 * span_cost_s, "s");
    for (name, s) in metrics::LAB_SCENARIOS.iter().zip(&lab.scenario_secs) {
        m.float(&format!("lab.{name}.s"), *s, "s");
    }
    m.float("search.step_s", search.step_s, "s");
    m.float("search.evaluate_ms", search.evaluate_ms, "ms");
    m.float("search.lower_us", search.lower_us, "us");
    m.count("search.candidates", search.candidates, "count");
    m.count("search.archive_cells", search.archive_cells, "count");
    m.float("results.write_ms", lab.write_ms, "ms");
    m.float("results.parse_ms", lab.parse_ms, "ms");
    m.float("results.kb", lab.kb, "KiB");
    m.float("lab.write_atomic_ms", lab.write_atomic_ms, "ms");

    println!(
        "# traced workload {} seed {}: {} s, {} spans of {} ns",
        w.name(),
        a.seed,
        window.wall_s,
        window.spans,
        span_cost_s * 1e9
    );
    m.into_result(&metrics::per_layer(), attempted, failed)
}
