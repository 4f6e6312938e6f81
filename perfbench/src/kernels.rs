//! The `sim-kernels` workload: the six standard-suite shapes, each on its
//! own fresh Coffee-Lake machine, run single-threaded on the event-driven
//! scheduler. No snapshot, fork, cache or fan-out is involved, so this
//! is the scheduler cycle loop and cache hierarchy alone.

use crate::host::{mean, secs};
use hacky_racers::gadget_search::SplitMix64;
use racer_cpu::workloads::standard_suite;
use racer_cpu::{Backend, Cpu, CpuConfig, RunResult};
use racer_isa::Program;
use racer_mem::HierarchyConfig;
use std::time::Instant;

/// Loop iterations per shape: half the perf baseline's paper size, so a
/// set-up-and-round cycle takes 0.1-0.25 s and a 30 s run gathers well
/// over a hundred samples.
pub const ITERS: i64 = 6_000;

/// One shape, warmed and ready to time.
pub struct Kernel {
    /// Suite name of the shape.
    pub name: &'static str,
    /// The program, plus the co-scheduled contender for the SMT shape.
    pub progs: Vec<Program>,
    /// Results of the untimed warm run on the fresh machine.
    pub warm: Vec<RunResult>,
    cpu: Cpu,
}

/// One timed execution of one shape.
#[derive(Clone)]
pub struct ShapeRun {
    /// Host seconds.
    pub secs: f64,
    /// Results, one per hardware thread.
    pub results: Vec<RunResult>,
}

impl ShapeRun {
    /// Committed instructions over all threads.
    pub fn committed(&self) -> u64 {
        self.results.iter().map(|r| r.committed).sum()
    }

    /// Whether every thread ran to a committed `halt`.
    pub fn completed(&self) -> bool {
        self.results.iter().all(|r| r.halted && !r.limit_hit)
    }
}

/// The shape order for `seed`: a seeded Fisher-Yates permutation of the
/// suite. The seed changes nothing else.
pub fn order(seed: u64) -> Vec<&'static str> {
    let mut names = crate::metrics::SHAPES.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..names.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        names.swap(i, j);
    }
    names
}

fn machine(threads: usize) -> Cpu {
    let cfg = CpuConfig {
        threads,
        ..CpuConfig::coffee_lake()
    };
    Cpu::new(cfg, HierarchyConfig::coffee_lake())
}

fn run(cpu: &mut Cpu, progs: &[Program], backend: Backend) -> Vec<RunResult> {
    match progs {
        [one] => vec![cpu.run_one(one, backend)],
        many => cpu.run(&many.iter().collect::<Vec<_>>(), backend),
    }
}

/// Build every shape in `seed` order on a fresh machine and give each one
/// untimed warm run, so timed runs start from warmed caches and
/// predictor.
fn setup(seed: u64, iters: i64) -> Vec<Kernel> {
    let mut suite = standard_suite(iters, 1);
    order(seed)
        .into_iter()
        .map(|name| {
            let at = suite
                .iter()
                .position(|w| w.name == name)
                .expect("suite shape");
            let w = suite.swap_remove(at);
            let progs: Vec<Program> = std::iter::once(w.prog).chain(w.contender).collect();
            let mut cpu = machine(progs.len());
            let warm = run(&mut cpu, &progs, Backend::EventDriven);
            Kernel {
                name: w.name,
                progs,
                warm,
                cpu,
            }
        })
        .collect()
}

/// One round: every shape once, in setup order.
fn round(kernels: &mut [Kernel]) -> Vec<ShapeRun> {
    kernels
        .iter_mut()
        .map(|k| {
            let start = Instant::now();
            let results = run(&mut k.cpu, &k.progs, Backend::EventDriven);
            ShapeRun {
                secs: secs(start),
                results,
            }
        })
        .collect()
}

/// The correctness pass: each shape's untimed warm run against the same
/// program on a fresh machine under the reference scheduler.
pub fn reference_pairs(kernels: &[Kernel]) -> Vec<(Vec<RunResult>, Vec<RunResult>)> {
    kernels
        .iter()
        .map(|k| {
            let mut cpu = machine(k.progs.len());
            (k.warm.clone(), run(&mut cpu, &k.progs, Backend::Reference))
        })
        .collect()
}

/// Repeated set-up-then-round cycles: every round runs on machines built
/// and warmed just before it, so each round is the same deterministic
/// work and set-up and round samples spread over the whole run alike.
pub struct Series {
    /// Shape names in round order.
    pub names: Vec<&'static str>,
    /// Host seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// Each round's runs, in `names` order.
    pub rounds: Vec<Vec<ShapeRun>>,
    /// The machines of the last cycle, for the correctness pass.
    pub last: Vec<Kernel>,
}

/// Run cycles for `seed` until `seconds` have passed (at least one).
pub fn series(seed: u64, iters: i64, seconds: f64) -> Series {
    let start = Instant::now();
    let (mut setup_secs, mut rounds) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let mut kernels = setup(seed, iters);
        setup_secs.push(secs(t));
        rounds.push(round(&mut kernels));
        if secs(start) >= seconds {
            return Series {
                names: kernels.iter().map(|k| k.name).collect(),
                setup_secs,
                rounds,
                last: kernels,
            };
        }
    }
}

impl Series {
    /// Host seconds of each round.
    pub fn round_secs(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.iter().map(|s| s.secs).sum())
            .collect()
    }

    /// Committed instructions of one round, all shapes and threads.
    pub fn round_committed(&self) -> u64 {
        self.rounds[0].iter().map(ShapeRun::committed).sum()
    }

    /// Simulated Minstr per host second over the mean round.
    pub fn minstr_per_s(&self) -> f64 {
        self.round_committed() as f64 / mean(&self.round_secs()) / 1e6
    }

    /// Runs that did not complete, plus runs whose simulated result
    /// differs from the first round's (every round is the same work on
    /// identically built machines, so the results must repeat exactly).
    pub fn failures(&self) -> u64 {
        let incomplete = self.rounds.iter().flatten().filter(|r| !r.completed());
        let pairs: Vec<_> = self.rounds[1..]
            .iter()
            .flat_map(|round| {
                round
                    .iter()
                    .zip(&self.rounds[0])
                    .map(|(r, first)| (first.results.clone(), r.results.clone()))
            })
            .collect();
        incomplete.count() as u64 + crate::check::kernel_failures(&pairs)
    }

    /// Kernel runs made.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation_of_the_suite() {
        assert_eq!(order(7), order(7));
        let mut sorted = order(7);
        sorted.sort();
        let mut suite = crate::metrics::SHAPES.to_vec();
        suite.sort();
        assert_eq!(sorted, suite);
        assert!((0..8).any(|s| order(s) != order(s + 1)));
    }

    #[test]
    fn a_series_follows_the_seed_order_and_repeats_exactly() {
        let s = series(3, 50, 0.0);
        assert_eq!(s.names, order(3));
        let suite: Vec<&str> = standard_suite(50, 1).iter().map(|w| w.name).collect();
        assert_eq!(suite, crate::metrics::SHAPES);
        let s = Series {
            rounds: vec![s.rounds[0].clone(), s.rounds[0].clone()],
            ..s
        };
        assert_eq!(s.failures(), 0);
        assert_eq!(crate::check::kernel_failures(&reference_pairs(&s.last)), 0);
    }
}
