//! Scoring a candidate gadget: resolution, monotonicity, stealth.
//!
//! One candidate costs `targets.len()` traced runs, fanned through a
//! single [`Snapshot::run_many`] call: one fork of a warmed snapshot per
//! target. Because the run is traced, the timer reading at each target
//! falls out of *one* run — the number of clock ops whose completion
//! cycle is ≤ the measured tail's — with no binary search and no repeat
//! trials (the simulator is deterministic).
//!
//! The three terms mirror what the repo already measures elsewhere:
//!
//! * **resolution** — least-squares slope of measured-chain duration
//!   against timer reading (cycles per clock tick), the
//!   `resolution_cycles_per_tick` of `smt_contention_eval`. Finer is
//!   better; the term is `1/(1+slope)`, 0 when the readings carry no
//!   usable slope.
//! * **monotonicity** — fraction of adjacent target pairs whose reading
//!   fails to increase: a timer whose reading does not grow with the
//!   measured length cannot rank events.
//! * **stealth** — the `detection_eval` hardware-counter classifiers run
//!   on the longest-target trace; each detector that flags the candidate
//!   costs 0.4 (so a gadget flagged by both keeps a 0.2 floor — visibly
//!   worse than any unflagged gadget, while preserving score ordering
//!   among flagged ones).

use super::template::GadgetTemplate;
use crate::experiments::detection::{backend_bound_detector, l1_miss_detector, CounterProfile};
use racer_cpu::engine::{Snapshot, SnapshotCache};
use racer_cpu::{workloads, CpuConfig, RunResult};
use racer_mem::HierarchyConfig;

/// L1-miss detector threshold (misses per kilo-instruction), the same
/// operating point `detection_eval` reports.
const L1_THRESHOLD_MPKI: f64 = 50.0;

/// How a candidate is measured: the target ladder, the clock budget, the
/// per-run cycle ceiling and the warmup depth of the shared snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FitnessConfig {
    /// Measured-length ladder (units of `measured_scale` ops).
    pub targets: Vec<usize>,
    /// Total clock ops per lowered program.
    pub clock_len: usize,
    /// Per-run cycle ceiling; a candidate that hits it is invalid.
    pub cycle_budget: u64,
    /// Warmup runs baked into the shared evaluation snapshot.
    pub warmup_runs: usize,
}

impl Default for FitnessConfig {
    fn default() -> Self {
        FitnessConfig {
            targets: vec![0, 1, 2, 3, 4],
            clock_len: 96,
            cycle_budget: 50_000,
            warmup_runs: 8,
        }
    }
}

/// The single-thread traced configuration every candidate runs under:
/// the baseline coffee-lake core with `RecordLevel::Trace` (the fitness
/// function reads completion cycles) and the cycle budget as a hard run
/// ceiling so a pathological candidate cannot stall a whole batch.
pub fn eval_cpu_config(cycle_budget: u64) -> CpuConfig {
    let mut cfg = CpuConfig::coffee_lake().with_trace();
    cfg.max_run_cycles = cycle_budget;
    cfg
}

impl FitnessConfig {
    /// The shared warmed evaluation snapshot, from the process-wide
    /// [`SnapshotCache`]: every candidate in a search (and every search
    /// in a process) forks the same machine, so per-candidate cost is
    /// the candidate's own runs and nothing else.
    pub fn snapshot(&self) -> Snapshot {
        let warm = workloads::alu_chain(32);
        SnapshotCache::global().warmed(
            eval_cpu_config(self.cycle_budget),
            HierarchyConfig::small_plru(),
            Some((&warm, self.warmup_runs)),
        )
    }
}

/// One (target, reading, duration) measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FitnessPoint {
    /// Measured-length target.
    pub target: usize,
    /// Timer reading: clock ops completed before the measured tail.
    pub reading: u64,
    /// Completion cycle of the measured tail (the true duration).
    pub duration: u64,
}

/// A scored candidate. All floats are exact deterministic functions of
/// the simulated runs — they serialize and round-trip bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Fitness {
    /// Whether every run halted within the cycle budget.
    pub valid: bool,
    /// Cycles per clock tick (least-squares; 0.0 when the readings have
    /// no usable positive slope — a flat or inverted timer).
    pub resolution_cycles_per_tick: f64,
    /// Fraction of adjacent target pairs with non-increasing readings.
    pub monotonicity_error_rate: f64,
    /// Flagged by the L1-miss-density detector?
    pub l1_flagged: bool,
    /// Flagged by the backend-bound detector?
    pub backend_flagged: bool,
    /// Stealth term: 1.0 minus 0.4 per firing detector.
    pub stealth: f64,
    /// Total score: resolution term + monotonicity term + stealth.
    pub score: f64,
    /// The per-target measurements behind the terms.
    pub points: Vec<FitnessPoint>,
}

impl Fitness {
    /// The score of a candidate whose runs never finished cleanly.
    pub fn invalid() -> Fitness {
        Fitness {
            valid: false,
            resolution_cycles_per_tick: 0.0,
            monotonicity_error_rate: 1.0,
            l1_flagged: false,
            backend_flagged: false,
            stealth: 0.0,
            score: 0.0,
            points: Vec::new(),
        }
    }

    /// Resolution contribution to the score: `1/(1+cycles_per_tick)`,
    /// 0 when there is no usable slope. Monotone in fineness — a
    /// 1-cycle timer scores 0.5, a 13-cycle timer ~0.07.
    pub fn resolution_term(&self) -> f64 {
        if self.resolution_cycles_per_tick > 0.0 {
            1.0 / (1.0 + self.resolution_cycles_per_tick)
        } else {
            0.0
        }
    }

    /// Monotonicity contribution: 1 minus the error rate.
    pub fn monotonicity_term(&self) -> f64 {
        1.0 - self.monotonicity_error_rate
    }
}

/// Stealth score of a counter profile against the `detection_eval`
/// classifiers: starts at 1.0 and strictly decreases by 0.4 for each
/// detector that flags the run.
pub fn stealth_term(profile: &CounterProfile) -> f64 {
    let mut s = 1.0;
    if l1_miss_detector(profile, L1_THRESHOLD_MPKI) {
        s -= 0.4;
    }
    if backend_bound_detector(profile) {
        s -= 0.4;
    }
    s
}

/// Least-squares slope of `y` on `x`; `None` when fewer than two points
/// or all `x` coincide.
fn ls_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-9 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Completion cycle of the single committed dynamic instruction at `pc`
/// (candidate programs are straight-line, so the mapping is unique).
fn completion_by_pc(r: &RunResult, prog_len: usize) -> Vec<Option<u64>> {
    let mut by_pc = vec![None; prog_len];
    for rec in &r.trace {
        if rec.committed.is_some() && rec.pc < prog_len {
            by_pc[rec.pc] = rec.completed;
        }
    }
    by_pc
}

/// Score `tpl` under `cfg`, running its lowered target ladder on forks of
/// `snap` (which must have been built by
/// [`FitnessConfig::snapshot`] for the same config).
pub fn evaluate(tpl: &GadgetTemplate, cfg: &FitnessConfig, snap: &Snapshot) -> Fitness {
    let lowered: Vec<_> = cfg
        .targets
        .iter()
        .map(|&t| tpl.lower(t, cfg.clock_len))
        .collect();
    let progs: Vec<_> = lowered.iter().map(|l| l.prog.clone()).collect();
    let runs = snap.run_many(&progs);
    if runs
        .iter()
        .any(|r| !r.halted || r.limit_hit || r.cycles > cfg.cycle_budget)
    {
        return Fitness::invalid();
    }
    let mut points = Vec::with_capacity(lowered.len());
    for ((l, r), &target) in lowered.iter().zip(&runs).zip(&cfg.targets) {
        let by_pc = completion_by_pc(r, l.prog.len());
        let Some(measured_done) = by_pc[l.measured_tail_pc] else {
            return Fitness::invalid();
        };
        let reading = l
            .clock_pcs
            .iter()
            .filter(|&&pc| by_pc[pc].is_some_and(|c| c <= measured_done))
            .count() as u64;
        points.push(FitnessPoint {
            target,
            reading,
            duration: measured_done,
        });
    }
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.reading as f64, p.duration as f64))
        .collect();
    let resolution = match ls_slope(&xy) {
        Some(s) if s > 0.0 => s,
        _ => 0.0,
    };
    let pairs = points.len().saturating_sub(1);
    let errors = points
        .windows(2)
        .filter(|w| w[1].reading <= w[0].reading)
        .count();
    let monotonicity_error_rate = if pairs == 0 {
        0.0
    } else {
        errors as f64 / pairs as f64
    };
    // Stealth is judged on the longest target: the program a detector
    // would actually watch the attacker run.
    let profile = CounterProfile::from_run("candidate", runs.last().expect("non-empty ladder"));
    let l1_flagged = l1_miss_detector(&profile, L1_THRESHOLD_MPKI);
    let backend_flagged = backend_bound_detector(&profile);
    let stealth = stealth_term(&profile);
    let mut fitness = Fitness {
        valid: true,
        resolution_cycles_per_tick: resolution,
        monotonicity_error_rate,
        l1_flagged,
        backend_flagged,
        stealth,
        score: 0.0,
        points,
    };
    fitness.score = fitness.resolution_term() + fitness.monotonicity_term() + fitness.stealth;
    fitness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget_search::shipped::{fenced_dud, hand_written_baseline};

    fn eval(tpl: &GadgetTemplate) -> Fitness {
        let cfg = FitnessConfig::default();
        let snap = cfg.snapshot();
        evaluate(tpl, &cfg, &snap)
    }

    #[test]
    fn paper_racer_beats_the_fenced_dud_on_every_term() {
        let racer = eval(&hand_written_baseline());
        let dud = eval(&fenced_dud());
        assert!(racer.valid && dud.valid, "both oracles run to completion");
        assert!(
            racer.resolution_term() > dud.resolution_term(),
            "racer resolution {} vs dud {}",
            racer.resolution_cycles_per_tick,
            dud.resolution_cycles_per_tick
        );
        assert!(
            racer.monotonicity_term() > dud.monotonicity_term(),
            "racer mono err {} vs dud {}",
            racer.monotonicity_error_rate,
            dud.monotonicity_error_rate
        );
        assert!(
            racer.stealth > dud.stealth,
            "racer stealth {} vs dud {} (dud flags: l1={} backend={})",
            racer.stealth,
            dud.stealth,
            dud.l1_flagged,
            dud.backend_flagged
        );
        assert!(racer.score > dud.score);
    }

    #[test]
    fn the_racer_oracle_is_a_fine_monotone_stealthy_timer() {
        let racer = eval(&hand_written_baseline());
        assert!(racer.resolution_cycles_per_tick > 0.0);
        assert!(
            racer.resolution_cycles_per_tick < 3.0,
            "paper racer resolves at cycle scale, got {}",
            racer.resolution_cycles_per_tick
        );
        assert_eq!(racer.monotonicity_error_rate, 0.0);
        assert!(!racer.l1_flagged && !racer.backend_flagged);
        assert_eq!(racer.stealth, 1.0);
    }

    #[test]
    fn stealth_term_strictly_decreases_per_firing_detector() {
        let clean = CounterProfile {
            name: "clean".into(),
            l1_mpki: 0.0,
            ipc: 2.0,
            mispredict_pki: 0.0,
        };
        let backend_bound = CounterProfile {
            name: "backend".into(),
            l1_mpki: 0.0,
            ipc: 0.4,
            mispredict_pki: 0.0,
        };
        let missy = CounterProfile {
            name: "missy".into(),
            l1_mpki: 80.0,
            ipc: 2.0,
            mispredict_pki: 0.0,
        };
        assert_eq!(stealth_term(&clean), 1.0);
        // Each firing detector strictly lowers the term. (The two
        // detectors are mutually exclusive by construction: the
        // backend-bound classifier requires a low miss rate.)
        assert!(stealth_term(&backend_bound) < stealth_term(&clean));
        assert!(stealth_term(&missy) < stealth_term(&clean));
    }

    #[test]
    fn invalid_runs_score_zero() {
        let f = Fitness::invalid();
        assert!(!f.valid);
        assert_eq!(f.score, 0.0);
        assert_eq!(f.resolution_term(), 0.0);
    }

    #[test]
    fn ls_slope_matches_a_hand_line() {
        let s = ls_slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]).unwrap();
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(ls_slope(&[(1.0, 1.0), (1.0, 2.0)]), None);
        assert_eq!(ls_slope(&[(1.0, 1.0)]), None);
    }
}
