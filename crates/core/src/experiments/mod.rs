//! Experiment drivers regenerating every figure and table of the paper's
//! evaluation (§7), plus the countermeasure study (§8).
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Figure 7 (repetition time stacks) | [`repetition_figure`] |
//! | Figures 8–9 (racing-gadget granularity) | [`granularity`] |
//! | §7.2 granularity summary | [`granularity::granularity_table`] |
//! | Figure 10 (reorder-magnifier distributions) | [`distribution`] |
//! | Figure 11 (arbitrary-replacement sweep) | [`magnifier_sweeps::figure11`] |
//! | Figure 12 (arithmetic-magnifier sweep) | [`magnifier_sweeps::figure12`] |
//! | §7.3 SpectreBack rate/accuracy | [`spectre_eval`] |
//! | §7.4 eviction-set success rate | [`ev_eval`] |
//! | §6.3.3 SEQ/PAR miss probability | [`par_seq`] |
//! | §8 countermeasure matrix | [`countermeasures`] |
//!
//! Every driver takes explicit scale parameters so tests can run shrunken
//! versions while `racer-lab run <scenario> --paper` runs paper-scale
//! sweeps.

use crate::machine::Machine;
use crate::magnify::PlruMagnifier;
use racer_cpu::batch::par_map;
use racer_cpu::{Backend, CpuConfig, RunResult};
use racer_isa::Program;

/// Which execution strategy carries an experiment's heavy trial runs.
///
/// Both paths are bit-identical in every simulated observable (pinned by
/// the per-experiment equality tests); they differ only in wall-clock
/// cost. [`TrialPath::Batched`] is the default everywhere;
/// [`TrialPath::PerMachine`] survives as the reference arm of the
/// `scenario-e2e` perf rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialPath {
    /// Prepare every trial machine up front, share timer-independent
    /// heavy runs across the timer axis, and fan the trial runs out as
    /// forks across host cores ([`run_lanes_batched`]).
    Batched,
    /// One machine per trial cell, run to completion immediately — the
    /// pre-batch pipeline shape.
    PerMachine,
}

/// Run prepared heterogeneous `(machine, program)` lanes: each lane runs
/// its program on a fork of its machine (the machines themselves are
/// untouched), fanned out across host cores by [`par_map`]. Results come
/// back in lane order, bit-identical to calling [`Machine::run`] per lane.
pub(crate) fn run_lanes_batched(lanes: &[(Machine, &Program)]) -> Vec<RunResult> {
    par_map(lanes, |(m, p)| {
        m.snapshot().fork().run_one(p, Backend::EventDriven)
    })
}

/// The fresh noisy machine of one PLRU reorder-magnifier trial (Figure 10
/// and the timer-mitigation sweep): DRAM jitter from `seed`, the Figure
/// 3.1 set state prepared for `rounds`, and the raced lines warmed A then
/// B (`a_first`) or B then A. Pokes only — the machine's clock stays at
/// zero. The trials read only cycles and commit counts, so the core
/// records counters, not load events.
pub(crate) fn plru_trial_machine(seed: u64, a_first: bool, rounds: usize) -> Machine {
    let mut m = Machine::with(CpuConfig::coffee_lake(), Machine::noisy_hierarchy(seed));
    let mag = PlruMagnifier::with(m.layout(), 5, rounds);
    mag.prepare(&mut m);
    let (a, b) = (mag.line_a(&m), mag.line_b(&m));
    if a_first {
        m.warm(a);
        m.warm(b);
    } else {
        m.warm(b);
        m.warm(a);
    }
    m
}

pub mod countermeasures;
pub mod detection;
pub mod distribution;
pub mod ev_eval;
pub mod granularity;
pub mod magnifier_sweeps;
pub mod noise_sensitivity;
pub mod par_seq;
pub mod repetition_figure;
pub mod spectre_eval;
pub mod timer_mitigations;
pub mod window_ablation;
