//! Property tests for the gadget-template generator: every sampled
//! template lowers to a program that decodes, terminates within the
//! fitness cycle budget on the event-driven backend, and runs
//! bit-identically on both schedulers and on a snapshot fork (the
//! `crates/cpu/tests/differential.rs` discipline, applied to the search
//! space instead of random programs).

use hacky_racers::gadget_search::{eval_cpu_config, FitnessConfig, GadgetTemplate, SplitMix64};
use racer_cpu::{Backend, Cpu, RunResult};
use racer_mem::HierarchyConfig;

/// Sampled-space coverage per test (× targets).
const SAMPLES: usize = 60;

/// Assert every observable of two runs matches.
fn assert_equivalent(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles diverge");
    assert_eq!(a.committed, b.committed, "{tag}: commit counts diverge");
    assert_eq!(a.halted, b.halted, "{tag}: halt state diverges");
    assert_eq!(a.limit_hit, b.limit_hit, "{tag}: limit flag diverges");
    assert_eq!(a.regs, b.regs, "{tag}: architectural registers diverge");
    assert_eq!(a.trace.len(), b.trace.len(), "{tag}: trace lengths diverge");
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(
            (x.seq, x.pc, x.issued, x.completed, x.committed),
            (y.seq, y.pc, y.issued, y.completed, y.committed),
            "{tag}: trace records diverge"
        );
    }
}

#[test]
fn every_sampled_template_terminates_within_budget() {
    let cfg = FitnessConfig::default();
    let mut rng = SplitMix64::new(0xdead_beef);
    let mut cpu = Cpu::new(
        eval_cpu_config(cfg.cycle_budget),
        HierarchyConfig::small_plru(),
    );
    for i in 0..SAMPLES {
        let tpl = GadgetTemplate::sample(&mut rng);
        for &target in &cfg.targets {
            let lowered = tpl.lower(target, cfg.clock_len);
            let r = cpu.run_one(&lowered.prog, Backend::EventDriven);
            assert!(
                r.halted && !r.limit_hit,
                "sample #{i} target {target} did not halt cleanly: {tpl:?}"
            );
            assert!(
                r.cycles <= cfg.cycle_budget,
                "sample #{i} target {target} blew the budget: {} cycles ({tpl:?})",
                r.cycles
            );
            assert_eq!(
                r.committed as usize,
                lowered.prog.len(),
                "straight-line gadget commits every pc exactly once"
            );
        }
    }
}

#[test]
fn lowered_gadgets_are_bit_identical_across_backends() {
    let cfg = FitnessConfig::default();
    let mut rng = SplitMix64::new(0x5eed);
    // Persistent machines: warm state accumulates identically, so the
    // comparison also covers warmed-predictor starts (what the search's
    // snapshot-forked lanes actually see).
    let mut fast = Cpu::new(
        eval_cpu_config(cfg.cycle_budget),
        HierarchyConfig::small_plru(),
    );
    let mut slow = Cpu::new(
        eval_cpu_config(cfg.cycle_budget),
        HierarchyConfig::small_plru(),
    );
    for i in 0..SAMPLES {
        let tpl = GadgetTemplate::sample(&mut rng);
        let target = cfg.targets[i % cfg.targets.len()];
        let lowered = tpl.lower(target, cfg.clock_len);
        let forked = fast
            .snapshot()
            .fork()
            .run_one(&lowered.prog, Backend::EventDriven);
        let event = fast.run_one(&lowered.prog, Backend::EventDriven);
        let reference = slow.run_one(&lowered.prog, Backend::Reference);
        let tag = format!("sample #{i} target {target} ({tpl:?})");
        assert_equivalent(&format!("{tag} [event vs reference]"), &event, &reference);
        assert_equivalent(&format!("{tag} [fork vs parent]"), &forked, &event);
    }
}

#[test]
fn the_whole_grammar_lowers_and_assembles() {
    // Exhaustive over the non-size fields at a couple of size corners:
    // lowering must be total over the grammar, not just over what the
    // sampler happens to draw.
    use hacky_racers::gadget_search::{ArmLayout, ChainOp};
    for measured_op in ChainOp::ALL {
        for clock_op in ChainOp::ALL {
            for layout in ArmLayout::ALL {
                for (scale, fences, pads, noise, rounds) in [(1, 0, 0, 0, 1), (3, 2, 7, 3, 3)] {
                    let tpl = GadgetTemplate {
                        measured_op,
                        measured_scale: scale,
                        clock_op,
                        layout,
                        fences,
                        pad_nops: pads,
                        noise_chains: noise,
                        rounds,
                    };
                    for target in [0, 1, 6] {
                        let lowered = tpl.lower(target, 64);
                        assert_eq!(lowered.clock_pcs.len(), 64);
                        assert!(lowered.measured_tail_pc < lowered.prog.len());
                    }
                }
            }
        }
    }
}
