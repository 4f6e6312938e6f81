//! The paper's headline claims, each as one executable assertion, at
//! reduced scale (`racer-lab run <scenario> --paper` runs the full versions).

use hacky_racers::experiments::{
    countermeasures, distribution, ev_eval, granularity, magnifier_sweeps, par_seq,
    repetition_figure,
};
use hacky_racers::machine::Machine;
use hacky_racers::magnify::{PlruInput, PlruMagnifier};
use hacky_racers::path::{emit_sync_head, PathSpec};
use racer_cpu::CpuConfig;
use racer_isa::{AluOp, Asm, MemOperand};
use racer_mem::{CacheConfig, HierarchyConfig, ReplacementKind};

/// §1/§5: ILP races measure arbitrary fine-grained timing differences.
#[test]
fn claim_racing_gadgets_time_single_operations() {
    let s = granularity::measure_series(AluOp::Add, Some(AluOp::Add), &[6, 12, 18, 24], 70);
    let slope = s.slope().expect("measurable");
    assert!((0.8..=1.3).contains(&slope));
    assert!(s.granularity() <= 3, "paper: 1–3 op granularity");
}

/// §7.1: repetition without racing cancels; with racing it transmits.
#[test]
fn claim_repetition_needs_racing() {
    let bare = repetition_figure::figure7(false, 20);
    let raced = repetition_figure::figure7(true, 20);
    assert!(bare.total_separation() < 0.05);
    assert!(raced.total_separation() > 0.05);
}

/// §6.1/§6.2 + Figure 10: the PLRU magnifier separates the two transmitted
/// states with almost no distribution overlap.
#[test]
fn claim_reorder_magnifier_distributions_separate() {
    let r = distribution::figure10(6, 500);
    assert!(r.overlap < 0.1, "overlap {:.3}", r.overlap);
    assert!(r.accuracy > 0.95);
}

/// §6.3 + Figure 11: prefetching makes the arbitrary-replacement magnifier
/// unbounded; without it, the set count caps it.
#[test]
fn claim_prefetching_lifts_the_set_cap() {
    let series = magnifier_sweeps::figure11(&[2, 10], 30);
    let find = |label: &str| series.iter().find(|s| s.label == label).unwrap();
    let with = &find("fifo-with-prefetch").points;
    let without = &find("random-no-prefetch").points;
    let with_growth = with[1].diff_us - with[0].diff_us;
    let without_growth = without[1].diff_us - without[0].diff_us;
    assert!(
        with_growth > without_growth,
        "prefetch growth {with_growth:.2} vs capped {without_growth:.2}"
    );
}

/// Issue-cycle gap between the terminal loads of two equal 20-add paths,
/// seeded either by the §4.1 cache-miss synchronization head or by a plain
/// immediate.
fn sync_head_gap(with_head: bool) -> u64 {
    let mut m = Machine::baseline();
    let layout = m.layout();
    let mut asm = Asm::new();
    let seed = if with_head {
        emit_sync_head(&mut asm, layout.sync)
    } else {
        let r = asm.reg();
        asm.mov_imm(r, 0);
        r
    };
    let rm = PathSpec::op_chain(AluOp::Add, 20).emit(&mut asm, seed);
    let rb = PathSpec::op_chain(AluOp::Add, 20).emit(&mut asm, seed);
    let va = asm.reg();
    asm.load(va, MemOperand::base_disp(rm, 0x0700_0000));
    let vb = asm.reg();
    asm.load(vb, MemOperand::base_disp(rb, 0x0700_2000));
    asm.halt();
    let prog = asm.assemble().expect("sync-head program assembles");
    m.flush(layout.sync);
    let r = m.run(&prog);
    let issue = |addr: u64| {
        r.loads
            .iter()
            .find(|l| l.addr == addr)
            .map(|l| l.issue_cycle)
            .unwrap_or(0)
    };
    issue(0x0700_0000).abs_diff(issue(0x0700_2000))
}

/// §4.1: the cache-miss synchronization head starts both paths of a race
/// on the same cycle; without it, equal paths finish apart.
#[test]
fn claim_sync_head_aligns_equal_paths() {
    let with_head = sync_head_gap(true);
    let without_head = sync_head_gap(false);
    assert_eq!(with_head, 0, "gap with the head: {with_head} cycles");
    assert!(
        with_head < without_head,
        "gap with head {with_head} vs without {without_head}"
    );
}

/// Presence/absence margin of the PLRU magnifier with the L1D on `kind`.
fn plru_margin(kind: ReplacementKind) -> u64 {
    let mut hier = HierarchyConfig::small_plru();
    hier.l1d = CacheConfig {
        replacement: kind,
        ..hier.l1d
    };
    let mut m = Machine::with(CpuConfig::coffee_lake().with_load_recording(), hier);
    let mag = PlruMagnifier::with(m.layout(), 5, 300);
    mag.prepare(&mut m);
    let absent = mag.measure(&mut m, PlruInput::PresenceAbsence);
    mag.prepare(&mut m);
    let a = mag.line_a(&m);
    m.warm(a);
    let present = mag.measure(&mut m, PlruInput::PresenceAbsence);
    present.saturating_sub(absent)
}

/// §6.1: the PLRU magnifier depends on tree-PLRU's replacement quirk; on
/// true LRU the presence/absence margin collapses.
#[test]
fn claim_plru_magnifier_needs_tree_plru() {
    let plru = plru_margin(ReplacementKind::TreePlru);
    let lru = plru_margin(ReplacementKind::Lru);
    assert!(
        plru >= 10 * lru,
        "margin on tree-PLRU {plru} vs true LRU {lru} cycles"
    );
}

/// §6.4 + Figure 12: the arithmetic magnifier accumulates without touching
/// the cache, until the timer interrupt bounds it.
#[test]
fn claim_arithmetic_magnifier_is_interrupt_bounded() {
    let free = magnifier_sweeps::figure12(&[40, 120], 20, None);
    let bound = magnifier_sweeps::figure12(&[40, 120], 20, Some(6_000));
    assert!(free.points[1].diff_us > free.points[0].diff_us);
    let free_growth = free.points[1].diff_us - free.points[0].diff_us;
    let bound_growth = bound.points[1].diff_us - bound.points[0].diff_us;
    assert!(bound_growth < free_growth);
}

/// §6.3.3: the paper's SEQ=6/PAR=5 sizing yields ~96% eviction probability.
#[test]
fn claim_par_seq_sizing() {
    let p = par_seq::evict_probability(6, 5, 8, 3000);
    assert!(p > 0.9, "got {p:.3}");
}

/// §7.4: eviction-set profiling succeeds at the paper's 100% rate.
#[test]
fn claim_eviction_set_success_rate() {
    let eval = ev_eval::evaluate(2, 48);
    assert_eq!(eval.rate(), 1.0);
}

/// §8: the gadget-vs-defence matrix matches the paper: transient defences
/// stop only the transient gadget; in-order stops everything.
#[test]
fn claim_countermeasure_matrix() {
    let rows = countermeasures::countermeasure_matrix();
    for row in &rows {
        match row.countermeasure.as_str() {
            "baseline" => {
                assert!(row.transient_pa_works && row.reorder_works);
            }
            "in-order" => {
                assert!(!row.transient_pa_works && !row.reorder_works);
            }
            _ => {
                assert!(
                    !row.transient_pa_works,
                    "{} must stop transient races",
                    row.countermeasure
                );
                assert!(
                    row.reorder_works,
                    "{} must not stop reorder races",
                    row.countermeasure
                );
            }
        }
    }
}
