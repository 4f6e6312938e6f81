//! Timer-mitigation sweep: how much magnification defeats each historical
//! browser timer mitigation (paper §2.2 and §8's "some of our magnifiers
//! ... could be defeated via further coarsening, whereas others (the PLRU
//! gadgets) are unlikely to be limited without removing any source of
//! coarse-grained time completely").
//!
//! For each timer model and each magnifier round count, transmit a bit
//! through the PLRU reorder magnifier many times and report the
//! classification accuracy. Because PLRU magnification is unbounded, there
//! is a round count that defeats *every* finite resolution.

use crate::experiments::{plru_trial_machine, run_lanes_batched, TrialPath};
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use racer_isa::Program;
use racer_time::{stats, CoarseTimer, FuzzyTimer, Timer};

/// One cell of the mitigation sweep.
#[derive(Clone, Debug)]
pub struct MitigationPoint {
    /// Timer model name.
    pub timer: String,
    /// Magnifier rounds per transmission.
    pub rounds: usize,
    /// Bit-classification accuracy in [0.5, 1] (0.5 — chance — when this
    /// shard scored no trials for the cell).
    pub accuracy: f64,
    /// Transmissions actually scored for this cell: the full `trials`
    /// count on an unsharded run, this shard's share otherwise. The
    /// weight `racer-lab merge` folds shard accuracies by.
    pub trials: usize,
}

fn build_timer(name: &str, seed: u64) -> Box<dyn Timer> {
    match name {
        "5us" => Box::new(CoarseTimer::new(5_000.0)),
        "100us" => Box::new(CoarseTimer::new(100_000.0)),
        "5us+jitter" => Box::new(CoarseTimer::with_jitter(5_000.0, 5_000.0, seed)),
        "fuzzy-5us" => Box::new(FuzzyTimer::new(5_000.0, seed)),
        "1ms" => Box::new(CoarseTimer::new(1_000_000.0)),
        other => panic!("unknown timer model {other}"),
    }
}

/// Transmit `trials` known bits per (timer, rounds) cell; score accuracy.
pub fn sweep(timers: &[&str], round_counts: &[usize], trials: usize) -> Vec<MitigationPoint> {
    sweep_sharded(timers, round_counts, trials, 1, 1)
}

/// [`sweep`], restricted to the `shard_k`-th of `shard_n` deterministic
/// slices of the **trial axis**: trial `t` runs when
/// `t % shard_n == shard_k - 1`. Each trial derives both its machine
/// *and its timer* (whose jitter stream is stateful) from its own index,
/// so a shard computes exactly the transmissions the full run would have
/// made for those trials, and CI legs can split one paper-scale sweep
/// and fold the reports back together with `racer-lab merge` (accuracies
/// weight by each point's `trials`).
///
/// # Panics
///
/// Panics unless `1 <= shard_k <= shard_n`.
pub fn sweep_sharded(
    timers: &[&str],
    round_counts: &[usize],
    trials: usize,
    shard_k: usize,
    shard_n: usize,
) -> Vec<MitigationPoint> {
    sweep_sharded_on(
        timers,
        round_counts,
        trials,
        shard_k,
        shard_n,
        TrialPath::Batched,
    )
    .0
}

/// [`sweep_sharded`] with an explicit [`TrialPath`], additionally
/// returning the total instructions the chosen path committed in heavy
/// magnifier runs — the work metric the `scenario-e2e` perf rows
/// normalise wall-clock by. Both paths return bit-identical points; the
/// batched path commits `1/timers.len()` of the per-machine path's
/// instructions (see the cell-grid note inside).
pub fn sweep_sharded_on(
    timers: &[&str],
    round_counts: &[usize],
    trials: usize,
    shard_k: usize,
    shard_n: usize,
    path: TrialPath,
) -> (Vec<MitigationPoint>, u64) {
    assert!(
        shard_k >= 1 && shard_k <= shard_n,
        "shard must satisfy 1 <= K <= N, got {shard_k}/{shard_n}"
    );
    match path {
        TrialPath::PerMachine => sweep_per_machine(timers, round_counts, trials, shard_k, shard_n),
        TrialPath::Batched => sweep_batched(timers, round_counts, trials, shard_k, shard_n),
    }
}

/// The pre-batch pipeline: one fresh machine and one heavy magnifier run
/// per (timer, rounds, trial, bit) cell.
fn sweep_per_machine(
    timers: &[&str],
    round_counts: &[usize],
    trials: usize,
    shard_k: usize,
    shard_n: usize,
) -> (Vec<MitigationPoint>, u64) {
    let mut committed = 0u64;
    let mut out = Vec::new();
    for &tname in timers {
        for &rounds in round_counts {
            let mut zeros = Vec::new();
            let mut ones = Vec::new();
            let mut scored = 0usize;
            for t in (0..trials).filter(|t| t % shard_n == shard_k - 1) {
                scored += 1;
                // One timer per trial, seeded by the trial index: a
                // stateful timer's jitter stream must not depend on which
                // other trials ran in this process, or shards would not
                // be trial-decomposable.
                let mut timer = build_timer(tname, 0xBEEF ^ (t as u64).wrapping_mul(0x9E37));
                for bit in [false, true] {
                    let mut m = prepared_machine(t, bit, rounds);
                    let mag = PlruMagnifier::with(m.layout(), 5, rounds);
                    let prog = mag.program(&m, PlruInput::Reorder);
                    let start = m.elapsed_ns();
                    let r = m.run(&prog);
                    committed += r.committed;
                    let obs = timer.measure(start, m.elapsed_ns());
                    if bit {
                        ones.push(obs);
                    } else {
                        zeros.push(obs);
                    }
                }
            }
            out.push(score_cell(tname, rounds, scored, &zeros, &ones));
        }
    }
    (out, committed)
}

/// The batch-first pipeline. The heavy magnifier run of a
/// (trial, bit, rounds) cell is *timer-independent*: `prepare` and the
/// bit-ordered warms poke caches without running programs, so the
/// machine's clock is zero when the magnifier runs and every observation
/// a timer scores is `timer.measure(0, cycles_to_ns(cycles))` of the
/// same cycle count. This path therefore runs the
/// rounds × trial × bit cell grid exactly once — one shared program per
/// rounds value (the magnifier program depends only on rounds and L1
/// geometry), lanes forked across host cores — and scores the cached cycles under every timer, where the
/// per-machine plan re-runs the whole grid per timer.
fn sweep_batched(
    timers: &[&str],
    round_counts: &[usize],
    trials: usize,
    shard_k: usize,
    shard_n: usize,
) -> (Vec<MitigationPoint>, u64) {
    let scored: Vec<usize> = (0..trials).filter(|t| t % shard_n == shard_k - 1).collect();
    // Prepared machines in (rounds, trial, bit) order, then one shared
    // program per rounds value.
    let mut cells: Vec<(Machine, usize)> =
        Vec::with_capacity(round_counts.len() * scored.len() * 2);
    for (ri, &rounds) in round_counts.iter().enumerate() {
        for &t in &scored {
            for bit in [false, true] {
                cells.push((prepared_machine(t, bit, rounds), ri));
            }
        }
    }
    let progs: Vec<Program> = match cells.first() {
        Some((m, _)) => round_counts
            .iter()
            .map(|&rounds| {
                PlruMagnifier::with(m.layout(), 5, rounds).program(m, PlruInput::Reorder)
            })
            .collect(),
        None => Vec::new(),
    };
    let lanes: Vec<(Machine, &Program)> =
        cells.into_iter().map(|(m, ri)| (m, &progs[ri])).collect();
    let results = run_lanes_batched(&lanes);
    let committed = results.iter().map(|r| r.committed).sum();
    // Each lane's run time on its own machine's clock.
    let run_ns: Vec<f64> = lanes
        .iter()
        .zip(&results)
        .map(|((m, _), r)| m.cpu().config().cycles_to_ns(r.cycles))
        .collect();
    let mut out = Vec::new();
    for &tname in timers {
        for (ri, &rounds) in round_counts.iter().enumerate() {
            let mut zeros = Vec::new();
            let mut ones = Vec::new();
            for (ti, &t) in scored.iter().enumerate() {
                let mut timer = build_timer(tname, 0xBEEF ^ (t as u64).wrapping_mul(0x9E37));
                for bit in [false, true] {
                    let idx = (ri * scored.len() + ti) * 2 + usize::from(bit);
                    // Exactly `run_timed` on a zero-clock machine.
                    let obs = timer.measure(0.0, run_ns[idx]);
                    if bit {
                        ones.push(obs);
                    } else {
                        zeros.push(obs);
                    }
                }
            }
            out.push(score_cell(tname, rounds, scored.len(), &zeros, &ones));
        }
    }
    (out, committed)
}

/// The fresh noisy machine of a (trial, bit, rounds) cell; a 1 bit warms
/// the raced lines A then B.
fn prepared_machine(t: usize, bit: bool, rounds: usize) -> Machine {
    plru_trial_machine(t as u64 * 31 + u64::from(bit), bit, rounds)
}

/// Fold one (timer, rounds) cell's observations into a point. A shard
/// can own zero trials of a cell (more shards than trials): record
/// chance accuracy at weight zero so the merge ignores it.
fn score_cell(
    tname: &str,
    rounds: usize,
    scored: usize,
    zeros: &[f64],
    ones: &[f64],
) -> MitigationPoint {
    let accuracy = if scored == 0 {
        0.5
    } else {
        stats::best_threshold(zeros, ones).1
    };
    MitigationPoint {
        timer: tname.to_string(),
        rounds,
        accuracy,
        trials: scored,
    }
}

/// Render the sweep as a table (rows = timers, columns = round counts).
pub fn render(points: &[MitigationPoint], round_counts: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("timer");
    for r in round_counts {
        let _ = write!(s, "\t{r} rounds");
    }
    s.push('\n');
    let mut timers: Vec<&str> = points.iter().map(|p| p.timer.as_str()).collect();
    timers.dedup();
    for t in timers {
        let _ = write!(s, "{t}");
        for r in round_counts {
            let p = points
                .iter()
                .find(|p| p.timer == t && p.rounds == *r)
                .expect("cell present");
            let _ = write!(s, "\t{:.2}", p.accuracy);
        }
        s.push('\n');
    }
    s
}

/// JSON form of the timer-model × round-count sweep.
pub fn to_value(points: &[MitigationPoint]) -> racer_results::Value {
    racer_results::Value::Array(
        points
            .iter()
            .map(|p| {
                racer_results::Value::object()
                    .with("timer", p.timer.as_str())
                    .with("rounds", p.rounds)
                    .with("accuracy", p.accuracy)
                    .with("trials", p.trials)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enough_rounds_defeat_every_finite_resolution() {
        // 100 µs resolution: 1500 rounds (~18 µs diff) fail, 20000 rounds
        // (~240 µs) succeed — coarsening only raises the bar, never closes.
        let pts = sweep(&["100us"], &[1_500, 20_000], 4);
        let low = pts.iter().find(|p| p.rounds == 1_500).unwrap();
        let high = pts.iter().find(|p| p.rounds == 20_000).unwrap();
        assert!(
            high.accuracy > low.accuracy || high.accuracy == 1.0,
            "more magnification must help: {low:?} vs {high:?}"
        );
        assert!(
            high.accuracy > 0.9,
            "20k rounds must defeat 100 µs: {:.2}",
            high.accuracy
        );
    }

    #[test]
    fn five_microsecond_variants_all_fall_to_moderate_rounds() {
        let pts = sweep(&["5us", "5us+jitter", "fuzzy-5us"], &[4_000], 4);
        for p in &pts {
            assert!(
                p.accuracy > 0.85,
                "{} should fall to 4000 rounds: accuracy {:.2}",
                p.timer,
                p.accuracy
            );
        }
    }

    #[test]
    fn render_has_all_cells() {
        let pts = sweep(&["5us"], &[500, 1000], 2);
        let s = render(&pts, &[500, 1000]);
        assert!(s.contains("5us") && s.contains("500 rounds"));
    }

    #[test]
    fn shards_partition_the_trial_axis() {
        // Every cell exists in every shard; the scored trial counts of the
        // N shards sum to the full run's, and a shard owning no trials of
        // a cell reports chance accuracy at weight zero.
        let full = sweep(&["5us"], &[500], 3);
        assert_eq!(full[0].trials, 3);
        let shards: Vec<_> = (1..=4)
            .map(|k| sweep_sharded(&["5us"], &[500], 3, k, 4))
            .collect();
        let total: usize = shards.iter().map(|s| s[0].trials).sum();
        assert_eq!(total, 3, "4 shards of 3 trials cover each trial once");
        let empty = &shards[3][0];
        assert_eq!((empty.trials, empty.accuracy), (0, 0.5));
    }

    #[test]
    fn shard_one_of_one_is_the_full_sweep() {
        let full = sweep(&["5us"], &[1000], 2);
        let one = sweep_sharded(&["5us"], &[1000], 2, 1, 1);
        assert_eq!(full[0].accuracy, one[0].accuracy);
        assert_eq!(full[0].trials, one[0].trials);
    }

    #[test]
    fn stateful_timer_trials_are_shard_decomposable() {
        // The jitter timer's RNG stream is per-trial (seeded by trial
        // index), so a trial's transmissions are identical no matter which
        // sharding selected it: trial 0 alone, trial 0 as the 1/2 slice of
        // two, and trial 1 under two different shardings must all agree.
        for timer in ["5us+jitter", "fuzzy-5us"] {
            let full_t0 = sweep(&[timer], &[1000], 1);
            let shard_t0 = sweep_sharded(&[timer], &[1000], 2, 1, 2);
            assert_eq!(
                full_t0[0].accuracy, shard_t0[0].accuracy,
                "{timer}: trial 0 must not depend on the sharding"
            );
            let t1_of_2 = sweep_sharded(&[timer], &[1000], 2, 2, 2);
            let t1_of_3 = sweep_sharded(&[timer], &[1000], 3, 2, 3);
            assert_eq!(
                t1_of_2[0].accuracy, t1_of_3[0].accuracy,
                "{timer}: trial 1 must not depend on the trial-axis shape"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shard must satisfy")]
    fn invalid_shard_is_rejected() {
        let _ = sweep_sharded(&["5us"], &[500], 2, 3, 2);
    }

    #[test]
    fn batched_and_per_machine_paths_agree_exactly() {
        let timers = ["5us", "5us+jitter", "fuzzy-5us"];
        let rounds = [400, 1000];
        let (b, bc) = sweep_sharded_on(&timers, &rounds, 3, 1, 1, TrialPath::Batched);
        let (p, pc) = sweep_sharded_on(&timers, &rounds, 3, 1, 1, TrialPath::PerMachine);
        assert_eq!(b.len(), p.len());
        for (x, y) in b.iter().zip(&p) {
            assert_eq!(
                (x.timer.as_str(), x.rounds, x.trials),
                (y.timer.as_str(), y.rounds, y.trials)
            );
            assert_eq!(
                x.accuracy.to_bits(),
                y.accuracy.to_bits(),
                "cell ({}, {}) accuracies must be bit-identical",
                x.timer,
                x.rounds
            );
        }
        // The batched path runs the timer-independent cell grid once; the
        // per-machine plan re-runs it for every timer.
        assert!(bc > 0);
        assert_eq!(pc, bc * timers.len() as u64);
    }

    #[test]
    fn batched_shards_still_partition_the_trial_axis() {
        // Sharding applies before the grid is built: a shard's batched
        // grid covers exactly its own trials.
        let full = sweep(&["5us+jitter"], &[800], 4);
        let folded: Vec<_> = (1..=2)
            .map(|k| sweep_sharded(&["5us+jitter"], &[800], 4, k, 2))
            .collect();
        let total: usize = folded.iter().map(|s| s[0].trials).sum();
        assert_eq!(total, full[0].trials);
    }
}
