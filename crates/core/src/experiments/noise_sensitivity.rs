//! Noise-sensitivity sweep: SpectreBack accuracy as DRAM jitter grows.
//!
//! The paper's evaluation runs on a live machine with browser, OS and DRAM
//! noise and still reports >88% accuracy. This sweep turns the simulator's
//! one explicit noise knob (uniform DRAM jitter) up well past realistic
//! levels and watches the channel degrade — quantifying the margin behind
//! the paper's accuracy figure.

use crate::attacks::SpectreBack;
use crate::machine::Machine;
use racer_cpu::CpuConfig;
use racer_mem::HierarchyConfig;
use racer_time::CoarseTimer;

/// Accuracy at one jitter level.
#[derive(Copy, Clone, Debug)]
pub struct NoisePoint {
    /// Uniform DRAM jitter bound in cycles.
    pub jitter_cycles: u64,
    /// Bit accuracy in [0, 1].
    pub accuracy: f64,
}

/// Leak `secret` at each jitter level; report accuracy.
///
/// The jitter levels are independent full attacks on independent
/// machines, so they fan out across host cores in input order; each
/// level's machine forks the process-wide snapshot cache (one distinct
/// hierarchy config per level, so repeated sweeps rebuild nothing).
pub fn sweep(secret: &[u8], jitter_levels: &[u64]) -> Vec<NoisePoint> {
    racer_cpu::batch::par_map(jitter_levels, |&jitter| {
        let mut hier = HierarchyConfig::small_plru();
        hier.memory_jitter = jitter;
        hier.seed = 0xA11CE ^ jitter;
        let mut m = Machine::with_cached(CpuConfig::coffee_lake().with_load_recording(), hier);
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, secret);
        let mut timer = CoarseTimer::browser_5us();
        let report = atk.leak_bytes(&mut m, secret.len(), &mut timer);
        let correct: u32 = report
            .recovered
            .iter()
            .zip(secret)
            .map(|(a, b)| 8 - (a ^ b).count_ones())
            .sum();
        NoisePoint {
            jitter_cycles: jitter,
            accuracy: correct as f64 / (secret.len() * 8) as f64,
        }
    })
}

/// Render the sweep.
pub fn render(points: &[NoisePoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("dram_jitter_cycles\taccuracy\n");
    for p in points {
        let _ = writeln!(s, "{}\t{:.3}", p.jitter_cycles, p.accuracy);
    }
    s
}

/// JSON form of the jitter sweep.
pub fn to_value(points: &[NoisePoint]) -> racer_results::Value {
    racer_results::Value::Array(
        points
            .iter()
            .map(|p| {
                racer_results::Value::object()
                    .with("jitter_cycles", p.jitter_cycles)
                    .with("accuracy", p.accuracy)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_holds_at_realistic_noise() {
        let pts = sweep(b"OK", &[0, 30, 60]);
        for p in &pts {
            assert!(
                p.accuracy > 0.88,
                "jitter {} cycles: accuracy {:.2} under the paper's bar",
                p.jitter_cycles,
                p.accuracy
            );
        }
    }

    #[test]
    fn extreme_noise_degrades_the_channel_gracefully() {
        let pts = sweep(b"OK", &[0, 400]);
        let clean = pts[0].accuracy;
        let noisy = pts[1].accuracy;
        assert!(
            clean >= noisy,
            "noise must not improve accuracy: {clean} vs {noisy}"
        );
        assert!(
            noisy >= 0.5,
            "even extreme noise leaves a coin flip, not worse"
        );
    }
}
