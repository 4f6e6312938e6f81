//! The attacker's machine: a simulated core plus the standard layouts and
//! timer plumbing the experiments share.

use crate::layout::Layout;
use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RunResult, Snapshot, SnapshotCache};
use racer_isa::Program;
use racer_mem::{Addr, CacheConfig, HierarchyConfig, ReplacementKind};
use racer_time::Timer;

/// A simulated machine under attack: core + hierarchy + address layout,
/// with a running simulated-time clock for timer reads.
///
/// The constructors correspond to the hardware variants the paper's
/// experiments need:
///
/// * [`Machine::baseline`] — tree-PLRU 4-way L1 (the W=4 illustration of
///   Figures 3–4; substitution for the paper's 8-way L1 documented in
///   DESIGN.md), used by the PLRU magnifiers and most attacks;
/// * [`Machine::random_l1`] — 64-set, 8-way, random-replacement L1, the
///   §6.3 arbitrary-replacement configuration;
/// * [`Machine::small_llc`] — a scaled-down inclusive LLC for the §7.4
///   eviction-set experiment;
/// * [`Machine::noisy`] — DRAM jitter enabled, for noisy attack runs such
///   as SpectreBack (Figure 10's trial machines share its hierarchy).
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    layout: Layout,
    /// Simulated nanoseconds accumulated over every program run, used as
    /// the wall clock that coarse timers observe.
    elapsed_ns: f64,
    /// Instructions committed by every clock-advancing run on this
    /// machine — the work metric of the `scenario-e2e` perf rows.
    committed: u64,
}

impl Machine {
    /// Build from explicit configurations.
    pub fn with(cpu_cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Self {
        Machine {
            cpu: Cpu::new(cpu_cfg, hier_cfg),
            layout: Layout::default(),
            elapsed_ns: 0.0,
            committed: 0,
        }
    }

    /// Like [`Machine::with`], but forking the process-wide
    /// [`SnapshotCache`] instead of constructing the core and hierarchy
    /// from scratch: the first call per `(cpu_cfg, hier_cfg)` pair builds
    /// and caches a cold snapshot, every later call pays only a
    /// copy-on-write fork. Forks are bit-identical to a fresh
    /// construction, so this is a pure wall-clock optimisation for
    /// experiments that stamp out many machines of one configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_cfg` fails validation or is not single-thread
    /// (snapshots capture single-thread machines — use [`Machine::with`]
    /// for SMT configurations).
    pub fn with_cached(cpu_cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Self {
        Self::from_snapshot(&SnapshotCache::global().cold(cpu_cfg, hier_cfg))
    }

    /// Tree-PLRU 4-way L1 machine (the default attack target). Forked
    /// from the process-wide [`SnapshotCache`] — bit-identical to a
    /// from-scratch construction, built once per process.
    pub fn baseline() -> Self {
        Self::with_cached(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::small_plru(),
        )
    }

    /// Baseline machine with DRAM jitter for noisy-distribution experiments.
    ///
    /// Deliberately *not* routed through the [`SnapshotCache`]: every
    /// trial uses a distinct `seed`, so each call is a distinct cache key
    /// — caching would only churn the LRU. (Same for
    /// [`Machine::random_l1`].)
    pub fn noisy(seed: u64) -> Self {
        Self::with(
            CpuConfig::coffee_lake().with_load_recording(),
            Self::noisy_hierarchy(seed),
        )
    }

    /// The hierarchy of [`Machine::noisy`]: tree-PLRU L1 with DRAM jitter
    /// drawn from `seed`.
    pub(crate) fn noisy_hierarchy(seed: u64) -> HierarchyConfig {
        let mut hier = HierarchyConfig::small_plru();
        hier.memory_jitter = 30;
        hier.seed = seed;
        hier
    }

    /// 64-set 8-way random-replacement L1 (paper §6.3's configuration).
    pub fn random_l1(seed: u64) -> Self {
        let mut hier = HierarchyConfig::coffee_lake();
        hier.l1d = CacheConfig {
            sets: 64,
            ways: 8,
            replacement: ReplacementKind::Random,
            seed,
            ..CacheConfig::l1d_coffee_lake()
        };
        Self::with(CpuConfig::coffee_lake().with_load_recording(), hier)
    }

    /// Scaled-down inclusive LLC (128 sets × 8 ways) so eviction-set
    /// profiling is tractable; the algorithmic behaviour (§7.4) is
    /// unchanged.
    pub fn small_llc() -> Self {
        let mut hier = HierarchyConfig::small_plru();
        hier.l3 = CacheConfig {
            sets: 128,
            ways: 8,
            hit_latency: 40,
            replacement: ReplacementKind::TreePlru,
            seed: 0x77,
        };
        // Keep L2 tiny too so L3-resident lines are not hidden by L2 hits.
        hier.l2 = CacheConfig {
            sets: 64,
            ways: 2,
            hit_latency: 12,
            replacement: ReplacementKind::TreePlru,
            seed: 0x78,
        };
        Self::with_cached(CpuConfig::coffee_lake().with_load_recording(), hier)
    }

    /// Change the modelled countermeasure.
    pub fn set_countermeasure(&mut self, c: Countermeasure) {
        self.cpu.set_countermeasure(c);
    }

    /// The address layout gadget code uses.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The underlying core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the underlying core.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Run a program on the event-driven backend, advancing the machine's
    /// wall clock.
    pub fn run(&mut self, prog: &Program) -> RunResult {
        self.run_with(prog, Backend::EventDriven)
    }

    /// Run a program with an explicit [`Backend`], advancing the machine's
    /// wall clock by the program's simulated duration.
    pub fn run_with(&mut self, prog: &Program, backend: Backend) -> RunResult {
        let r = self.cpu.run_one(prog, backend);
        self.elapsed_ns += self.cpu.config().cycles_to_ns(r.cycles);
        self.committed += r.committed;
        r
    }

    /// Capture the machine's persistent state (caches, memory, trained
    /// predictor) as a shareable [`Snapshot`]; [`Machine::from_snapshot`]
    /// stamps out independent machines from it, so a sweep warms one
    /// machine and forks it per point.
    pub fn snapshot(&self) -> Snapshot {
        self.cpu.snapshot()
    }

    /// Fork an independent machine from a [`Snapshot`] (the wall clock
    /// starts at zero; the layout is the standard one every constructor
    /// uses).
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        Machine {
            cpu: snap.fork(),
            layout: Layout::default(),
            elapsed_ns: 0.0,
            committed: 0,
        }
    }

    /// Run each of `progs` on an independent fork of this machine's
    /// *current* state — parallel universes, not a sequence: every lane
    /// observes the same caches/predictor, no lane sees another's
    /// effects, and the machine itself (state and wall clock) is
    /// untouched. Results come back in input order, bit-identical to
    /// cloning the machine per program and calling [`Machine::run`] on
    /// each clone. One snapshot capture and a copy-on-write fork per
    /// program make this the cheap way to fan a trial grid out from one
    /// prepared state.
    ///
    /// # Panics
    ///
    /// Panics on a multi-thread (SMT) configuration.
    pub fn batch(&self, progs: &[Program]) -> Vec<RunResult> {
        self.snapshot().run_many(progs)
    }

    /// Run a program and return just its cycle count.
    pub fn run_cycles(&mut self, prog: &Program) -> u64 {
        self.run(prog).cycles
    }

    /// Run a program and measure it with the attacker's `timer` — the only
    /// measurement the threat model (§3) allows. Returns the *observed*
    /// duration in nanoseconds.
    pub fn run_timed(&mut self, prog: &Program, timer: &mut dyn Timer) -> f64 {
        let start = self.elapsed_ns;
        let r = self.cpu.run_one(prog, Backend::EventDriven);
        self.elapsed_ns += self.cpu.config().cycles_to_ns(r.cycles);
        self.committed += r.committed;
        timer.measure(start, self.elapsed_ns)
    }

    /// Total simulated nanoseconds elapsed on this machine.
    pub fn elapsed_ns(&self) -> f64 {
        self.elapsed_ns
    }

    /// Total instructions committed by clock-advancing runs on this
    /// machine ([`Machine::run`]/[`Machine::run_with`]/
    /// [`Machine::run_timed`]; [`Machine::batch`] forks and leaves the
    /// machine untouched). The `scenario-e2e` perf rows use
    /// this as their backend-independent work metric.
    pub fn committed_total(&self) -> u64 {
        self.committed
    }

    /// Host-level cache-line flush (used for experiment setup; the gadgets
    /// themselves only flush where the paper's attacker legitimately could,
    /// e.g. by eviction).
    pub fn flush(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().flush(addr);
    }

    /// Host-level warm-up load (fills all levels, like an attacker touching
    /// their own array before the attack).
    pub fn warm(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().load(addr);
    }

    /// Remove `addr`'s line from the L1 only, leaving L2/L3 copies in place
    /// (the state an attacker reaches by conflict-evicting a line from the
    /// L1 with same-set accesses).
    pub fn evict_from_l1(&mut self, addr: Addr) {
        self.cpu.hierarchy_mut().l1d_mut().invalidate(addr.line());
    }

    /// Empty the given L1 set entirely (setup helper emulating an attacker
    /// priming pass).
    pub fn clear_l1_set(&mut self, set: usize) {
        let lines: Vec<_> = self
            .cpu
            .hierarchy()
            .l1d()
            .set(set)
            .resident_lines()
            .collect();
        for l in lines {
            self.cpu.hierarchy_mut().l1d_mut().invalidate(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_isa::Asm;
    use racer_time::{CoarseTimer, PerfectTimer};

    #[test]
    fn machine_clock_advances_with_runs() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        asm.mov_imm(r, 1);
        asm.halt();
        let prog = asm.assemble().unwrap();
        assert_eq!(m.elapsed_ns(), 0.0);
        m.run(&prog);
        let t1 = m.elapsed_ns();
        assert!(t1 > 0.0);
        m.run(&prog);
        assert!(m.elapsed_ns() > t1);
    }

    #[test]
    fn timed_run_with_perfect_timer_matches_cycles() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        for _ in 0..50 {
            asm.addi(r, r, 1);
        }
        asm.halt();
        let prog = asm.assemble().unwrap();
        let cycles = m.cpu_mut().run_one(&prog, Backend::EventDriven).cycles;
        let observed = m.run_timed(&prog, &mut PerfectTimer);
        assert!((observed - cycles as f64 * 0.5).abs() < 1.0);
    }

    #[test]
    fn coarse_timer_hides_short_runs() {
        let mut m = Machine::baseline();
        let mut asm = Asm::new();
        let r = asm.reg();
        asm.mov_imm(r, 1);
        asm.halt();
        let prog = asm.assemble().unwrap();
        let mut t = CoarseTimer::browser_5us();
        let observed = m.run_timed(&prog, &mut t);
        assert_eq!(observed, 0.0, "a handful of cycles is invisible at 5 µs");
    }

    #[test]
    fn variant_constructors_build() {
        let _ = Machine::noisy(3);
        let _ = Machine::random_l1(4);
        let _ = Machine::small_llc();
    }

    /// A short load-heavy probe whose timing is state-sensitive.
    fn probe(touch: u64) -> Program {
        let mut asm = Asm::new();
        let r = asm.reg();
        for i in 0..touch {
            asm.load(r, racer_isa::MemOperand::abs(0x8000 + i * 64));
        }
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn cached_baseline_matches_from_scratch_construction() {
        let mut cached = Machine::baseline();
        let mut direct = Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::small_plru(),
        );
        let p = probe(16);
        let a = cached.run(&p);
        let b = direct.run(&p);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn batch_matches_sequential_forks_and_preserves_the_machine() {
        let mut m = Machine::baseline();
        m.run(&probe(24)); // dirty the caches so state matters
        let clock = m.elapsed_ns();
        let progs: Vec<Program> = (1..=6).map(|i| probe(i * 4)).collect();
        let batched = m.batch(&progs);
        assert_eq!(m.elapsed_ns(), clock, "batch must not advance the clock");
        for (i, (p, got)) in progs.iter().zip(&batched).enumerate() {
            let want = Machine::from_snapshot(&m.snapshot()).run(p);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "batch lane #{i} diverges from a per-machine fork"
            );
        }
    }

    #[test]
    fn sweep_matches_per_machine_runs_over_heterogeneous_states() {
        // Three differently-prepared machines × two programs, fanned out
        // as forks; each lane must match running its program directly on
        // an identically prepared machine.
        let prepare = |warm: Option<u64>| {
            let mut m = Machine::baseline();
            if let Some(n) = warm {
                m.run(&probe(n)); // dirty the caches so state matters
            }
            m
        };
        let preps = [None, Some(16), Some(40)];
        let progs = [probe(8), probe(20)];
        let lanes: Vec<(Machine, &Program)> = preps
            .iter()
            .flat_map(|&w| progs.iter().map(move |p| (prepare(w), p)))
            .collect();
        let got = crate::experiments::run_lanes_batched(&lanes);
        assert_eq!(got.len(), preps.len() * progs.len());
        let wants = preps
            .iter()
            .flat_map(|&w| progs.iter().map(move |p| prepare(w).run(p)));
        for (i, (got, want)) in got.iter().zip(wants).enumerate() {
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "sweep lane #{i} diverges from a per-machine run"
            );
        }
        assert!(crate::experiments::run_lanes_batched(&[]).is_empty());
    }
}
