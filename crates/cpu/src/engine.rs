//! Warm-state snapshots: capture a machine once, fork it per trial.
//!
//! Sweeps are the repo's dominant workload shape: run N program *variants*
//! (target lengths, repeat counts, magnifier settings) on machines that
//! share a [`CpuConfig`] and usually a warmed-up starting state. Spawning
//! one fresh [`Cpu`] per variant pays the warmup run and the hierarchy
//! allocation N times; a [`Snapshot`] pays them once:
//!
//! * **Snapshots** ([`Snapshot`]): one deep capture of a machine's
//!   persistent state — caches (replacement state included), data memory,
//!   trained branch predictor — behind an [`Arc`], shared across forks and
//!   across host threads ([`batch::par_map`](crate::batch::par_map)
//!   workers can all fork from the same snapshot). A sweep warms one
//!   machine, snapshots it, and forks it per point instead of re-running
//!   warmup per point.
//! * **Copy-on-write forks**: [`Snapshot::fork`] clones the snapshot's
//!   [`Hierarchy`], which shares cache storage in `Arc`-backed chunks and
//!   only materialises the chunks the fork actually writes (see
//!   `racer_mem`'s COW docs), so a fork costs O(1) and its private
//!   footprint grows only with what it touches. A fork decodes nothing
//!   either: every run reads the program's own µop table, decoded on the
//!   program's first run ([`Program::decoded`]), so N forks running one
//!   program share one table. Each fork runs to completion on the
//!   event-driven scheduler and is dropped as soon as its result is
//!   taken.
//! * **Warm reuse across a process** ([`SnapshotCache`]): scenarios that
//!   stamp out many machines of one configuration build and warm it once
//!   per process and fork the cached snapshot thereafter.
//!
//! # Cycle exactness
//!
//! A fork *is* the captured machine: its first run is bit-identical
//! (cycles, committed state, timer readings, cache stats) to the run the
//! captured machine would have made next. The differential suite pins
//! this on every program it runs, next to event-driven vs reference.
//!
//! ```
//! use racer_cpu::{Backend, Cpu, CpuConfig};
//! use racer_isa::Asm;
//! use racer_mem::HierarchyConfig;
//!
//! let mut asm = Asm::new();
//! let r = asm.reg();
//! asm.mov_imm(r, 21);
//! asm.add(r, r, r);
//! asm.halt();
//! let prog = asm.assemble()?;
//!
//! // Warm a machine, snapshot it, run eight forks of the snapshot.
//! let mut cpu = Cpu::new(CpuConfig::default(), HierarchyConfig::coffee_lake());
//! cpu.run_one(&prog, Backend::EventDriven); // warmup
//! let results = cpu.snapshot().run_many(&vec![prog; 8]);
//! assert_eq!(results.len(), 8);
//! // Every fork starts from the same warmed state: identical results.
//! assert!(results.iter().all(|r| r.cycles == results[0].cycles));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::{Backend, CpuConfig};
use crate::core::{Cpu, ThreadCtx};
use crate::predictor::Predictor;
use crate::stats::RunResult;
use racer_isa::{DataMemory, Program};
use racer_mem::{Hierarchy, HierarchyConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable capture of a machine's persistent state — config, cache
/// hierarchy (replacement and stats state included), data memory and
/// trained branch predictor — shared behind an [`Arc`].
///
/// Cloning a `Snapshot` is O(1); [`Snapshot::fork`] stamps out a fresh
/// independent [`Cpu`] whose first run behaves exactly as the captured
/// machine's next run would have. `Snapshot` is `Send + Sync`, so one
/// warmed snapshot can seed forks on every
/// [`batch::par_map`](crate::batch::par_map) worker at once.
#[derive(Clone, Debug)]
pub struct Snapshot {
    inner: Arc<SnapshotState>,
}

#[derive(Debug)]
struct SnapshotState {
    cfg: CpuConfig,
    hier: Hierarchy,
    mem: DataMemory,
    predictor: Box<dyn Predictor>,
}

impl Snapshot {
    /// Capture `cpu`'s persistent state. One deep copy; subsequent clones
    /// and forks share it.
    ///
    /// # Panics
    ///
    /// Panics unless `cpu` is a single-thread config (forks are
    /// single-thread machines).
    pub(crate) fn capture(cpu: &Cpu) -> Self {
        assert_eq!(
            cpu.cfg.threads, 1,
            "snapshots capture single-thread machines"
        );
        Snapshot {
            inner: Arc::new(SnapshotState {
                cfg: cpu.cfg,
                hier: cpu.hier.clone(),
                mem: cpu.mem.clone(),
                predictor: cpu.predictors[0].clone_box(),
            }),
        }
    }

    /// Stamp out an independent machine starting from the captured state.
    /// The fork owns its own copies: nothing it does is visible to the
    /// snapshot or to sibling forks. It carries no µop tables: the
    /// programs it runs bring their own, decoded once per program.
    pub fn fork(&self) -> Cpu {
        Cpu {
            cfg: self.inner.cfg,
            hier: self.inner.hier.clone(),
            mem: self.inner.mem.clone(),
            predictors: vec![self.inner.predictor.clone_box()],
            ctxs: vec![ThreadCtx::default()],
        }
    }

    /// Run each of `progs` on an independent fork of this snapshot and
    /// return one [`RunResult`] per program, in input order. Each result
    /// is `self.fork().run_one(prog, Backend::EventDriven)`.
    pub fn run_many(&self, progs: &[Program]) -> Vec<RunResult> {
        progs
            .iter()
            .map(|p| self.fork().run_one(p, Backend::EventDriven))
            .collect()
    }
}

/// Hit/miss counters for a [`SnapshotCache`], read via
/// [`SnapshotCache::counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCacheCounters {
    /// Lookups answered by an existing entry.
    pub hits: u64,
    /// Lookups that had to build (and warm) a machine.
    pub misses: u64,
}

/// One cached warm snapshot: the exact key it was built from plus its
/// fingerprint (a fast pre-filter — equality is always confirmed on the
/// full key, so fingerprint collisions cost a comparison, never
/// correctness).
#[derive(Debug)]
struct CacheEntry {
    fingerprint: u64,
    cfg: CpuConfig,
    hier_cfg: HierarchyConfig,
    warmup: Option<(Program, usize)>,
    snap: Snapshot,
    /// Logical access time for LRU eviction.
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    clock: u64,
}

/// A process-wide cache of warm [`Snapshot`]s, keyed by *(core config,
/// hierarchy config, warmup program × run count)*.
///
/// Scenarios stamp out hundreds of machines that share a [`CpuConfig`]
/// and a [`HierarchyConfig`]; each construction re-allocates the cache
/// hierarchy and (for warmed sweeps) re-runs the warmup program. The
/// cache builds each distinct configuration **once per process** and
/// hands every later request an O(1) [`Snapshot`] clone whose forks are
/// bit-identical to a freshly constructed (and identically warmed)
/// machine — the byte-identity argument the fork-based experiment
/// pipeline rests on.
///
/// Keying is exact: a lookup matches only when the configs and the warmup
/// program compare equal (`Eq`), with an FNV-64 fingerprint of the key as
/// a cheap pre-filter. Distinct configurations therefore *never* share an
/// entry, no matter how similar. The cache is bounded ([`Self::new`]'s
/// `cap`) with least-recently-used eviction, and exposes hit/miss
/// counters. Misses build the machine while holding the cache lock, so
/// concurrent [`batch::par_map`](crate::batch::par_map) workers racing
/// for one key block briefly and then all hit the single built entry —
/// "warm exactly once per process" holds under parallelism too.
///
/// [`SnapshotCache::global`] is the shared instance the experiment
/// pipeline uses; independent instances can be built for tests.
#[derive(Debug)]
pub struct SnapshotCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SnapshotCache {
    /// An empty cache holding at most `cap` snapshots (LRU-evicted).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "snapshot cache capacity must be non-zero");
        SnapshotCache {
            cap,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache instance. Sized generously (64 entries):
    /// the whole scenario suite uses about a dozen distinct
    /// configurations, so in practice nothing is ever evicted.
    pub fn global() -> &'static SnapshotCache {
        static GLOBAL: OnceLock<SnapshotCache> = OnceLock::new();
        GLOBAL.get_or_init(|| SnapshotCache::new(64))
    }

    /// A snapshot of a cold machine under `(cfg, hier_cfg)`: fresh caches,
    /// empty memory, untrained predictor. Forks are bit-identical to
    /// `Cpu::new(cfg, hier_cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn cold(&self, cfg: CpuConfig, hier_cfg: HierarchyConfig) -> Snapshot {
        self.warmed(cfg, hier_cfg, None)
    }

    /// A snapshot of a machine under `(cfg, hier_cfg)` warmed by running
    /// `warmup`'s program the given number of times on the event-driven
    /// backend (`None` ⇒ cold). Forks are bit-identical to constructing
    /// and warming a fresh machine the same way.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or is not single-thread.
    pub fn warmed(
        &self,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        warmup: Option<(&Program, usize)>,
    ) -> Snapshot {
        let fp = fingerprint(&cfg, &hier_cfg, warmup);
        let mut inner = self.inner.lock().expect("snapshot cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(entry) = inner.entries.iter_mut().find(|e| {
            e.fingerprint == fp
                && e.cfg == cfg
                && e.hier_cfg == hier_cfg
                && e.warmup.as_ref().map(|(p, runs)| (p, *runs)) == warmup
        }) {
            entry.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry.snap.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Build under the lock: racing callers for the same key block
        // here and then hit, so each configuration warms exactly once.
        let mut cpu = Cpu::new(cfg, hier_cfg);
        if let Some((prog, runs)) = warmup {
            for _ in 0..runs {
                cpu.run_one(prog, Backend::EventDriven);
            }
        }
        let snap = cpu.snapshot();
        if inner.entries.len() >= self.cap {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("cap > 0 ⇒ non-empty at eviction");
            inner.entries.swap_remove(lru);
        }
        inner.entries.push(CacheEntry {
            fingerprint: fp,
            cfg,
            hier_cfg,
            warmup: warmup.map(|(p, runs)| (p.clone(), runs)),
            snap: snap.clone(),
            stamp,
        });
        snap
    }

    /// Hit/miss counters since construction.
    pub fn counters(&self) -> SnapshotCacheCounters {
        SnapshotCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("snapshot cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached snapshot (counters are kept).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("snapshot cache poisoned")
            .entries
            .clear();
    }
}

/// FNV-1a over the `Debug` rendering of the cache key — stable within a
/// process (all the cache needs), allocation-free via `fmt::Write`.
fn fingerprint(
    cfg: &CpuConfig,
    hier_cfg: &HierarchyConfig,
    warmup: Option<(&Program, usize)>,
) -> u64 {
    use std::fmt::Write as _;
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{cfg:?}|{hier_cfg:?}|{warmup:?}");
    h.0
}
