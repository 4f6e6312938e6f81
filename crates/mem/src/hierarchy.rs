//! Three-level cache hierarchy: L1D → L2 → inclusive L3 → DRAM.

use crate::addr::{Addr, LineAddr};
use crate::cache::{Cache, CacheConfig};
use crate::stats::HierarchyStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deepest level that serviced an access.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Ord, PartialOrd, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit (filled into L1).
    L2,
    /// Last-level-cache hit (filled into L2 and L1).
    L3,
    /// DRAM access (filled into all levels).
    Memory,
}

impl std::fmt::Display for HitLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HitLevel::L1 => "L1",
            HitLevel::L2 => "L2",
            HitLevel::L3 => "L3",
            HitLevel::Memory => "DRAM",
        };
        f.write_str(s)
    }
}

/// What kind of access is being performed.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum AccessKind {
    /// Demand load.
    Load,
    /// Store (allocate-on-write, like the modelled write-back caches).
    Store,
    /// Software prefetch: fills caches, no architectural result.
    Prefetch,
    /// Non-temporal prefetch: fills at eviction-candidate priority
    /// (paper §6.3.1 footnote 7).
    PrefetchNta,
}

/// Result of a hierarchy access.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct AccessOutcome {
    /// Deepest level that serviced the access.
    pub level: HitLevel,
    /// Total load-to-use latency in cycles.
    pub latency: u64,
    /// Line displaced from the L1 by the resulting fill, if any.
    pub l1_evicted: Option<LineAddr>,
    /// Line displaced from the L3 (and, by inclusion, back-invalidated from
    /// L1/L2), if any.
    pub l3_evicted: Option<LineAddr>,
}

/// Configuration for a [`Hierarchy`].
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// DRAM latency in cycles (added on top of the L3 lookup).
    pub memory_latency: u64,
    /// Uniform jitter added to DRAM accesses, in cycles (`0` = none).
    /// Models row-buffer/contention noise so experiment distributions are
    /// realistic rather than perfectly crisp.
    pub memory_jitter: u64,
    /// Whether the L3 is inclusive of L1/L2 (true on the paper's Intel
    /// machine; the eviction-set attack of §7.4 relies on it).
    pub inclusive_l3: bool,
    /// Seed for DRAM jitter.
    pub seed: u64,
}

impl HierarchyConfig {
    /// The paper's Intel i7-8750H-like memory system.
    pub fn coffee_lake() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::l1d_coffee_lake(),
            l2: CacheConfig::l2_coffee_lake(),
            l3: CacheConfig::l3_coffee_lake(),
            memory_latency: 200,
            memory_jitter: 0,
            inclusive_l3: true,
            seed: 0xD12A,
        }
    }

    /// Coffee-Lake-like system with DRAM jitter enabled (for experiments
    /// that need realistic noise in their distributions).
    pub fn coffee_lake_noisy(seed: u64) -> Self {
        HierarchyConfig {
            memory_jitter: 30,
            seed,
            ..Self::coffee_lake()
        }
    }

    /// A small hierarchy (4-way PLRU L1 with 16 sets) used by the PLRU
    /// magnifier experiments, matching the paper's W = 4 illustration in
    /// Figures 3 and 4.
    pub fn small_plru() -> Self {
        let mut cfg = Self::coffee_lake();
        cfg.l1d = CacheConfig {
            sets: 16,
            ways: 4,
            ..CacheConfig::l1d_coffee_lake()
        };
        cfg
    }
}

/// A three-level data-cache hierarchy with flush, prefetch and inclusive
/// back-invalidation.
///
/// State updates happen at access time ("fill at issue"): the caller (the
/// CPU model) is responsible for scheduling *when* accesses are issued, so
/// the order of calls here is the order of cache fills — exactly the
/// property the paper's reorder racing gadget (§5.2) transmits through.
///
/// Cloning a `Hierarchy` is cheap and copy-on-write: each level's storage
/// is chunked behind shared `Arc`s (see [`crate::Cache`]), so a clone
/// copies chunk pointers and only materialises private chunks as its
/// access stream diverges from the original's. Snapshot forks rely on
/// this; [`Hierarchy::private_bytes_vs`] measures a clone's private part.
///
/// ```
/// use racer_mem::{Addr, Hierarchy, HierarchyConfig, HitLevel};
/// let mut h = Hierarchy::new(HierarchyConfig::coffee_lake());
/// let a = Addr(0x4000);
/// assert_eq!(h.load(a).level, HitLevel::Memory);
/// assert_eq!(h.load(a).level, HitLevel::L1);
/// h.flush(a);
/// assert_eq!(h.load(a).level, HitLevel::Memory);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    rng: StdRng,
    memory_accesses: u64,
    flushes: u64,
    prefetches: u64,
}

impl Hierarchy {
    /// Build a hierarchy from `cfg`.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            memory_accesses: 0,
            flushes: 0,
            prefetches: 0,
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Perform an access of `kind` to `addr`, updating all cache state and
    /// returning the serviced level and latency.
    #[inline]
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        let line = addr.line();
        if matches!(kind, AccessKind::Prefetch | AccessKind::PrefetchNta) {
            self.prefetches += 1;
        }

        // L1-hit fast path: the single tag lookup's way is reused for the
        // replacement update, and none of the L2/L3 lookup, fill or
        // eviction plumbing below is touched. This is the overwhelmingly
        // common case for every workload the simulator runs.
        if let Some(way) = self.l1d.lookup(line) {
            self.l1d.record_hit(line, way);
            return AccessOutcome {
                level: HitLevel::L1,
                latency: self.l1d.hit_latency(),
                l1_evicted: None,
                l3_evicted: None,
            };
        }
        self.l1d.record_miss();
        self.access_miss(line, kind)
    }

    /// The L1-miss slow path: walk L2 → L3 → DRAM, performing the fills and
    /// (for an inclusive L3) back-invalidations.
    fn access_miss(&mut self, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        let low_priority = matches!(kind, AccessKind::PrefetchNta);

        // L2 hit?
        if self.l2.access(line) {
            let l1_evicted = self.fill_l1(line, low_priority);
            return AccessOutcome {
                level: HitLevel::L2,
                latency: self.l2.hit_latency(),
                l1_evicted,
                l3_evicted: None,
            };
        }

        // L3 hit?
        if self.l3.access(line) {
            self.l2.fill(line);
            let l1_evicted = self.fill_l1(line, low_priority);
            return AccessOutcome {
                level: HitLevel::L3,
                latency: self.l3.hit_latency(),
                l1_evicted,
                l3_evicted: None,
            };
        }

        // DRAM.
        self.memory_accesses += 1;
        let jitter = if self.cfg.memory_jitter > 0 {
            self.rng.gen_range(0..=self.cfg.memory_jitter)
        } else {
            0
        };
        let latency = self.l3.hit_latency() + self.cfg.memory_latency + jitter;
        let l3_evicted = self.fill_l3(line);
        self.l2.fill(line);
        let l1_evicted = self.fill_l1(line, low_priority);
        AccessOutcome {
            level: HitLevel::Memory,
            latency,
            l1_evicted,
            l3_evicted,
        }
    }

    /// Demand load of `addr`.
    pub fn load(&mut self, addr: Addr) -> AccessOutcome {
        self.access(addr, AccessKind::Load)
    }

    /// Store to `addr` (write-allocate).
    pub fn store(&mut self, addr: Addr) -> AccessOutcome {
        self.access(addr, AccessKind::Store)
    }

    /// Software prefetch of `addr`.
    pub fn prefetch(&mut self, addr: Addr) -> AccessOutcome {
        self.access(addr, AccessKind::Prefetch)
    }

    fn fill_l1(&mut self, line: LineAddr, low_priority: bool) -> Option<LineAddr> {
        let out = if low_priority {
            self.l1d.fill_low_priority(line)
        } else {
            self.l1d.fill(line)
        };
        out.evicted
    }

    fn fill_l3(&mut self, line: LineAddr) -> Option<LineAddr> {
        let out = self.l3.fill(line);
        if let Some(victim) = out.evicted {
            if self.cfg.inclusive_l3 {
                // Inclusive LLC: evicting a line removes it everywhere.
                self.l2.invalidate(victim);
                self.l1d.invalidate(victim);
            }
        }
        out.evicted
    }

    /// Remove `addr`'s line from every level (a `clflush` analogue; not
    /// reachable from the JavaScript threat model, but needed for baselines
    /// such as classic Flush+Reload in §7.1).
    pub fn flush(&mut self, addr: Addr) {
        let line = addr.line();
        self.flushes += 1;
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line);
    }

    /// L1 way holding `addr`'s line, if resident — the single stateless
    /// lookup whose result [`Hierarchy::access_l1_hit`] /
    /// [`Hierarchy::access_l1_miss`] reuse, so callers that must first
    /// classify the access (MSHR admission in the CPU's load port) pay one
    /// tag scan instead of a probe *and* an access walk.
    #[inline]
    pub fn lookup_l1(&self, addr: Addr) -> Option<usize> {
        self.l1d.lookup(addr.line())
    }

    /// Complete a demand access already known — via [`Hierarchy::lookup_l1`]
    /// — to hit the L1 in `way`: updates replacement state and counters
    /// without re-scanning the tags, and touches no deeper level.
    #[inline]
    pub fn access_l1_hit(&mut self, addr: Addr, way: usize) -> AccessOutcome {
        self.l1d.record_hit(addr.line(), way);
        AccessOutcome {
            level: HitLevel::L1,
            latency: self.l1d.hit_latency(),
            l1_evicted: None,
            l3_evicted: None,
        }
    }

    /// Complete a demand access already known — via [`Hierarchy::lookup_l1`]
    /// returning `None` — to miss the L1: records the miss and walks the
    /// deeper levels without re-scanning the L1 tags.
    #[inline]
    pub fn access_l1_miss(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        if matches!(kind, AccessKind::Prefetch | AccessKind::PrefetchNta) {
            self.prefetches += 1;
        }
        debug_assert!(!self.l1d.probe(addr.line()), "access_l1_miss on a hit");
        self.l1d.record_miss();
        self.access_miss(addr.line(), kind)
    }

    /// Deepest level currently holding `addr`, without touching any state.
    pub fn probe(&self, addr: Addr) -> HitLevel {
        let line = addr.line();
        if self.l1d.probe(line) {
            HitLevel::L1
        } else if self.l2.probe(line) {
            HitLevel::L2
        } else if self.l3.probe(line) {
            HitLevel::L3
        } else {
            HitLevel::Memory
        }
    }

    /// Latency an access to `addr` *would* observe right now, without
    /// changing any state (used by delay-on-miss-style countermeasures and
    /// by tests).
    pub fn peek_latency(&self, addr: Addr) -> u64 {
        match self.probe(addr) {
            HitLevel::L1 => self.l1d.hit_latency(),
            HitLevel::L2 => self.l2.hit_latency(),
            HitLevel::L3 => self.l3.hit_latency(),
            HitLevel::Memory => self.l3.hit_latency() + self.cfg.memory_latency,
        }
    }

    /// The L1 data cache (read-only).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L2 cache (read-only).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L3 cache (read-only).
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Mutable access to the L1, for experiments that prepare exact set
    /// states (e.g. the PLRU magnifier's initial condition).
    pub fn l1d_mut(&mut self) -> &mut Cache {
        &mut self.l1d
    }

    /// Heap bytes of cache storage this hierarchy does **not** share with
    /// `base`: the private chunks a copy-on-write clone has materialised
    /// since it was forked. Against the snapshot it came from, this is the
    /// clone's real cache-state memory footprint — what the batch engine's
    /// slice schedule sums per lane to estimate host-cache pressure.
    pub fn private_bytes_vs(&self, base: &Hierarchy) -> usize {
        self.l1d.private_bytes_vs(&base.l1d)
            + self.l2.private_bytes_vs(&base.l2)
            + self.l3.private_bytes_vs(&base.l3)
    }

    /// Materialise private copies of all still-shared cache chunks, making
    /// this hierarchy's storage fully independent of any clone (the eager
    /// deep copy the copy-on-write clone otherwise avoids). Observable
    /// state is unchanged.
    pub fn unshare(&mut self) {
        self.l1d.unshare();
        self.l2.unshare();
        self.l3.unshare();
    }

    /// Aggregated counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            l3: *self.l3.stats(),
            memory_accesses: self.memory_accesses,
            flushes: self.flushes,
            prefetches: self.prefetches,
        }
    }

    /// Reset counters, preserving cache contents.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.memory_accesses = 0;
        self.flushes = 0;
        self.prefetches = 0;
    }

    /// Empty all caches and counters.
    pub fn clear(&mut self) {
        self.l1d.clear();
        self.l2.clear();
        self.l3.clear();
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::coffee_lake())
    }

    #[test]
    fn miss_then_hit_ladder() {
        let mut h = quiet();
        let a = Addr(0x10000);
        let m = h.load(a);
        assert_eq!(m.level, HitLevel::Memory);
        assert_eq!(m.latency, 240); // 40 (L3 lookup) + 200 DRAM
        assert_eq!(h.load(a).level, HitLevel::L1);
        assert_eq!(h.load(a).latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = quiet();
        let a = Addr(0x10000);
        h.load(a);
        // Evict from L1 by filling its set with 8 more lines (L1: 64 sets,
        // so stride = 64 lines * 64 bytes).
        for i in 1..=8u64 {
            h.load(Addr(0x10000 + i * 64 * 64));
        }
        let lvl = h.probe(a);
        assert!(
            lvl == HitLevel::L2 || lvl == HitLevel::L3,
            "expected L2/L3, got {lvl}"
        );
        let out = h.load(a);
        assert_ne!(out.level, HitLevel::Memory);
        assert_ne!(out.level, HitLevel::L1);
    }

    #[test]
    fn flush_removes_all_levels() {
        let mut h = quiet();
        let a = Addr(0x2000);
        h.load(a);
        assert_eq!(h.probe(a), HitLevel::L1);
        h.flush(a);
        assert_eq!(h.probe(a), HitLevel::Memory);
        assert_eq!(h.stats().flushes, 1);
    }

    #[test]
    fn inclusive_l3_back_invalidates() {
        // Tiny inclusive L3 so we can force LLC evictions easily.
        let mut cfg = HierarchyConfig::coffee_lake();
        cfg.l3 = CacheConfig {
            sets: 2,
            ways: 2,
            hit_latency: 40,
            replacement: crate::ReplacementKind::Lru,
            seed: 0,
        };
        let mut h = Hierarchy::new(cfg);
        let a = Addr(0); // L3 set 0
        h.load(a);
        assert_eq!(h.probe(a), HitLevel::L1);
        // Two more lines in L3 set 0 (L3 stride = 2 lines) evict `a` from L3…
        h.load(Addr(2 * 64));
        let out = h.load(Addr(4 * 64));
        assert_eq!(out.l3_evicted, Some(Addr(0).line()));
        // …and by inclusion from the L1 too, even though its L1 set differs.
        assert_eq!(h.probe(a), HitLevel::Memory);
    }

    #[test]
    fn non_inclusive_l3_does_not_back_invalidate() {
        let mut cfg = HierarchyConfig::coffee_lake();
        cfg.l3 = CacheConfig {
            sets: 2,
            ways: 2,
            hit_latency: 40,
            replacement: crate::ReplacementKind::Lru,
            seed: 0,
        };
        cfg.inclusive_l3 = false;
        let mut h = Hierarchy::new(cfg);
        let a = Addr(0);
        h.load(a);
        h.load(Addr(2 * 64));
        h.load(Addr(4 * 64));
        assert_eq!(
            h.probe(a),
            HitLevel::L1,
            "non-inclusive L3 eviction must not touch L1"
        );
    }

    #[test]
    fn prefetch_fills_like_a_load() {
        let mut h = quiet();
        let a = Addr(0x3000);
        h.prefetch(a);
        assert_eq!(h.probe(a), HitLevel::L1);
        assert_eq!(h.stats().prefetches, 1);
    }

    #[test]
    fn nta_prefetch_is_first_victim() {
        let mut h = quiet();
        // Fill L1 set 0 completely with normal loads (stride 64 lines).
        for i in 0..8u64 {
            h.load(Addr(i * 64 * 64));
        }
        // NTA-prefetch a 9th line into the same set: it evicts something,
        // and becomes the set's eviction candidate itself.
        let nta = Addr(8 * 64 * 64);
        h.access(nta, AccessKind::PrefetchNta);
        let set = h.l1d().set(0);
        assert_eq!(set.eviction_candidate(), Some(nta.line()));
    }

    #[test]
    fn memory_jitter_varies_latency() {
        let mut h = Hierarchy::new(HierarchyConfig::coffee_lake_noisy(1));
        let mut latencies = std::collections::HashSet::new();
        for i in 0..50u64 {
            let out = h.load(Addr(0x100000 + i * 4096 * 16));
            assert_eq!(out.level, HitLevel::Memory);
            latencies.insert(out.latency);
        }
        assert!(
            latencies.len() > 3,
            "jitter should produce varied DRAM latencies"
        );
    }

    #[test]
    fn peek_latency_matches_real_access() {
        let mut h = quiet();
        let a = Addr(0x9000);
        assert_eq!(h.peek_latency(a), 240);
        let out = h.load(a);
        assert_eq!(out.latency, 240);
        assert_eq!(h.peek_latency(a), 4);
    }

    #[test]
    fn clear_restores_cold_state() {
        let mut h = quiet();
        h.load(Addr(0x1234));
        h.clear();
        assert_eq!(h.probe(Addr(0x1234)), HitLevel::Memory);
        assert_eq!(h.stats().l1d.accesses(), 0);
    }
}
