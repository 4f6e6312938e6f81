//! Hit/miss/eviction counters for caches and the hierarchy.

use std::fmt;

/// Event counters for a single cache level.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct CacheStats {
    /// Demand accesses that found their line resident.
    pub hits: u64,
    /// Demand accesses that did not find their line resident.
    pub misses: u64,
    /// Lines inserted into the cache.
    pub fills: u64,
    /// Valid lines displaced to make room for a fill.
    pub evictions: u64,
    /// Lines removed by explicit flush or inclusive back-invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total demand accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses have occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }

    /// Counter-wise difference since an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `earlier` has larger counters than `self`.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            fills: self.fills - earlier.fills,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} ({:.1}% miss) fills={} evictions={} invalidations={}",
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0,
            self.fills,
            self.evictions,
            self.invalidations
        )
    }
}

/// Aggregated counters for a whole [`Hierarchy`](crate::Hierarchy).
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct HierarchyStats {
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Shared last-level cache counters.
    pub l3: CacheStats,
    /// Accesses that had to go all the way to DRAM.
    pub memory_accesses: u64,
    /// Explicit flush operations serviced.
    pub flushes: u64,
    /// Prefetch operations serviced.
    pub prefetches: u64,
}

impl fmt::Display for HierarchyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "L1D: {}", self.l1d)?;
        writeln!(f, "L2 : {}", self.l2)?;
        writeln!(f, "L3 : {}", self.l3)?;
        write!(
            f,
            "DRAM accesses: {}  flushes: {}  prefetches: {}",
            self.memory_accesses, self.flushes, self.prefetches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero_accesses() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_counts() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_counterwise() {
        let early = CacheStats {
            hits: 1,
            misses: 2,
            fills: 2,
            evictions: 1,
            invalidations: 0,
        };
        let late = CacheStats {
            hits: 5,
            misses: 3,
            fills: 3,
            evictions: 2,
            invalidations: 4,
        };
        let d = late.since(&early);
        assert_eq!(
            d,
            CacheStats {
                hits: 4,
                misses: 1,
                fills: 1,
                evictions: 1,
                invalidations: 4
            }
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!CacheStats::default().to_string().is_empty());
        assert!(!HierarchyStats::default().to_string().is_empty());
    }
}
