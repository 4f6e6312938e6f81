//! Architectural data memory (values only — timing lives in `racer-mem`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the address-keyed memory map. Every load and
/// store the pipeline issues reads or writes this map, so the default
/// SipHash (DoS-resistant, but ~10× the work for an 8-byte key) is on the
/// simulator's hottest path for memory-bound workloads; simulated addresses
/// are not attacker-controlled hash-flooding inputs, so a single
/// Fibonacci-style multiply is the right trade.
#[derive(Clone, Copy, Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold arbitrary bytes for safety.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; hashbrown
        // keys buckets off them after a rotate-free mix, so xor-fold them
        // down for good low-bit spread too.
        self.0 ^ (self.0 >> 32)
    }
}

/// Sparse 64-bit-word memory keyed by byte address.
///
/// Reads of unwritten locations return `0` (convenient for gadget setup:
/// `array[0] = 0` is the paper's favourite synchronization value, and
/// wrong-path Spectre loads of arbitrary addresses must not trap).
///
/// Words are keyed by their *exact* byte address; the simulator does not
/// model sub-word aliasing, which the gadgets never rely on.
///
/// ```
/// use racer_isa::DataMemory;
/// let mut m = DataMemory::new();
/// assert_eq!(m.read(0x1000), 0);
/// m.write(0x1000, 7);
/// assert_eq!(m.read(0x1000), 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataMemory {
    map: HashMap<u64, u64, BuildHasherDefault<AddrHasher>>,
}

impl DataMemory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the word at `addr` (0 if never written).
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.map.get(&addr).copied().unwrap_or(0)
    }

    /// Write `value` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        self.map.insert(addr, value);
    }

    /// Write `values` at `base`, `base + stride`, `base + 2*stride`, ….
    pub fn write_array(&mut self, base: u64, stride: u64, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(base.wrapping_add(i as u64 * stride), v);
        }
    }

    /// Read `count` words from `base` at `stride` spacing.
    pub fn read_array(&self, base: u64, stride: u64, count: usize) -> Vec<u64> {
        (0..count as u64)
            .map(|i| self.read(base.wrapping_add(i * stride)))
            .collect()
    }

    /// Number of explicitly written words.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no word was ever written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = DataMemory::new();
        assert_eq!(m.read(u64::MAX), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = DataMemory::new();
        m.write(8, 1);
        m.write(8, 2); // overwrite
        assert_eq!(m.read(8), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn arrays() {
        let mut m = DataMemory::new();
        m.write_array(0x100, 8, &[10, 20, 30]);
        assert_eq!(m.read(0x108), 20);
        assert_eq!(m.read_array(0x100, 8, 3), vec![10, 20, 30]);
    }
}
