//! Byte addresses, cache-line addresses and set-index math.

use std::fmt;

/// Size of a cache line in bytes. Fixed at 64, matching essentially every
/// contemporary x86/Arm core (and the paper's Coffee Lake evaluation machine).
pub const LINE_BYTES: u64 = 64;

/// A byte address in the simulated flat physical address space.
///
/// ```
/// use racer_mem::{Addr, LINE_BYTES};
/// let a = Addr(130);
/// assert_eq!(a.line().0, 2);
/// assert_eq!(a.line_offset(), 2);
/// assert_eq!(a.line().base_addr(), Addr(2 * LINE_BYTES));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Addr(pub u64);

/// A cache-line address: the byte address divided by [`LINE_BYTES`].
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct LineAddr(pub u64);

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Offset of this address within its cache line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// The address `bytes` further on (wrapping, as the simulated address
    /// space is a plain `u64`).
    #[inline]
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl LineAddr {
    /// First byte address of the line.
    #[inline]
    pub fn base_addr(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// Set index for a cache with `num_sets` sets (power of two), using the
    /// conventional low-order line-address bits.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `num_sets` is not a power of two.
    #[inline]
    pub fn set_index(self, num_sets: usize) -> usize {
        debug_assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two"
        );
        (self.0 as usize) & (num_sets - 1)
    }

    /// The line `n` lines further on.
    #[inline]
    pub fn offset(self, n: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add(n as u64))
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math_round_trips() {
        for raw in [0u64, 1, 63, 64, 65, 4096, u64::MAX - 64] {
            let a = Addr(raw);
            assert_eq!(a.line().base_addr().0 + a.line_offset(), raw);
        }
    }

    #[test]
    fn set_index_uses_low_bits() {
        assert_eq!(LineAddr(0).set_index(64), 0);
        assert_eq!(LineAddr(63).set_index(64), 63);
        assert_eq!(LineAddr(64).set_index(64), 0);
        assert_eq!(LineAddr(130).set_index(64), 2);
    }

    #[test]
    fn addr_offset_moves_by_bytes() {
        let a = Addr(100);
        assert_eq!(a.offset(64).line().0, a.line().0 + 1);
        assert_eq!(a.offset(-36), Addr(64));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(0x1234).to_string(), "0x1234");
        assert_eq!(LineAddr(0x10).to_string(), "line:0x10");
    }

    #[test]
    fn conversions() {
        let a: Addr = 42u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 42);
    }
}
