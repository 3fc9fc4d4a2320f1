//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the virtual timeline, in nanoseconds.
///
/// The model uses 64-bit nanoseconds: ~584 years of virtual time, far beyond
/// any experiment. Arithmetic is saturating-free (plain `+`) because
/// overflow would indicate a model bug, which debug builds catch.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct VirtTime(pub u64);

impl VirtTime {
    /// Time zero.
    pub const ZERO: VirtTime = VirtTime(0);

    /// Constructs from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        VirtTime(ns)
    }

    /// Constructs from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        VirtTime(us * 1_000)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        VirtTime(ms * 1_000_000)
    }

    /// Nanoseconds since time zero.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two times.
    pub fn max(self, other: VirtTime) -> VirtTime {
        VirtTime(self.0.max(other.0))
    }

    /// Span from `earlier` to `self`; zero if `earlier` is later.
    pub fn since(self, earlier: VirtTime) -> VirtTime {
        VirtTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for VirtTime {
    type Output = VirtTime;
    fn add(self, rhs: VirtTime) -> VirtTime {
        VirtTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtTime {
    fn add_assign(&mut self, rhs: VirtTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtTime {
    type Output = VirtTime;
    fn sub(self, rhs: VirtTime) -> VirtTime {
        VirtTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for VirtTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(VirtTime::from_us(20).as_ns(), 20_000);
        assert_eq!(VirtTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(VirtTime::from_ns(1500).to_string(), "1.500us");
        assert_eq!(VirtTime::from_ms(1500).to_string(), "1.500s");
    }

    #[test]
    fn since_is_saturating() {
        let a = VirtTime::from_ns(10);
        let b = VirtTime::from_ns(30);
        assert_eq!(b.since(a).as_ns(), 20);
        assert_eq!(a.since(b).as_ns(), 0);
    }
}
