//! Round counters for the synchronous model.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A round number in a synchronous execution, starting from zero.
///
/// All non-faulty nodes begin an execution at round zero and proceed in lock
/// step; runtime performance is the number of rounds until all non-faulty
/// nodes have halted (Section 2).
///
/// # Examples
///
/// ```
/// use dft_sim::Round;
///
/// let r = Round::ZERO;
/// assert_eq!((r + 3).as_u64(), 3);
/// assert!(r < r + 1);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u64);

impl Round {
    /// The first round of an execution.
    pub const ZERO: Round = Round(0);

    /// Creates a round from a raw counter value.
    pub const fn new(value: u64) -> Self {
        Round(value)
    }

    /// Raw counter value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The round immediately following this one.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Whether this round lies in the half-open window `[start, start+len)`.
    ///
    /// Protocol implementations use this to map the global round counter onto
    /// the pseudocode's "Part 1 / Part 2 / Phase i" structure.
    pub const fn in_window(self, start: u64, len: u64) -> bool {
        self.0 >= start && self.0 < start + len
    }

    /// Offset of this round within a window starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the round precedes `start`.
    pub fn offset_in(self, start: u64) -> u64 {
        assert!(
            self.0 >= start,
            "round {} precedes window start {start}",
            self.0
        );
        self.0 - start
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<u64> for Round {
    type Output = Round;

    fn add(self, rhs: u64) -> Round {
        Round(self.0 + rhs)
    }
}

impl AddAssign<u64> for Round {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u64;

    fn sub(self, rhs: Round) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Round {
    fn from(value: u64) -> Self {
        Round(value)
    }
}

impl From<Round> for u64 {
    fn from(round: Round) -> Self {
        round.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let r = Round::new(5);
        assert_eq!(r + 2, Round::new(7));
        assert_eq!(Round::new(7) - r, 2);
        assert_eq!(r.next(), Round::new(6));
        let mut r2 = r;
        r2 += 10;
        assert_eq!(r2.as_u64(), 15);
    }

    #[test]
    fn windows() {
        let r = Round::new(10);
        assert!(r.in_window(10, 1));
        assert!(r.in_window(5, 6));
        assert!(!r.in_window(5, 5));
        assert_eq!(r.offset_in(7), 3);
    }

    #[test]
    #[should_panic(expected = "precedes window start")]
    fn offset_before_window_panics() {
        let _ = Round::new(3).offset_in(5);
    }
}
