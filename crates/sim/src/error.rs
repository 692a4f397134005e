//! Error type for the simulator.

use std::error::Error as StdError;
use std::fmt;

/// A structured shard-protocol failure: which shard misbehaved, which frame
/// tag (if any) was in flight, and the round the coordinator was executing.
///
/// Callers and diagnostics match on these fields directly instead of
/// parsing strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the shard whose transport or worker failed.
    pub shard: usize,
    /// The frame tag in flight when the failure surfaced, if known.
    pub frame_tag: Option<u8>,
    /// The coordinator round during which the failure surfaced, if known.
    pub round: Option<u64>,
    /// Human-readable failure detail.
    pub detail: String,
}

impl ShardError {
    /// A shard error with no frame/round context yet.
    pub fn new(shard: usize, detail: impl Into<String>) -> Self {
        ShardError {
            shard,
            frame_tag: None,
            round: None,
            detail: detail.into(),
        }
    }

    /// Attaches the frame tag that was in flight.
    #[must_use]
    pub fn with_tag(mut self, tag: u8) -> Self {
        self.frame_tag = Some(tag);
        self
    }

    /// Attaches the coordinator round during which the failure surfaced.
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = Some(round);
        self
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}", self.shard)?;
        match (self.frame_tag, self.round) {
            (Some(tag), Some(round)) => write!(f, " (tag {tag}, round {round})")?,
            (Some(tag), None) => write!(f, " (tag {tag})")?,
            (None, Some(round)) => write!(f, " (round {round})")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.detail)
    }
}

/// Errors produced by the runners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The runner was constructed with zero nodes.
    EmptySystem,
    /// A protocol violated an invariant the simulator enforces (for example
    /// changing an irrevocable decision).
    ProtocolViolation(String),
    /// A configuration value was invalid (for example a fault budget larger
    /// than the number of nodes).
    InvalidConfig(String),
    /// A shard transport failed or a shard worker sent a malformed or
    /// unexpected frame (see [`crate::shard`]).
    Shard(ShardError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptySystem => write!(f, "simulation requires at least one node"),
            SimError::ProtocolViolation(msg) => write!(f, "protocol violation: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Shard(err) => write!(f, "shard protocol failure: {err}"),
        }
    }
}

impl StdError for SimError {}

impl From<ShardError> for SimError {
    fn from(err: ShardError) -> Self {
        SimError::Shard(err)
    }
}

/// Convenience result alias for simulator operations.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            SimError::EmptySystem.to_string(),
            "simulation requires at least one node"
        );
        assert!(SimError::ProtocolViolation("decision changed".into())
            .to_string()
            .contains("decision changed"));
        assert!(SimError::InvalidConfig("t > n".into())
            .to_string()
            .contains("t > n"));
    }

    #[test]
    fn shard_error_display_carries_structure() {
        let bare = ShardError::new(3, "worker hung up");
        assert_eq!(bare.to_string(), "shard 3: worker hung up");

        let tagged = ShardError::new(1, "bad frame").with_tag(64);
        assert_eq!(tagged.to_string(), "shard 1 (tag 64): bad frame");

        let full = ShardError::new(2, "decode failed")
            .with_tag(66)
            .with_round(5);
        assert_eq!(full.to_string(), "shard 2 (tag 66, round 5): decode failed");
        assert_eq!(full.shard, 2);
        assert_eq!(full.frame_tag, Some(66));
        assert_eq!(full.round, Some(5));

        let rounded = ShardError::new(0, "stalled").with_round(9);
        assert_eq!(rounded.to_string(), "shard 0 (round 9): stalled");

        let sim: SimError = full.into();
        assert!(sim
            .to_string()
            .starts_with("shard protocol failure: shard 2"));
    }
}
