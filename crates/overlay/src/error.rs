//! Error type for overlay-graph construction and analysis.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while building or analysing overlay graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// A vertex index was outside the graph's vertex range.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A graph with more vertices than a row's `u32` ids can name.
    TooManyVertices {
        /// The requested number of vertices.
        n: usize,
    },
    /// The requested construction parameters are infeasible (for example a
    /// regular graph with degree at least the number of vertices).
    InvalidParameters(String),
    /// A randomized construction failed to converge within its retry budget.
    ConstructionFailed(String),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for a graph on {n} vertices"
                )
            }
            OverlayError::TooManyVertices { n } => {
                write!(f, "{n} vertices exceed the u32 vertex ids of a graph")
            }
            OverlayError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            OverlayError::ConstructionFailed(msg) => write!(f, "construction failed: {msg}"),
        }
    }
}

impl StdError for OverlayError {}

/// Convenience result alias for overlay operations.
pub type OverlayResult<T> = Result<T, OverlayError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OverlayError::VertexOutOfRange { vertex: 9, n: 4 }
            .to_string()
            .contains("vertex 9"));
        assert!(OverlayError::TooManyVertices { n: 1 << 40 }
            .to_string()
            .contains("u32"));
        assert!(OverlayError::InvalidParameters("d >= n".into())
            .to_string()
            .contains("d >= n"));
        assert!(OverlayError::ConstructionFailed("retries".into())
            .to_string()
            .contains("retries"));
    }
}
