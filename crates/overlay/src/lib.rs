//! # dft-overlay — expander / Ramanujan overlay-graph substrate
//!
//! Overlay networks are the communication backbone of the `linear-dft`
//! algorithms: the paper (Section 3) routes all of its sub-quadratic
//! communication along constant-degree Ramanujan graphs, whose expansion
//! (Theorem 1), compactness (Theorem 2), dense-neighbourhood growth
//! (Theorem 3) and cross-set edges (Theorem 4) are exactly the properties
//! local probing and the inquiry phases rely on.
//!
//! This crate provides:
//!
//! * [`Graph`] — the undirected simple-graph type with the set-volume,
//!   boundary and neighbourhood primitives used in the paper's analysis;
//! * [`build`] — constructions: seeded random-regular (near-Ramanujan),
//!   complete/cycle references and the degree-capped
//!   [`build::capped_regular`] used by the protocols;
//! * [`spectral`] — power-iteration estimates of `λ = max(|λ₂|,|λ_n|)` and
//!   the Ramanujan test `λ ≤ 2√(d−1)`;
//! * [`properties`] — survival subsets (the constructive Theorem 2
//!   `F`-operator), dense neighbourhoods, expansion and Expander-Mixing
//!   checks;
//! * [`params`] — the paper's `ℓ(n,d)`, `δ(d)`, `γ` formulas and the
//!   practical scaling documented in `DESIGN.md`;
//! * [`family`] — the per-phase inquiry graph families of Lemma 5 and
//!   Section 4.4.
//!
//! # Example
//!
//! ```
//! use dft_overlay::{build, properties, spectral};
//!
//! // A seeded 8-regular expander on 200 vertices.
//! let g = build::random_regular(200, 8, 42).unwrap();
//! assert!(g.is_connected(None));
//!
//! // Its spectral gap is large...
//! let est = spectral::second_eigenvalue(&g, 200, 7);
//! assert!(est.spectral_gap() > 1.0);
//!
//! // ...and after adversarially removing 30 vertices, the peeling operator
//! // still finds a large 3-survival subset (the structure local probing
//! // exploits).
//! let survivors: Vec<usize> = (30..200).collect();
//! let candidate = g.mask(&survivors);
//! let core = properties::survival_subset(&g, &candidate, 3);
//! assert!(core.iter().filter(|&&b| b).count() > 150);
//! ```

#![warn(missing_docs)]

pub mod build;
mod error;
pub mod family;
mod graph;
pub mod params;
pub mod properties;
pub mod spectral;

pub use error::{OverlayError, OverlayResult};
pub use family::InquiryFamily;
pub use graph::{Graph, Neighbors, VertexId};
pub use params::OverlayParams;
pub use spectral::SpectralEstimate;
