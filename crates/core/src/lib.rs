//! # dft-core — the paper's algorithms
//!
//! Deterministic fault-tolerant consensus, gossiping and checkpointing in
//! linear time and communication, reproducing Chlebus–Kowalski–Olkowski
//! (PODC 2023).  Every algorithm is a [`dft_sim::SyncProtocol`] (or
//! [`dft_sim::SinglePortProtocol`]) state machine driven by the `dft-sim`
//! runners over `dft-overlay` expander graphs:
//!
//! * [`AlmostEverywhereAgreement`] — Section 4.1 (Theorem 5): ≥ 3/5·n nodes
//!   agree, `O(t)` rounds, `O(n)` one-bit messages, `t < n/5`.
//! * [`SpreadCommonValue`] — Section 4.2 (Theorem 6): spreads a value held by
//!   3/5·n nodes to everyone in `O(log t)` rounds and `O(t log t)` messages.
//! * [`FewCrashesConsensus`] — Section 4.3 (Theorem 7): consensus in
//!   `O(t + log n)` rounds and `O(n + t log t)` bits, `t < n/5`.
//! * [`many_crashes_for_all_nodes`] — Section 4.4 (Theorem 8 / Corollary 1):
//!   consensus for any `t < n` in `≤ n + 3(1 + lg n)` rounds, built as a
//!   [`FewCrashesConsensus`] whose AEA stage makes every node little on
//!   `G(n, d(α))` and whose SCV stage only inquires.
//! * [`Gossip`] — Section 5 (Theorem 9): `O(log n log t)` rounds,
//!   `O(n + t log n log t)` messages.
//! * [`Checkpointing`] — Section 6 (Theorem 10): gossip plus `n` combined
//!   consensus instances.
//! * [`AbConsensus`] — Section 7 (Theorem 11): authenticated-Byzantine
//!   consensus, `t < n/2`, `O(t)` rounds, `O(t² + n)` messages from
//!   non-faulty nodes; Part 1 is parallel Dolev–Strong ([`dolev_strong::DsRelay`]).
//! * [`LinearConsensus`] / [`SinglePortAdapter`] — Section 8 (Theorem 12):
//!   the single-port adaptation.
//! * [`LocalProbing`] — Proposition 1's probing primitive; beside it, one
//!   block runs the inquiry phases of Lemma 5 for the algorithms above.
//! * [`bounds`] — the theorems as checkable specs: each problem's
//!   conditions with its theorem's bounds on rounds, messages and bits,
//!   for `dft_sim::check`.
//!
//! # Quick example
//!
//! ```
//! use dft_core::{bounds, FewCrashesConsensus, SystemConfig};
//! use dft_sim::{check, RandomCrashes, Runner};
//!
//! let n = 60;
//! let t = 8;
//! let config = SystemConfig::new(n, t).unwrap().with_seed(42);
//! let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
//! let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
//! let rounds = nodes[0].total_rounds();
//!
//! let adversary = RandomCrashes::new(n, t, 30, 7);
//! let mut runner = Runner::with_adversary(nodes, Box::new(adversary), t).unwrap();
//! let report = runner.run(rounds + 2);
//!
//! assert_eq!(check(&report, &bounds::few_crashes(&config, &inputs)), Ok(()));
//! ```

#![warn(missing_docs)]
// Protocol state must not hang on rounding: the few float expressions size
// schedules once, from the configuration, identically on every node, and
// each says so where it stands.
#![warn(clippy::float_arithmetic)]

pub mod ab_consensus;
pub mod aea;
pub mod bounds;
pub mod checkpointing;
pub mod config;
pub mod dolev_strong;
mod error;
pub mod few_crashes;
pub mod gossip;
mod inquiries;
mod local_probing;
pub mod many_crashes;
pub mod scv;
pub mod single_port;
pub mod then;
mod values;
pub mod wire;

pub use ab_consensus::{AbConfig, AbConsensus, AbMsg, AgreementMsg, CommonSet, NULL_VALUE};
pub use aea::{AeaConfig, AeaMsg, AlmostEverywhereAgreement};
pub use bounds::{round_budget_for, theorem11_messages, theorem11_rounds, theorem8_round_bound};
pub use checkpointing::{Checkpoint, CheckpointConfig, CheckpointMsg, Checkpointing};
pub use config::SystemConfig;
pub use dolev_strong::DsBatch;
pub use error::{CoreError, CoreResult};
pub use few_crashes::{FcMsg, FewCrashesConfig, FewCrashesConsensus};
pub use gossip::{Gossip, GossipConfig, GossipMsg};
pub use local_probing::LocalProbing;
pub use many_crashes::many_crashes_for_all_nodes;
pub use scv::{ScvConfig, ScvMsg, SpreadCommonValue, Trust, TrustAll};
pub use single_port::{
    linear_consensus_for_all_nodes, LinearConsensus, LinearConsensusPlan, PortPlan,
    SinglePortAdapter,
};
pub use then::{Staged, Stages, Then};
pub use values::{BitVector, ExtantSet, JoinValue, Rumor};
