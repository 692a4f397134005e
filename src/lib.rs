//! # linear-dft — deterministic fault-tolerant distributed computing in
//! linear time and communication
//!
//! A Rust reproduction of Chlebus, Kowalski and Olkowski, *Deterministic
//! Fault-Tolerant Distributed Computing in Linear Time and Communication*
//! (PODC 2023, arXiv:2305.11644).  This facade crate re-exports the
//! workspace's building blocks:
//!
//! * [`sim`] — the synchronous message-passing simulator (multi-port and
//!   single-port runners, crash and Byzantine adversaries, metrics);
//! * [`overlay`] — expander / Ramanujan overlay graphs and their
//!   fault-tolerance properties;
//! * [`auth`] — the simulated signature substrate for the
//!   authenticated-Byzantine model;
//! * [`core`] — the paper's algorithms (almost-everywhere agreement,
//!   spread-common-value, few/many-crashes consensus, gossip, checkpointing,
//!   Dolev–Strong, AB-consensus, the single-port adaptation);
//! * [`baselines`] — the comparison algorithms used by the benchmark
//!   harness.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `dft-bench` for the experiment harness regenerating the paper's tables.
//!
//! # Quickstart
//!
//! ```
//! use linear_dft::core::{bounds, FewCrashesConsensus, SystemConfig};
//! use linear_dft::sim::{check, RandomCrashes, Runner};
//!
//! let n = 50;
//! let t = 6;
//! let config = SystemConfig::new(n, t).unwrap();
//! let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
//! let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
//! let rounds = nodes[0].total_rounds();
//! let mut runner =
//!     Runner::with_adversary(nodes, Box::new(RandomCrashes::new(n, t, 20, 1)), t).unwrap();
//! let report = runner.run(rounds + 2);
//! assert_eq!(check(&report, &bounds::few_crashes(&config, &inputs)), Ok(()));
//! ```

#![warn(missing_docs)]

pub use dft_auth as auth;
pub use dft_baselines as baselines;
pub use dft_core as core;
pub use dft_overlay as overlay;
pub use dft_sim as sim;
