//! # dft-sim — synchronous message-passing network simulator
//!
//! The substrate beneath the `linear-dft` reproduction of *Deterministic
//! Fault-Tolerant Distributed Computing in Linear Time and Communication*
//! (Chlebus, Kowalski, Olkowski, PODC 2023).  The paper assumes a synchronous
//! complete network of `n` nodes prone to crash or authenticated-Byzantine
//! failures, in either the multi-port or the single-port communication model
//! (Section 2); this crate provides that execution environment:
//!
//! * [`SyncProtocol`] / [`Runner`] — the multi-port model: in each round a
//!   node may send to any set of nodes and receives everything addressed to
//!   it in that round.
//! * [`SinglePortProtocol`] / [`SinglePortRunner`] — the single-port model of
//!   Section 8: one send and one buffered-port poll per node per round.
//! * [`CrashAdversary`] and concrete schedules — crash fault injection
//!   limited by the fault budget `t`.  The oblivious ones ([`NoFaults`],
//!   [`FixedCrashSchedule`], [`RandomCrashes`], [`TargetedCrashes`]) never
//!   read the round's intents and run on every runner; the adaptive
//!   [`AdaptiveSplitAdversary`] reads every node's intents, so only
//!   [`Runner`] and [`SinglePortRunner`], which hold the whole round, run it.
//! * [`adversary::byzantine`] — Byzantine node strategies for the
//!   authenticated-Byzantine model of Section 7.
//! * [`Metrics`] / [`ExecutionReport`] — the paper's performance accounting:
//!   rounds until all non-faulty nodes halt, point-to-point messages and the
//!   total bits they carry, counting only non-faulty senders in the Byzantine
//!   model.
//! * [`RoundCore`] / [`SinglePortCore`] — the sans-I/O round cores (the
//!   private `driver` module): what one round does to one chunk of nodes
//!   (a single-port core keeps its nodes' in-ports too), as pure state
//!   transitions, with no knowledge of threads, pipes, or sockets.
//! * [`Coordinator`] — the one round loop of both models: everything
//!   order-sensitive across chunks (the central crash phase, the counts and
//!   the event replay in node order), generic over a *host* that only
//!   decides where the chunks live.  [`Runner`], [`SinglePortRunner`],
//!   [`shard::ShardedRunner`] and [`shard::SpShardedRunner`] are type
//!   aliases that pick a host, so every one of them is byte-identical to
//!   the serial run by construction of the one loop they share.
//! * [`shard`] — the framed host: one execution's chunks served by shard
//!   workers (threads of the runner's own) behind a versioned binary wire
//!   format; a transport or frame failure ends the run with a structured
//!   error.
//! * [`available_jobs`] — the default for a harness's experiment fan-out
//!   (the contiguous node partition the shards are cut by lives beside it,
//!   in the private `parallel` module).  An in-process execution itself is
//!   one thread.
//!
//! # Quick example
//!
//! ```
//! use dft_sim::{
//!     check, CrashDirective, Delivered, FixedCrashSchedule, NodeId, Outgoing, Round, Runner,
//!     Spec, SyncProtocol,
//! };
//!
//! /// Every node broadcasts the OR of everything it has seen, then decides
//! /// after three rounds.
//! struct FloodOr {
//!     n: usize,
//!     value: bool,
//!     rounds: u64,
//!     decided: Option<bool>,
//! }
//!
//! impl SyncProtocol for FloodOr {
//!     type Msg = bool;
//!     type Output = bool;
//!
//!     fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
//!         out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
//!     }
//!
//!     fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
//!         for m in inbox {
//!             self.value |= m.msg;
//!         }
//!         self.rounds += 1;
//!         if self.rounds == 3 {
//!             self.decided = Some(self.value);
//!         }
//!     }
//!
//!     fn output(&self) -> Option<bool> {
//!         self.decided
//!     }
//!
//!     fn has_halted(&self) -> bool {
//!         self.decided.is_some()
//!     }
//! }
//!
//! let n = 8;
//! let nodes: Vec<FloodOr> = (0..n)
//!     .map(|i| FloodOr { n, value: i == 0, rounds: 0, decided: None })
//!     .collect();
//! let schedule = FixedCrashSchedule::new().crash_at(1, CrashDirective::silent(NodeId::new(2)));
//! let mut runner = Runner::with_adversary(nodes, Box::new(schedule), 1).unwrap();
//! let report = runner.run(10);
//! assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
//! ```

#![warn(missing_docs)]

#[cfg(test)]
#[path = "tests/activity.rs"]
mod activity;
pub mod adversary;
#[cfg(test)]
#[path = "tests/conformance.rs"]
mod conformance;
mod coordinator;
mod delivery;
mod driver;
mod error;
mod message;
mod metrics;
mod node;
mod parallel;
mod protocol;
mod report;
mod round;
mod runner;
pub mod shard;
mod single_port;
mod trace;

pub use adversary::{
    AdaptiveSplitAdversary, AdversaryView, CrashAdversary, CrashDirective, DeliveryFilter,
    FixedCrashSchedule, NoFaults, RandomCrashes, TargetedCrashes,
};
pub use coordinator::Coordinator;
pub use driver::{NodeEvent, RoundCore, RoundOutcome, SinglePortCore};
pub use error::{SimError, SimResult};
pub use message::{Delivered, Outgoing, Payload};
pub use metrics::Metrics;
pub use node::{NodeId, NodeSet};
pub use parallel::available_jobs;
pub use protocol::{IdlePolls, NodeStatus, SinglePortProtocol, SyncProtocol};
pub use report::{check, Bound, Cost, ExecutionReport, Spec, Termination, Violation};
pub use round::Round;
pub use runner::{run_with_crashes, Participant, Runner};
pub use single_port::SinglePortRunner;
pub use trace::{Event, Trace};
