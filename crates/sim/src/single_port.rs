//! The single-port synchronous runner (Section 8 of the paper).
//!
//! In the single-port model a node may choose only one other node to send a
//! message to in a round, and may retrieve buffered messages from only one of
//! its in-ports per round.  A node gets no signal that a port holds pending
//! messages; it must decide which port to poll blindly.  Messages sent to a
//! port are buffered until polled.
//!
//! [`SinglePortRunner`] is a configuration, not a loop: the round of
//! [`crate::coordinator`] over the in-process host, which is one sans-I/O
//! [`SinglePortCore`] of [`crate::driver`] owning every node and its sparse
//! in-ports (so a runner over `n` nodes costs `O(n + live messages)`
//! memory), called directly on the caller's thread.  This module holds the
//! constructors; the host is `crate::runner`'s, the same for both models.

use crate::adversary::{CrashAdversary, NoFaults};
use crate::coordinator::Coordinator;
use crate::driver::SinglePortCore;
use crate::error::SimResult;
use crate::node::NodeSet;
use crate::protocol::SinglePortProtocol;

/// Single-port synchronous runner.
///
/// Messages addressed to nodes that have crashed **or halted** are dropped
/// instead of buffered (the send is still counted): a halted node never
/// polls again, so buffering onto its ports could only leak memory.  This
/// matches the multi-port `Runner`'s halted-destination rule.
///
/// # Examples
///
/// ```
/// use dft_sim::{check, NodeId, Outgoing, Round, SinglePortProtocol, SinglePortRunner, Spec};
///
/// /// Node 0 sends its value to node 1 in round 0; node 1 polls port 0 in
/// /// round 1 and decides on what it finds.
/// struct Relay {
///     me: usize,
///     value: bool,
///     decided: Option<bool>,
/// }
///
/// impl SinglePortProtocol for Relay {
///     type Msg = bool;
///     type Output = bool;
///
///     fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
///         (self.me == 0 && round.as_u64() == 0).then(|| Outgoing::new(NodeId::new(1), self.value))
///     }
///
///     fn poll(&mut self, round: Round) -> Option<NodeId> {
///         (self.me == 1 && round.as_u64() == 1).then(|| NodeId::new(0))
///     }
///
///     fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
///         if let Some(&v) = msgs.first() {
///             self.decided = Some(v);
///         }
///     }
///
///     fn output(&self) -> Option<bool> {
///         self.decided.or(if self.me == 0 { Some(self.value) } else { None })
///     }
///
///     fn has_halted(&self) -> bool {
///         self.output().is_some()
///     }
/// }
///
/// let nodes = vec![
///     Relay { me: 0, value: true, decided: None },
///     Relay { me: 1, value: false, decided: None },
/// ];
/// let mut runner = SinglePortRunner::new(nodes).unwrap();
/// let report = runner.run(5);
/// assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
/// ```
pub type SinglePortRunner<P> = Coordinator<SinglePortCore<P>>;

impl<P: SinglePortProtocol> SinglePortRunner<P> {
    /// Creates a fault-free single-port runner.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::EmptySystem`] if `nodes` is empty.
    pub fn new(nodes: Vec<P>) -> SimResult<Self> {
        Self::with_adversary(nodes, Box::new(NoFaults), 0)
    }

    /// Creates a single-port runner with a crash adversary limited to
    /// `fault_budget` crashes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::EmptySystem`] if `nodes` is empty, or
    /// [`crate::SimError::InvalidConfig`] if the budget is not smaller than
    /// the number of nodes.
    pub fn with_adversary(
        nodes: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let n = nodes.len();
        let central = Self::central(n, NodeSet::empty(n), adversary, fault_budget)?;
        Ok(Coordinator::assemble(
            central,
            SinglePortCore::new(0, nodes),
        ))
    }

    /// Node-rounds in which a node was called, so far (see
    /// [`SinglePortCore::active_node_rounds`]).  An idle poll the core
    /// answers itself, because the port was empty, is not a call
    /// ([`SinglePortProtocol::idle_polls`]).  A diagnostic of the
    /// in-process runner: it is not part of the report and no table may
    /// depend on it.
    pub fn active_node_rounds(&self) -> u64 {
        self.host.active_node_rounds()
    }

    /// Planned idle polls answered without a call, so far (see
    /// [`SinglePortCore::answered_idle_polls`]).  A diagnostic, like
    /// [`SinglePortRunner::active_node_rounds`].
    pub fn answered_idle_polls(&self) -> u64 {
        self.host.answered_idle_polls()
    }

    /// Polled ports that held messages, so far (see
    /// [`SinglePortCore::full_ports_drained`]).  A diagnostic, like
    /// [`SinglePortRunner::active_node_rounds`].
    pub fn full_ports_drained(&self) -> u64 {
        self.host.full_ports_drained()
    }

    /// Total sent-but-not-yet-polled messages currently buffered on ports.
    /// With [`SinglePortRunner::ports_in_use`] this is the engine's memory
    /// footprint: both are `O(live messages)`, never `O(n²)`.
    pub fn buffered_messages(&self) -> usize {
        self.host.buffered_messages()
    }

    /// Number of ports currently buffering at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.host.ports_in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdaptiveSplitAdversary, CrashDirective, FixedCrashSchedule};
    use crate::message::Outgoing;
    use crate::node::NodeId;
    use crate::report::{check, Spec, Termination};
    use crate::round::Round;
    use crate::SimError;

    /// A round-robin token ring: node i sends its accumulated OR to node
    /// (i+1) mod n in round i, and polls port (i-1) mod n in every round.
    struct Ring {
        me: usize,
        n: usize,
        value: bool,
        decided: Option<bool>,
        rounds: u64,
    }

    impl SinglePortProtocol for Ring {
        type Msg = bool;
        type Output = bool;

        fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
            Some(Outgoing::new(
                NodeId::new((self.me + 1) % self.n),
                self.value,
            ))
        }

        fn poll(&mut self, _round: Round) -> Option<NodeId> {
            Some(NodeId::new((self.me + self.n - 1) % self.n))
        }

        fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
            for m in msgs.drain(..) {
                self.value |= m;
            }
        }

        fn output(&self) -> Option<bool> {
            self.decided
        }

        fn has_halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    impl Ring {
        fn tick(&mut self) {
            self.rounds += 1;
        }
    }

    /// Wrapper that decides after 2n rounds.
    struct RingUntil(Ring);

    impl SinglePortProtocol for RingUntil {
        type Msg = bool;
        type Output = bool;

        fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
            self.0.send(round)
        }

        fn poll(&mut self, round: Round) -> Option<NodeId> {
            self.0.poll(round)
        }

        fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<bool>) {
            self.0.receive(round, from, msgs);
            self.0.tick();
            if self.0.rounds >= 2 * self.0.n as u64 {
                self.0.decided = Some(self.0.value);
            }
        }

        fn output(&self) -> Option<bool> {
            self.0.output()
        }

        fn has_halted(&self) -> bool {
            self.0.has_halted()
        }
    }

    fn ring(n: usize, one_at: usize) -> Vec<RingUntil> {
        (0..n)
            .map(|i| {
                RingUntil(Ring {
                    me: i,
                    n,
                    value: i == one_at,
                    decided: None,
                    rounds: 0,
                })
            })
            .collect()
    }

    #[test]
    fn rejects_empty_system() {
        let nodes: Vec<RingUntil> = Vec::new();
        assert!(matches!(
            SinglePortRunner::new(nodes),
            Err(SimError::EmptySystem)
        ));
    }

    #[test]
    fn ring_propagates_value_one_hop_per_round() {
        let n = 6;
        let mut runner = SinglePortRunner::new(ring(n, 0)).unwrap();
        let report = runner.run(3 * n as u64);
        assert_eq!(check(&report, &Spec::consensus(&[true])), Ok(()));
        // Each node sends exactly one message per round.
        assert_eq!(report.metrics.peak_messages_in_a_round(), n as u64);
    }

    /// A finished execution runs no further round: running it again, for
    /// any number of rounds, returns the first report.
    #[test]
    fn a_finished_run_runs_again_unchanged() {
        let n = 5;
        let mut runner = SinglePortRunner::new(ring(n, 2)).unwrap();
        let first = runner.run(3 * n as u64);
        assert_eq!(first.termination, Termination::AllHalted);
        assert_eq!(first.metrics.rounds, 2 * n as u64);
        assert_eq!(runner.run(3 * n as u64), first);
        assert_eq!(runner.run(0), first);
    }

    #[test]
    fn ports_buffer_until_polled() {
        // A node that never polls never sees the message, but the message is
        // still counted as sent.
        struct SendOnly {
            me: usize,
            done: bool,
        }
        impl SinglePortProtocol for SendOnly {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
                (self.me == 0 && round.as_u64() == 0).then(|| Outgoing::new(NodeId::new(1), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                self.done.then_some(false)
            }
            fn has_halted(&self) -> bool {
                self.done
            }
        }
        let nodes = vec![
            SendOnly { me: 0, done: false },
            SendOnly { me: 1, done: false },
        ];
        let mut runner = SinglePortRunner::new(nodes).unwrap();
        let report = runner.run(3);
        assert_eq!(report.metrics.messages, 1);
        assert_eq!(runner.buffered_messages(), 1, "unpolled message buffered");
        assert_eq!(runner.ports_in_use(), 1);
        assert_eq!(report.termination, Termination::RoundLimit);
    }

    #[test]
    fn adaptive_split_adversary_isolates_a_node() {
        let n = 8;
        let t = 6;
        let adversary = AdaptiveSplitAdversary::new(NodeId::new(0));
        let mut runner =
            SinglePortRunner::with_adversary(ring(n, 0), Box::new(adversary), t).unwrap();
        let report = runner.run(3 * n as u64);
        // Node 0's neighbours get crashed, so the `true` held by node 0 cannot
        // spread to everyone; the nodes far from 0 decide `false`.
        let crashed = report.crashed();
        assert!(crashed.len() <= t);
        assert!(!crashed.is_empty());
        let zero_output = report.output_of(NodeId::new(0));
        // Node 0 remains operational (the adversary crashes its neighbours,
        // not node 0 itself).
        assert!(report.non_faulty().contains(NodeId::new(0)));
        assert_eq!(zero_output, Some(&true));
    }

    /// Regression test for the halted-destination rule: the seed engine kept
    /// buffering messages onto halted nodes' ports (only crashed
    /// destinations were dropped), which leaks memory at scale — a halted
    /// node can never poll.  Both runners now drop such messages while still
    /// counting them against the sender.
    #[test]
    fn messages_to_halted_nodes_are_counted_but_not_buffered() {
        /// Node 1 halts in round 0; node 0 keeps sending to node 1 forever.
        struct Pesterer {
            me: usize,
        }
        impl SinglePortProtocol for Pesterer {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
                (self.me == 0).then(|| Outgoing::new(NodeId::new(1), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                (self.me == 1).then_some(true)
            }
            fn has_halted(&self) -> bool {
                self.me == 1
            }
        }
        let nodes = vec![Pesterer { me: 0 }, Pesterer { me: 1 }];
        let mut runner = SinglePortRunner::new(nodes).unwrap();
        // Round 0: node 1 still runs, so node 0's first message is buffered;
        // node 1 halts at the end of the round and its ports are dropped.
        runner.step();
        assert_eq!(runner.run(0).halted_at[1], Some(Round::new(0)));
        assert_eq!(runner.buffered_messages(), 0, "halted ports freed");
        // Rounds 1..: messages to the halted node are counted, not buffered.
        for _ in 0..4 {
            runner.step();
        }
        assert_eq!(runner.metrics().messages, 5, "every send is counted");
        assert_eq!(runner.buffered_messages(), 0);
        assert_eq!(runner.ports_in_use(), 0);
    }

    /// Nodes 0 and 3 send to nodes that cannot take a message.  In round
    /// 0, node 0 sends to index n, which does not exist, and node 3 to node
    /// 1, which crashes silently that round; node 2 halts.  In round 1,
    /// node 0 sends to the halted node 2, and node 3 to node 0, which polls
    /// its port.  Each node halts with the number of messages it got as its
    /// output.
    struct Misaddressed {
        me: usize,
        n: usize,
        round: u64,
        received: u64,
    }

    impl SinglePortProtocol for Misaddressed {
        type Msg = bool;
        type Output = u64;

        fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
            self.round = round.as_u64();
            let to = match (self.me, self.round) {
                (0, 0) => self.n,
                (3, 0) => 1,
                (0, 1) => 2,
                (3, 1) => 0,
                _ => return None,
            };
            Some(Outgoing::new(NodeId::new(to), true))
        }

        fn poll(&mut self, round: Round) -> Option<NodeId> {
            (self.me == 0 && round.as_u64() == 1).then(|| NodeId::new(3))
        }

        fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
            self.received += msgs.len() as u64;
        }

        fn output(&self) -> Option<u64> {
            self.has_halted().then_some(self.received)
        }

        fn has_halted(&self) -> bool {
            self.me == 2 || self.round >= 1
        }
    }

    /// A message to a node that does not exist, to one crashed this round
    /// and to one halted is counted against its sender and dropped, never
    /// buffered, and the serial host agrees with the sharded one.  Over
    /// two shards (nodes 0–1 and 2–3) node 3's message to the crashing
    /// node 1 and node 0's to the halted node 2 cross to the other chunk,
    /// so the receiving worker's core is the only place that drops them.
    #[test]
    fn misaddressed_messages_are_counted_and_dropped_by_every_single_port_host() {
        let n = 4;
        let nodes = || {
            (0..n)
                .map(|me| Misaddressed {
                    me,
                    n,
                    round: 0,
                    received: 0,
                })
                .collect::<Vec<_>>()
        };
        let crash = || {
            let crash = CrashDirective::silent(NodeId::new(1));
            Box::new(FixedCrashSchedule::new().crash_at(0, crash))
        };
        let mut runner = SinglePortRunner::with_adversary(nodes(), crash(), 1).unwrap();
        let serial = runner.run(5);
        let sharded = crate::shard::SpShardedRunner::in_process(nodes(), crash(), 1, 2)
            .unwrap()
            .run(5)
            .unwrap();
        assert_eq!(serial.termination, Termination::AllHalted);
        assert_eq!(serial.metrics.messages, 4, "all four sends are counted");
        assert_eq!(serial.crashed_at[1], Some(Round::new(0)));
        assert_eq!(serial.halted_at[2], Some(Round::new(0)));
        let received = [0, 2, 3].map(|i| serial.output_of(NodeId::new(i)).copied());
        assert_eq!(received, [Some(1), Some(0), Some(0)], "only node 0 got one");
        assert_eq!(runner.buffered_messages(), 0, "nothing left on a port");
        assert_eq!(serial, sharded);
    }

    #[test]
    fn crashed_destination_ports_are_freed() {
        /// Node 0 sends to node 2 every round; node 2 never polls, so its
        /// port from node 0 accumulates messages until node 2 crashes.
        struct Pester;
        impl SinglePortProtocol for Pester {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
                Some(Outgoing::new(NodeId::new(2), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                None
            }
            fn has_halted(&self) -> bool {
                false
            }
        }
        let adversary =
            FixedCrashSchedule::new().crash_at(2, CrashDirective::silent(NodeId::new(2)));
        let nodes = vec![Pester, Pester, Pester];
        let mut runner = SinglePortRunner::with_adversary(nodes, Box::new(adversary), 1).unwrap();
        runner.step();
        runner.step();
        // Two rounds of three senders each, all addressed to node 2.
        assert_eq!(runner.buffered_messages(), 6);
        // Round 2: node 2 crashes before delivery; its buffered ports are
        // dropped and this round's sends to it are skipped at push time.
        runner.step();
        assert_eq!(runner.run(0).crashed_at[2], Some(Round::new(2)));
        assert_eq!(runner.buffered_messages(), 0, "crash freed node 2's ports");
        assert_eq!(runner.ports_in_use(), 0);
        assert_eq!(runner.metrics().messages, 8, "sends still counted");
    }
}
