//! The mesh host: one node's round core with a framed link to every peer.
//!
//! A [`MeshRunner`] is the round of `crate::coordinator`, run by
//! every node of a mesh for itself over a [`Mesh`] host: one single-node
//! [`RoundCore`] and one [`ShardTransport`] per peer, which the caller brings
//! (`dft-node` brings TCP sockets, the tests channels).  No process is
//! central, so each node runs the crash phase itself.  No node holds the
//! round's intents either, so the adversary must be oblivious
//! ([`CrashAdversary::oblivious`], as [`crate::RandomCrashes`] is: it plans
//! from the seed and the round alone) and the same on every node; then
//! every node's coordinator passes the same crash list.
//! [`MeshRunner::connect`] refuses an adaptive one.
//!
//! Each round a node sends one `ROUND` frame to every peer still taking
//! part (a sync marker even when empty), then reads one frame from every
//! peer still owing one and hands its core the messages in ascending sender
//! order, as the serial core takes them; the core's `accept` drops what its
//! node may no longer take.  A peer owes a round-`r` frame unless it
//! said `GOODBYE` (it halted), was suspected, or crashed before `r`.  All
//! sends precede all reads, so a buffering transport cannot deadlock.
//!
//! A peer that misses `MAX_READ_MISSES` read deadlines on one frame, or
//! whose link reports EOF, reset, abort or a broken pipe, is **suspected**
//! ([`Suspicion`]): from then on it is treated exactly like a peer crashed
//! in that round with an empty delivery filter.  Any other failure (a frame
//! that does not open or decode, a forged sender, an unknown tag) is the
//! run's [`SimError::Shard`], whose `shard` is the peer's node index.

use std::io;

use super::{frame, open_frame, ShardTransport, Wire};
use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::coordinator::{Coordinator, Host, Staged};
use crate::driver::{ChunkCore, NodeEvent, RoundCore};
use crate::error::{ShardError, SimError, SimResult};
use crate::message::Delivered;
use crate::node::{NodeId, NodeSet};
use crate::protocol::SyncProtocol;
use crate::round::Round;
use crate::runner::Participant;

/// Frame tags of the node-to-node protocol, disjoint from the shard tags so
/// a misdirected frame fails loudly.  `HELLO` names the node that dialled.
pub const TAG_HELLO: u8 = 110;
/// One round's messages from the link's node: the round, then the messages.
const TAG_ROUND: u8 = 111;
/// The link's node halted in the round the frame carries.
const TAG_GOODBYE: u8 = 112;

/// Consecutive read deadlines missed on one expected frame before the peer
/// is suspected.  EOF, reset, abort and broken pipe suspect at once.
const MAX_READ_MISSES: u32 = 2;

/// A peer this node stopped expecting frames from without being told.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suspicion {
    /// The peer's node index.
    pub node: usize,
    /// The round whose frame never came.
    pub round: Round,
    /// What its link did instead.
    pub cause: String,
}

/// The mesh host: this node's single-node core and its links, indexed by
/// peer (its own slot, and the slot of every peer it no longer exchanges
/// frames with, is `None`).
pub struct Mesh<P: SyncProtocol> {
    core: RoundCore<P>,
    links: Vec<Option<Box<dyn ShardTransport>>>,
    suspicions: Vec<Suspicion>,
}

/// One node of a mesh: the round of `crate::coordinator` over the
/// [`Mesh`] host, multi-port.  Its report speaks for this node alone: its output,
/// halt and message counts, next to the crash list every node derives.
pub type MeshRunner<P> = Coordinator<Mesh<P>>;

impl<P: SyncProtocol<Msg: Wire>> MeshRunner<P> {
    /// Node `me` of a mesh of `links.len() + 1` nodes, reaching its peers
    /// through `links` in ascending node order.  `adversary` and
    /// `fault_budget` must be the same on every node.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `me` is not a node of the mesh, the
    /// budget is not smaller than the number of nodes or the adversary is
    /// not [oblivious](CrashAdversary::oblivious) — before any link is
    /// used.
    pub fn connect(
        participant: Participant<P>,
        me: usize,
        links: Vec<Box<dyn ShardTransport>>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let n = links.len() + 1;
        if me >= n {
            return Err(SimError::InvalidConfig(format!(
                "node {me} is not in a mesh of {n} nodes"
            )));
        }
        let byzantine = participant.is_byzantine().then_some(NodeId::new(me));
        let central = Self::central(n, NodeSet::from_iter(n, byzantine), adversary, fault_budget)?;
        let mut links: Vec<_> = links.into_iter().map(Some).collect();
        links.insert(me, None);
        let host = Mesh {
            core: RoundCore::new(me, vec![participant]),
            links,
            suspicions: Vec::new(),
        };
        Ok(Coordinator::assemble(central, host))
    }

    /// The peers this node suspected so far, in the order it did.
    pub fn suspicions(&self) -> &[Suspicion] {
        &self.host.suspicions
    }
}

/// A failure the mesh cannot absorb, on the link to peer `p`.
fn broken(p: usize, round: Round, tag: Option<u8>, detail: String) -> SimError {
    let mut err = ShardError::new(p, detail).with_round(round.as_u64());
    err.frame_tag = tag;
    SimError::Shard(err)
}

/// Reads the next frame from a peer, allowing [`MAX_READ_MISSES`] read
/// deadlines; `Ok(Err(cause))` means the peer is to be suspected.
fn next_frame(
    link: &mut dyn ShardTransport,
    p: usize,
    round: Round,
) -> SimResult<Result<Vec<u8>, String>> {
    use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    use io::ErrorKind::{TimedOut, UnexpectedEof, WouldBlock};
    for _ in 0..MAX_READ_MISSES {
        let err = match link.recv() {
            Ok(buf) => return Ok(Ok(buf)),
            Err(err) => err,
        };
        match err.kind() {
            // Unix reports a timed-out read as WouldBlock.
            TimedOut | WouldBlock => {}
            UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => {
                return Ok(Err(format!("its link is gone: {err}")));
            }
            _ => return Err(broken(p, round, None, format!("reading a frame: {err}"))),
        }
    }
    Ok(Err(format!("it missed {MAX_READ_MISSES} read deadlines")))
}

/// Opens the frame that arrived on the link to peer `p` during `round`:
/// its messages, or `None` for a `GOODBYE`.  In the paper's model the link
/// *is* the sender's identity, so a `ROUND` body is refused unless it is for
/// this round, has no trailing bytes, and every message in it names `p` as
/// its sender — a forged `from` would otherwise pass for another node's
/// message (or, out of range, index a protocol's per-sender state).
fn round_body<M: Wire>(p: usize, round: Round, buf: &[u8]) -> SimResult<Option<Vec<Delivered<M>>>> {
    let (tag, mut reader) =
        open_frame(buf).map_err(|err| broken(p, round, None, format!("bad frame: {err}")))?;
    let fail = |detail: String| broken(p, round, Some(tag), detail);
    match tag {
        TAG_ROUND => {}
        TAG_GOODBYE => return Ok(None),
        other => return Err(fail(format!("unexpected tag {other} from node {p}"))),
    }
    let (sent_round, msgs): (Round, Vec<Delivered<M>>) = Wire::decode(&mut reader)
        .map_err(|err| fail(format!("bad round body from node {p}: {err}")))?;
    if !reader.is_empty() {
        return Err(fail(format!("trailing bytes in round frame from node {p}")));
    }
    if sent_round != round {
        return Err(fail(format!(
            "node {p} sent a round-{} frame during round {}",
            sent_round.as_u64(),
            round.as_u64()
        )));
    }
    if let Some(forged) = msgs.iter().find(|msg| msg.from.index() != p) {
        return Err(fail(format!(
            "node {p} sent a message claiming node {} as its sender",
            forged.from.index()
        )));
    }
    Ok(Some(msgs))
}

impl<P: SyncProtocol<Msg: Wire>> Mesh<P> {
    /// One round of the lock step for a node still taking part: sends its
    /// staged messages, then (unless it is crashing now) reads a frame from
    /// every peer owing one, and hands its core what it receives, its own
    /// messages to itself included, in ascending sender order.
    fn exchange(&mut self, round: Round, crashed: &[(usize, DeliveryFilter)]) -> SimResult<()> {
        let me = self.core.base();
        // Per destination; one addressed past the last node is counted and
        // dropped.
        let mut mail: Vec<Vec<Delivered<P::Msg>>> = self.links.iter().map(|_| Vec::new()).collect();
        for (dest, msg) in self.core.delivered.drain(..) {
            if let Some(list) = mail.get_mut(dest) {
                list.push(msg);
            }
        }
        let crashing = |p: usize| crashed.iter().any(|(victim, _)| *victim == p);
        // A peer crashing now never receives again.  A send to a peer that
        // just died may fail: the read below is what confirms the death, and
        // the send was counted already, as the serial run counts sends to a
        // crashed destination.
        for (p, (slot, msgs)) in self.links.iter_mut().zip(&mut mail).enumerate() {
            if let Some(link) = slot.as_mut().filter(|_| !crashing(p)) {
                let mut buf = frame(TAG_ROUND);
                (round, std::mem::take(msgs)).encode(&mut buf);
                let _ = link.send(&buf);
            }
        }
        if crashing(me) {
            // A crashed node never receives.
            return Ok(());
        }
        for (p, (slot, own)) in self.links.iter_mut().zip(mail).enumerate() {
            let msgs = match slot {
                None if p == me => own,
                None => continue,
                Some(link) => match next_frame(link.as_mut(), p, round)? {
                    Ok(buf) => match round_body(p, round, &buf)? {
                        Some(msgs) => msgs,
                        None => {
                            *slot = None;
                            continue;
                        }
                    },
                    Err(cause) => {
                        *slot = None;
                        let node = p;
                        self.suspicions.push(Suspicion { node, round, cause });
                        continue;
                    }
                },
            };
            if crashing(p) {
                *slot = None;
            }
            for msg in msgs {
                self.core.accept(0, msg);
            }
        }
        Ok(())
    }
}

impl<P: SyncProtocol<Msg: Wire>> Host for Mesh<P> {
    type Output = P::Output;
    type Error = SimError;
    type Outcome<T> = SimResult<T>;

    const SHOWS_INTENTS: bool = false;

    fn outcome<T>(result: SimResult<T>) -> SimResult<T> {
        result
    }

    /// This node's output; a peer's is the peer's to report.
    fn output(&self, node: usize) -> Option<&P::Output> {
        self.core.output(0).filter(|_| node == self.core.base())
    }

    /// Only this node's halts are replayed here: the core reports no other.
    fn set_halted(&mut self, _node: usize) {
        self.core.set_halted(0);
    }

    fn begin_round(&mut self, round: Round) -> SimResult<()> {
        self.core.begin_round(round);
        Ok(())
    }

    /// Runs the round's exchange, which hands this node's core what it
    /// receives, and reports the node's counts as the one chunk.
    fn deliver(&mut self, round: Round, crashed: &[(usize, DeliveryFilter)]) -> SimResult<Staged> {
        let me = self.core.base();
        // A node that halted or crashed before this round has left the lock
        // step: its peers were told (GOODBYE) or derived it themselves.
        let exchanging = self.core.status(0).is_running();
        let own_crash = crashed.iter().find(|(victim, _)| *victim == me).cloned();
        if own_crash.is_some() {
            self.core.set_crashed(0, round);
        }
        let counts = ChunkCore::deliver(&mut self.core, own_crash.as_slice());
        if exchanging {
            self.exchange(round, crashed)?;
        }
        Ok(counts)
    }

    /// On a halt, tells every peer still in the lock step.
    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> SimResult<()> {
        let outcome = self.core.finalize(round);
        events.extend_from_slice(outcome.events);
        if outcome.events.iter().any(|event| event.halted) {
            let mut goodbye = frame(TAG_GOODBYE);
            round.encode(&mut goodbye);
            // A peer that is gone has nothing left to release.
            for link in self.links.iter_mut().flatten() {
                let _ = link.send(&goodbye);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashDirective, FixedCrashSchedule};
    use crate::conformance::{crash_schedule, flood_participants};
    use crate::report::ExecutionReport;
    use crate::runner::Runner;
    use crate::shard::ChannelTransport;

    /// The conformance workload's size: node 0 Byzantine, three crashes.
    const N: usize = 9;

    fn serial(adversary: FixedCrashSchedule, budget: usize) -> ExecutionReport<bool> {
        let participants = flood_participants(N);
        let runner = Runner::with_participants(participants, Box::new(adversary), budget);
        runner.unwrap().run(10)
    }

    /// Runs node `i` of an `N`-node channel mesh for `rounds(i)` rounds on a
    /// thread of its own, then drops its runner and with it its links;
    /// returns every node's report and suspicions.
    #[expect(
        clippy::disallowed_methods,
        reason = "a mesh node is a process of its own: each runs on its own thread here"
    )]
    fn run_mesh(rounds: impl Fn(usize) -> u64) -> Vec<(ExecutionReport<bool>, Vec<Suspicion>)> {
        let mut links: Vec<Vec<Box<dyn ShardTransport>>> = (0..N).map(|_| Vec::new()).collect();
        for i in 0..N {
            for j in i + 1..N {
                let (a, b) = ChannelTransport::pair();
                links[i].push(Box::new(a));
                links[j].push(Box::new(b));
            }
        }
        // Node i's links to the nodes below it arrived first, in order.
        let nodes = flood_participants(N).into_iter().zip(links).enumerate();
        let handles: Vec<_> = nodes
            .map(|(me, (participant, links))| {
                let rounds = rounds(me);
                std::thread::spawn(move || {
                    let adversary = Box::new(crash_schedule(N));
                    let mut runner =
                        MeshRunner::connect(participant, me, links, adversary, 3).expect("connect");
                    let report = runner.run(rounds).expect("mesh run");
                    (report, runner.suspicions().to_vec())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Node by node the mesh reports `serial`'s output, crash and halt for
    /// each of `nodes`; summed, its message, bit and Byzantine counts.
    fn assert_matches(
        serial: &ExecutionReport<bool>,
        mesh: &[(ExecutionReport<bool>, Vec<Suspicion>)],
        nodes: impl Iterator<Item = usize>,
    ) {
        for i in nodes {
            let own = &mesh[i].0;
            assert_eq!(own.outputs[i], serial.outputs[i], "output of node {i}");
            assert_eq!(own.crashed_at[i], serial.crashed_at[i], "crash of node {i}");
            assert_eq!(own.halted_at[i], serial.halted_at[i], "halt of node {i}");
        }
        let sum = |count: fn(&ExecutionReport<bool>) -> u64| -> u64 {
            mesh.iter().map(|(report, _)| count(report)).sum()
        };
        assert_eq!(sum(|r| r.metrics.messages), serial.metrics.messages);
        assert_eq!(sum(|r| r.metrics.bits), serial.metrics.bits);
        let byzantine = sum(|r| r.metrics.byzantine_messages);
        assert_eq!(byzantine, serial.metrics.byzantine_messages);
    }

    #[test]
    fn a_channel_mesh_reproduces_the_serial_run() {
        let serial = serial(crash_schedule(N), 3);
        assert_eq!(serial.metrics.crashes, 3);
        assert!(serial.metrics.byzantine_messages > 0);
        let mesh = run_mesh(|_| serial.metrics.rounds);
        assert_matches(&serial, &mesh, 0..N);
        assert!(mesh.iter().all(|(_, suspicions)| suspicions.is_empty()));
    }

    /// Node 2 stops after round 0 and its links close: every node still
    /// reading in round 1 suspects it there, and the survivors end as the
    /// serial run with one more silent crash, of node 2 at round 1, does.
    #[test]
    fn a_node_that_leaves_is_suspected_like_a_silent_crash() {
        let (victim, k) = (2, 1);
        let crash = CrashDirective::silent(NodeId::new(victim));
        let serial = serial(crash_schedule(N).crash_at(k, crash), 4);
        assert_eq!(serial.crashed_at[victim], Some(Round::new(k)));
        let mesh = run_mesh(|me| {
            if me == victim {
                k
            } else {
                serial.metrics.rounds
            }
        });
        assert_matches(&serial, &mesh, (0..N).filter(|&i| i != victim));
        for (i, (_, suspicions)) in mesh.iter().enumerate() {
            let reads_in_round_k =
                i != victim && serial.crashed_at[i].is_none_or(|at| at.as_u64() > k);
            let expected: &[(usize, u64)] = if reads_in_round_k {
                &[(victim, k)]
            } else {
                &[]
            };
            let got: Vec<(usize, u64)> = suspicions
                .iter()
                .map(|s| (s.node, s.round.as_u64()))
                .collect();
            assert_eq!(got, expected, "node {i}");
        }
    }

    #[test]
    fn round_frames_must_name_their_link_as_the_sender() {
        let round = Round::new(4);
        let body_of = |sent: Round, from: usize| {
            let mut buf = frame(TAG_ROUND);
            (sent, vec![Delivered::new(NodeId::new(from), true)]).encode(&mut buf);
            buf
        };
        let read = |buf: &[u8]| round_body::<bool>(1, round, buf).map_err(|err| err.to_string());
        assert_eq!(
            read(&body_of(round, 1)),
            Ok(Some(vec![Delivered::new(NodeId::new(1), true)]))
        );
        // Another node's identity, or one outside the system, on link 1.
        for forged in [0, 2, usize::MAX] {
            let err = read(&body_of(round, forged)).expect_err("forged sender");
            assert!(err.contains("as its sender"), "{err}");
        }
        let err = read(&body_of(Round::new(3), 1)).expect_err("wrong round");
        assert!(err.contains("round-3 frame during round 4"), "{err}");
        let mut trailing = body_of(round, 1);
        trailing.push(0);
        assert!(read(&trailing).is_err());
        // A tag the mesh does not speak is an error, not a panic.
        let err = read(&frame(TAG_HELLO)).expect_err("unknown tag");
        assert!(err.contains("unexpected tag 110"), "{err}");
        assert_eq!(read(&frame(TAG_GOODBYE)), Ok(None));
    }
}
