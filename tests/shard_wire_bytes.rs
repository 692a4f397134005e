//! What a sharded execution puts on its transports, counted per frame tag
//! by the coordinator (`wire_stats`) and checked against the per-message
//! codec: a protocol that `Arc`-shares its payloads crosses each distinct
//! payload once per block (one per pair of distinct chunks: a worker keeps
//! its messages to its own chunk), and a protocol that shares nothing pays
//! exactly one slot-tag byte per crossing message for the table it does
//! not use.  Either way a round costs each worker four frames.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linear_dft::core::{FewCrashesConsensus, Gossip, SystemConfig};
use linear_dft::sim::shard::{shard_range, to_bytes, ShardedRunner, Wire, WireStats};
use linear_dft::sim::{
    check, Delivered, NoFaults, Outgoing, Participant, Round, Spec, SyncProtocol,
};

/// Messages and per-message `to_bytes` lengths, one direction.
#[derive(Default)]
struct Flow {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl Flow {
    fn add<M: Wire>(&self, msg: &M) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(to_bytes(msg).len() as u64, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.msgs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Everything the nodes sent, the part of it sent to another chunk (what
/// the `Delivered` responses, and the `Receive` requests that forward
/// them, carry when nobody crashes) and everything handed to a `receive`.
#[derive(Default)]
struct Tally {
    sent: Flow,
    crossing: Flow,
    received: Flow,
}

/// A state machine that tallies what its node sends and is handed; the
/// execution is the wrapped protocol's.
struct Tap<P> {
    inner: P,
    /// The nodes of the tapped node's own chunk.
    chunk: Range<usize>,
    tally: Arc<Tally>,
}

impl<P: SyncProtocol> SyncProtocol for Tap<P>
where
    P::Msg: Wire,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<P::Msg>>) {
        let before = out.len();
        self.inner.send(round, out);
        for outgoing in &out[before..] {
            self.tally.sent.add(&outgoing.msg);
            if !self.chunk.contains(&outgoing.to.index()) {
                self.tally.crossing.add(&outgoing.msg);
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<P::Msg>]) {
        for delivered in inbox {
            self.tally.received.add(&delivered.msg);
        }
        self.inner.receive(round, inbox);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn has_halted(&self) -> bool {
        self.inner.has_halted()
    }
}

/// Runs `nodes` fault-free on two in-process shard workers and returns the
/// coordinator's frame counters next to the nodes' own tally.
fn run_tapped<P>(nodes: Vec<P>, max_rounds: u64) -> (WireStats, Arc<Tally>)
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: Wire + PartialEq,
{
    let n = nodes.len();
    let tally = Arc::new(Tally::default());
    let chunks: Vec<_> = (0..SHARDS as usize)
        .map(|ci| shard_range(n, SHARDS as usize, ci))
        .collect();
    let tap = |(me, inner)| Tap {
        inner,
        chunk: chunks
            .iter()
            .find(|chunk| chunk.contains(&me))
            .cloned()
            .expect("every node has a chunk"),
        tally: Arc::clone(&tally),
    };
    let participants = nodes.into_iter().enumerate().map(tap);
    let participants = participants.map(Participant::Honest).collect();
    let mut sharded =
        ShardedRunner::in_process(participants, Box::new(NoFaults), 0, SHARDS as usize)
            .expect("a valid system");
    let report = sharded.run(max_rounds).expect("no shard worker fails");
    let terminated = Spec::decisions(|_, _: &P::Output, _| Ok(()));
    assert_eq!(check(&report, &terminated), Ok(()));
    let wire = sharded.wire_stats().clone();
    // A round is two exchanges per worker: `Deliver` / `Delivered`, then
    // `Receive` / `Events`.  Nothing is exchanged to show the adversary
    // intents.
    assert_eq!(
        wire.total().frames,
        4 * SHARDS * report.metrics.rounds,
        "{:?}",
        wire.tags().collect::<Vec<_>>()
    );
    (wire, tally)
}

/// Bytes of the two bulk frame kinds outside the messages themselves.
/// Per frame: the 3-byte header, then three `u64` counters (`Delivered`) or
/// the round (`Receive`), then the block count.  Per frame and shard: one
/// block, its byte length and its list length (a worker's block for its own
/// chunk is empty).  Per crossing message: the destination's index within
/// its chunk, the sender, and the slot tag.
const DELIVERED_FRAME: u64 = 3 + 24 + 8;
const RECEIVE_FRAME: u64 = 3 + 8 + 8;
const BLOCK: u64 = 8 + 8;
const SHARDS: u64 = 2;
const ENVELOPE: u64 = 8 + 8;
const SLOT_TAG: u64 = 1;

#[test]
fn shared_gossip_payloads_cross_the_transports_once_per_frame() {
    let config = SystemConfig::new(200, 3).unwrap().with_seed(5);
    let rumors: Vec<u64> = (0..200).map(|i| 9_000 + i).collect();
    let nodes = Gossip::for_all_nodes(&config, &rumors).unwrap();
    let rounds = nodes[0].total_rounds();
    let (wire, tally) = run_tapped(nodes, rounds + 2);

    let (sent, sent_bytes) = tally.sent.read();
    let (received, received_bytes) = tally.received.read();
    assert!(sent > 0 && received > 0 && received <= sent);
    let bulk = wire.named("Delivered").bytes + wire.named("Receive").bytes;
    let per_copy = sent_bytes + received_bytes;
    assert!(
        bulk <= per_copy / 4,
        "{bulk} bytes over the transports for {per_copy} bytes of per-message encodings"
    );
}

#[test]
fn unshared_consensus_payloads_cost_one_tag_byte_per_message() {
    let n = 120;
    let config = SystemConfig::new(n, 9).unwrap().with_seed(5);
    let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let nodes = FewCrashesConsensus::for_all_nodes(&config, &inputs).unwrap();
    let rounds = nodes[0].total_rounds();
    let (wire, tally) = run_tapped(nodes, rounds + 2);

    let (sent, _) = tally.sent.read();
    let (crossing, crossing_bytes) = tally.crossing.read();
    let messages = crossing * (ENVELOPE + SLOT_TAG) + crossing_bytes;
    let delivered = wire.named("Delivered");
    assert!(0 < crossing && crossing < sent);
    assert_eq!(
        delivered.bytes,
        delivered.frames * (DELIVERED_FRAME + SHARDS * BLOCK) + messages
    );
    // The coordinator forwards the same blocks.  A message to a node that
    // has halted crosses too, and only the receiving worker drops it, so
    // the nodes are handed at most what was sent.
    let receive = wire.named("Receive");
    assert_eq!(
        receive.bytes,
        receive.frames * (RECEIVE_FRAME + SHARDS * BLOCK) + messages
    );
    let (received, _) = tally.received.read();
    assert!(0 < received && received <= sent);
}
