//! Shard-layer tests: the partition helpers, constructor validation, every
//! way a transport or a frame can fail, and hostile frames.  That a sharded
//! run is byte-identical to the serial one — over channels and over streams
//! — is a row of the conformance tables in `crate::conformance`, whose toy
//! protocols and worker helpers these tests share.

use std::sync::Arc;

use super::*;
use crate::adversary::{AdaptiveSplitAdversary, NoFaults};
use crate::conformance::{
    crash_schedule, multi_port_worker, ring_worker, spawn_worker, FloodOr, Ring, Wiring,
};
use crate::message::Outgoing;
use crate::node::NodeId;
use crate::report::{check, Spec};
use crate::runner::Runner;
use crate::single_port::SinglePortRunner;

#[test]
fn shard_partition_helpers_tile_the_node_range() {
    for n in [1usize, 2, 9, 64, 100] {
        for shards in [1usize, 2, 3, 8] {
            let count = shard_count(n, shards);
            assert!(count >= 1 && count <= shards.max(1));
            let mut covered = 0;
            for index in 0..count {
                let range = shard_range(n, shards, index);
                assert_eq!(range.start, covered, "contiguous n={n} shards={shards}");
                assert!(!range.is_empty());
                covered = range.end;
            }
            assert_eq!(covered, n);
        }
    }
}

#[test]
fn coordinator_rejects_mismatched_transport_count() {
    let (a, _b) = ChannelTransport::pair();
    let err = ShardedRunner::<bool, bool>::connect(
        10,
        Box::new(NoFaults),
        0,
        NodeSet::empty(10),
        2,
        vec![Box::new(a)],
    )
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
}

/// One check, one message, for all four runners — and the in-process
/// sharded constructors run it before they spawn a worker.
#[test]
fn coordinator_rejects_empty_and_overbudget_systems() {
    let no_faults = || Box::new(NoFaults);
    let transport =
        || -> Vec<Box<dyn ShardTransport>> { vec![Box::new(ChannelTransport::pair().0)] };
    let honest = |n| {
        FloodOr::nodes(n, 0)
            .into_iter()
            .map(Participant::Honest)
            .collect()
    };
    let empty = [
        ShardedRunner::<bool, bool>::connect(0, no_faults(), 0, NodeSet::empty(0), 1, Vec::new())
            .err(),
        ShardedRunner::in_process(honest(0), no_faults(), 0, 2).err(),
        SpShardedRunner::<bool, bool>::connect(0, no_faults(), 0, 1, Vec::new()).err(),
        SpShardedRunner::in_process(Ring::nodes(0, 0), no_faults(), 0, 2).err(),
    ];
    assert_eq!(empty, [const { Some(SimError::EmptySystem) }; 4]);

    let overbudget = [
        Runner::with_adversary(FloodOr::nodes(3, 0), no_faults(), 3).err(),
        SinglePortRunner::with_adversary(Ring::nodes(3, 0), no_faults(), 3).err(),
        ShardedRunner::<bool, bool>::connect(3, no_faults(), 3, NodeSet::empty(3), 1, transport())
            .err(),
        ShardedRunner::in_process(honest(3), no_faults(), 3, 2).err(),
        SpShardedRunner::<bool, bool>::connect(3, no_faults(), 3, 1, transport()).err(),
        SpShardedRunner::in_process(Ring::nodes(3, 0), no_faults(), 3, 2).err(),
    ];
    assert!(matches!(overbudget[0], Some(SimError::InvalidConfig(_))));
    assert!(
        overbudget.iter().all(|err| *err == overbudget[0]),
        "{overbudget:?}"
    );
}

/// A node that does nothing and holds a marker its test counts.
struct Marked {
    _marker: Arc<()>,
}

impl Marked {
    fn nodes(n: usize, marker: &Arc<()>) -> Vec<Marked> {
        let node = |_| Marked {
            _marker: Arc::clone(marker),
        };
        (0..n).map(node).collect()
    }
}

impl SyncProtocol for Marked {
    type Msg = bool;
    type Output = bool;
    fn send(&mut self, _round: Round, _out: &mut Vec<Outgoing<bool>>) {}
    fn receive(&mut self, _round: Round, _inbox: &[Delivered<bool>]) {}
    fn output(&self) -> Option<bool> {
        None
    }
    fn has_halted(&self) -> bool {
        false
    }
}

impl SinglePortProtocol for Marked {
    type Msg = bool;
    type Output = bool;
    fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
        None
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

/// Only a runner that holds the whole round runs an adversary that reads
/// the round's intents.  Every other refuses it before it spawns a worker
/// (the nodes it was handed are dropped, not moved to a thread) or touches
/// a link (the far end finds it closed, never written to).
#[test]
fn only_a_host_holding_the_round_runs_an_adaptive_adversary() {
    let adaptive = || Box::new(AdaptiveSplitAdversary::new(NodeId::new(0)));
    let n = 4;
    assert!(Runner::with_adversary(FloodOr::nodes(n, 0), adaptive(), 1).is_ok());
    assert!(SinglePortRunner::with_adversary(Ring::nodes(n, 0), adaptive(), 1).is_ok());

    let marker = Arc::new(());
    let honest = Marked::nodes(n, &marker)
        .into_iter()
        .map(Participant::Honest);
    let spawned = [
        ShardedRunner::in_process(honest.collect(), adaptive(), 1, 2).err(),
        SpShardedRunner::in_process(Marked::nodes(n, &marker), adaptive(), 1, 2).err(),
    ];
    assert_eq!(Arc::strong_count(&marker), 1, "a node went to a worker");

    let mut far_ends = Vec::new();
    let mut link = || -> Box<dyn ShardTransport> {
        let (near, far) = ChannelTransport::pair();
        far_ends.push(far);
        Box::new(near)
    };
    let connected = [
        ShardedRunner::<bool, bool>::connect(n, adaptive(), 1, NodeSet::empty(n), 1, vec![link()])
            .err(),
        SpShardedRunner::<bool, bool>::connect(n, adaptive(), 1, 1, vec![link()]).err(),
        mesh::MeshRunner::connect(
            Participant::Honest(FloodOr::nodes(n, 0).remove(0)),
            0,
            (1..n).map(|_| link()).collect(),
            adaptive(),
            1,
        )
        .err(),
    ];
    for err in spawned.into_iter().chain(connected) {
        assert!(matches!(err, Some(SimError::InvalidConfig(_))), "{err:?}");
    }
    for mut far in far_ends {
        let closed = far.recv().expect_err("no frame was sent");
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof);
    }
}

#[test]
fn dead_worker_surfaces_as_shard_error_not_a_hang() {
    let (parent, worker) = ChannelTransport::pair();
    drop(worker); // the "worker process" died before round 0
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        4,
        Box::new(NoFaults),
        0,
        NodeSet::empty(4),
        1,
        vec![Box::new(parent)],
    )
    .unwrap();
    let err = sharded.run(5).unwrap_err();
    assert!(matches!(err, SimError::Shard(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Failing transports and malformed responses: an error, on first occurrence
// ---------------------------------------------------------------------------

fn honest_flood(n: usize) -> Vec<Participant<FloodOr>> {
    let nodes = FloodOr::nodes(n, 2).into_iter();
    nodes.map(Participant::Honest).collect()
}

fn flood_or_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
    multi_port_worker(honest_flood, n, shards, index, Wiring::Channel)
}

/// What goes wrong in a [`Scripted`] transport's faulted exchange.
#[derive(Clone, Copy)]
enum Fault {
    /// `send` finds the pipe broken.
    Send,
    /// `recv` finds the stream closed.
    Recv,
    /// `recv` returns what the function makes of the worker's response.
    Respond(fn(Vec<u8>) -> Vec<u8>),
}

/// A real worker's transport for `healthy` exchanges, then `fault`.
struct Scripted {
    inner: Box<dyn ShardTransport>,
    healthy: usize,
    fault: Fault,
}

impl ShardTransport for Scripted {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.healthy == 0 && matches!(self.fault, Fault::Send) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let real = self.inner.recv()?;
        if self.healthy > 0 {
            self.healthy -= 1;
            return Ok(real);
        }
        match self.fault {
            Fault::Respond(mangle) => Ok(mangle(real)),
            _ => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

/// Shard 1's `Deliver` exchange of round 1 goes wrong in every way a
/// transport or a frame can, under both round models (which speak the same
/// frames): the run ends with the
/// structured error — which shard, which frame, which round — and nothing
/// is retried, masked or left hanging.
#[test]
fn every_transport_and_frame_failure_is_a_structured_error() {
    let n = 10;
    let faults: [(&str, Fault, &str); 6] = [
        ("EOF on recv", Fault::Recv, "receiving response"),
        ("broken pipe on send", Fault::Send, "sending request"),
        (
            "a strict prefix of the response",
            Fault::Respond(|mut real| {
                real.pop();
                real
            }),
            "response payload",
        ),
        (
            "another wire version",
            Fault::Respond(|mut real| {
                real[0] ^= 0xFF;
                real
            }),
            "version mismatch",
        ),
        (
            "an unexpected tag",
            Fault::Respond(|mut real| {
                real[2] = RESP_EVENTS;
                real
            }),
            "answered with tag 67",
        ),
        (
            "an undecodable payload",
            Fault::Respond(|real| [&real[..3], &[0xFF; 9]].concat()),
            "response payload",
        ),
    ];
    for (name, fault, detail) in faults {
        // Round 1's `Deliver` is the third exchange of either model.
        let scripted = |inner, healthy| -> Box<dyn ShardTransport> {
            Box::new(Scripted {
                inner,
                healthy,
                fault,
            })
        };
        let multi_port = ShardedRunner::<bool, bool>::connect(
            n,
            Box::new(crash_schedule(n)),
            3,
            NodeSet::empty(n),
            2,
            vec![
                flood_or_worker(n, 2, 0),
                scripted(flood_or_worker(n, 2, 1), 2),
            ],
        );
        let single_port = SpShardedRunner::<bool, bool>::connect(
            n,
            Box::new(crash_schedule(n)),
            3,
            2,
            vec![
                ring_worker(n, 2, 0, Wiring::Channel),
                scripted(ring_worker(n, 2, 1, Wiring::Channel), 2),
            ],
        );
        let outcomes = [
            multi_port.unwrap().run(10).unwrap_err(),
            single_port.unwrap().run(30).unwrap_err(),
        ];
        for err in outcomes {
            let SimError::Shard(err) = err else {
                panic!("{name}: expected a shard error, got {err}");
            };
            let tag = match fault {
                Fault::Send => REQ_DELIVER,
                _ => RESP_DELIVERED,
            };
            assert_eq!(
                (err.shard, err.frame_tag, err.round),
                (1, Some(tag), Some(1)),
                "{name}: {err}"
            );
            assert!(err.detail.contains(detail), "{name}: {err}");
        }
    }
}

/// A worker thread that dies (here: a state machine that panics) unwinds,
/// drops its end of the channel, and the run ends with the same error — a
/// disconnect the coordinator sees, never a hang.
#[test]
fn failed_in_process_worker_is_a_shard_error() {
    struct Bomb(usize);
    impl SyncProtocol for Bomb {
        type Msg = bool;
        type Output = bool;
        fn send(&mut self, round: Round, _out: &mut Vec<Outgoing<bool>>) {
            assert!(self.0 != 7 || round < Round::new(2), "node 7 fails");
        }
        fn receive(&mut self, _round: Round, _inbox: &[Delivered<bool>]) {}
        fn output(&self) -> Option<bool> {
            None
        }
        fn has_halted(&self) -> bool {
            false
        }
    }
    let nodes = (0..10).map(Bomb).map(Participant::Honest).collect();
    let mut sharded = ShardedRunner::in_process(nodes, Box::new(NoFaults), 0, 2).unwrap();
    let Err(SimError::Shard(err)) = sharded.run(5) else {
        panic!("a dead worker must fail the run");
    };
    assert_eq!(
        (err.shard, err.frame_tag, err.round),
        (1, Some(RESP_DELIVERED), Some(2)),
        "{err}"
    );
}

/// Dropping the host joins every worker thread, whether or not the run
/// was ever started: each worker owns its chunk's state machines, so once
/// `drop` returns nothing else may still hold the marker they share.
#[test]
fn dropping_the_host_joins_every_worker() {
    for rounds in [0, 3] {
        let marker = Arc::new(());
        let nodes = Marked::nodes(10, &marker)
            .into_iter()
            .map(Participant::Honest);
        let mut sharded =
            ShardedRunner::in_process(nodes.collect(), Box::new(NoFaults), 0, 4).unwrap();
        assert_eq!(Arc::strong_count(&marker), 11);
        for _ in 0..rounds {
            sharded.step().unwrap();
        }
        drop(sharded);
        assert_eq!(Arc::strong_count(&marker), 1, "after {rounds} rounds");
    }
}

// ---------------------------------------------------------------------------
// Interned frames
// ---------------------------------------------------------------------------

/// Every node pushes what it knows to everyone, as two `Arc`-shared
/// payloads alternating over the destinations — so each sender's part of a
/// frame reads A, B, A, B and both must be found in the interning table.
struct FloodSets {
    n: usize,
    known: Vec<u64>,
    rounds: u64,
}

impl FloodSets {
    fn participants(n: usize) -> Vec<Participant<FloodSets>> {
        let node = |me| FloodSets {
            n,
            known: vec![me as u64],
            rounds: 0,
        };
        (0..n).map(node).map(Participant::Honest).collect()
    }
}

impl SyncProtocol for FloodSets {
    type Msg = Arc<Vec<u64>>;
    type Output = u64;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<Self::Msg>>) {
        let set = Arc::new(self.known.clone());
        let digest = Arc::new(vec![self.known.iter().sum()]);
        out.extend((0..self.n).map(|to| {
            let payload = if to % 2 == 0 { &set } else { &digest };
            Outgoing::new(NodeId::new(to), Arc::clone(payload))
        }));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<Self::Msg>]) {
        for delivered in inbox.iter().filter(|d| d.msg.len() > 1 || self.rounds == 0) {
            self.known.extend(delivered.msg.iter());
        }
        self.known.sort_unstable();
        self.known.dedup();
        self.rounds += 1;
    }

    fn output(&self) -> Option<u64> {
        (self.rounds >= 3).then(|| self.known.iter().sum())
    }

    fn has_halted(&self) -> bool {
        self.rounds >= 3
    }
}

/// Back-references resolve to the payloads the serial run delivers, each
/// sender's two payloads cross once per other chunk, not once per copy, a
/// worker's messages to its own chunk do not cross at all, and the
/// coordinator forwards every block as it arrived.
#[test]
fn interned_frames_carry_each_payload_once_and_match_the_serial_run() {
    let n = 12;
    let mut serial =
        Runner::with_participants(FloodSets::participants(n), Box::new(crash_schedule(n)), 3)
            .unwrap();
    let serial = serial.run(10);
    assert_eq!(check(&serial, &Spec::decisions(|_, _, _| Ok(()))), Ok(()));

    let adversary = Box::new(crash_schedule(n));
    let mut sharded =
        ShardedRunner::in_process(FloodSets::participants(n), adversary, 3, 2).unwrap();
    assert_eq!(serial, sharded.run(10).expect("sharded run"));

    // Each sender's destinations alternate between its two payloads, so
    // each chunk of six gets three copies of each: half of the bits the
    // serial run counts go to the sender's own chunk, whose block stays on
    // the worker, and half to the other chunk.  A block is interned on its
    // own, so there each payload is written once where it has three
    // copies.  The `Delivered` frames, envelopes and all, therefore stay
    // smaller than the crossing half of the payloads alone would be per
    // copy (a `Vec<u64>` is as many bytes on the wire as `bit_len` counts
    // bits, over eight).
    let delivered = sharded.wire_stats().named("Delivered");
    assert_eq!(delivered.frames, 2 * 3, "two shards, three rounds");
    assert!(delivered.bytes < serial.metrics.bits / 16, "{delivered:?}");
    // The same blocks, byte for byte, make up the `Receive` frames, a
    // worker's empty block for itself included: per frame, only the
    // 35-byte opening (header, counters, block count) of a `Delivered`
    // becomes the 19-byte one (header, round, block count) of a `Receive`.
    let receive = sharded.wire_stats().named("Receive");
    assert_eq!(receive.frames, delivered.frames);
    assert_eq!(
        delivered.bytes - receive.bytes,
        (35 - 19) * delivered.frames
    );
}

// ---------------------------------------------------------------------------
// Hostile frames: an error, never a panic
// ---------------------------------------------------------------------------

/// Serves a 2-node chunk at base 4 on this thread against one request.
fn serve_one(single_port: bool, request: Vec<u8>) -> io::Error {
    let (mut parent, mut worker) = ChannelTransport::pair();
    parent.send(&request).unwrap();
    let served = if single_port {
        serve_single_port(Ring::nodes(2, 0), 4, &mut worker)
    } else {
        serve_multi_port(honest_flood(2), 4, &mut worker)
    };
    served.expect_err("a hostile frame must be refused")
}

fn request(tag: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut request = round_request(tag, Round::ZERO);
    payload(&mut request);
    request
}

/// `slots` as one block on the wire: the length prefix, then the slots.
fn block(slots: Slots<bool>) -> Vec<u8> {
    let body = to_bytes(&slots);
    [to_bytes(&body.len()), body].concat()
}

/// A `Receive` payload of `blocks`.
fn blocks(blocks: &[Vec<u8>]) -> impl FnOnce(&mut Vec<u8>) + '_ {
    |out| {
        blocks.len().encode(out);
        blocks.iter().for_each(|block| out.extend_from_slice(block));
    }
}

#[test]
fn worker_refuses_indices_and_lengths_outside_its_chunk() {
    let (from, partition) = (NodeId::new(0), vec![4usize, 6]);
    let mut long_block = block(vec![(0, from, Slot::Inline(true))]);
    long_block[0] += 1;
    long_block.push(0);
    let hostile: [(bool, Vec<u8>, &str); 9] = [
        // A crash verdict for local node 2 of a 2-node chunk.
        (
            false,
            request(REQ_DELIVER, |out| {
                vec![(2usize, DeliveryFilter::All)].encode(out);
                partition.encode(out);
            }),
            "local node index 2 outside a chunk of 2 nodes",
        ),
        // Chunk ends that do not ascend, none at all, or an empty first
        // chunk: no partition to split the survivors by.
        (
            false,
            request(REQ_DELIVER, |out| {
                Vec::<(usize, DeliveryFilter)>::new().encode(out);
                vec![6usize, 4].encode(out);
            }),
            "no partition",
        ),
        (
            false,
            request(REQ_DELIVER, |out| {
                Vec::<(usize, DeliveryFilter)>::new().encode(out);
                Vec::<usize>::new().encode(out);
            }),
            "no partition",
        ),
        (
            false,
            request(REQ_DELIVER, |out| {
                Vec::<(usize, DeliveryFilter)>::new().encode(out);
                vec![0usize, 6].encode(out);
            }),
            "no partition",
        ),
        // A message routed to local node 7.
        (
            false,
            request(
                REQ_RECEIVE,
                blocks(&[block(vec![(7, from, Slot::Inline(true))])]),
            ),
            "local node index 7 outside a chunk of 2 nodes",
        ),
        // A back-reference to a slot the block has not defined ...
        (
            false,
            request(
                REQ_RECEIVE,
                blocks(&[block(vec![(0, from, Slot::Shared(0))])]),
            ),
            "not defined yet",
        ),
        // ... and, in a second block, to a slot of the first: each block
        // is interned, and resolved, on its own.
        (
            false,
            request(
                REQ_RECEIVE,
                blocks(&[
                    block(vec![(0, from, Slot::Inline(true))]),
                    block(vec![(1, NodeId::new(5), Slot::Shared(0))]),
                ]),
            ),
            "not defined yet",
        ),
        // A block whose byte length covers more than its slots.
        (
            false,
            request(REQ_RECEIVE, blocks(&[long_block])),
            "1 bytes left over in a block",
        ),
        // Single-port: a message for the port of local node 2, which a
        // chunk of two nodes does not have.
        (
            true,
            request(
                REQ_RECEIVE,
                blocks(&[block(vec![(2, from, Slot::Inline(true))])]),
            ),
            "local node index 2 outside a chunk of 2 nodes",
        ),
    ];
    for (single_port, frame, detail) in hostile {
        let err = serve_one(single_port, frame);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(detail), "{detail}: {err}");
    }
}

/// A worker may answer only for its own chunk, in the partition's shape:
/// shard 1 (nodes 2..4) delivering three blocks for two chunks, or claiming
/// that node 0 halted, is a malformed response — a structured error naming
/// the shard, the response and the round.
#[test]
fn parent_refuses_events_for_another_chunks_node() {
    let n = 4;
    let lies = [
        (RESP_DELIVERED, "3 blocks for 2 chunks"),
        (RESP_EVENTS, "an event for node 0, outside the chunk"),
    ];
    for (lie_at, detail) in lies {
        let lying = spawn_worker(Wiring::Channel, move |transport| loop {
            let (tag, _) = open_frame(&transport.recv()?).map_err(wire_io)?;
            let mut resp;
            match tag {
                REQ_DELIVER => {
                    resp = frame(RESP_DELIVERED);
                    (0u64, 0u64, 0u64).encode(&mut resp);
                    let blocks = if lie_at == RESP_DELIVERED { 3 } else { 2 };
                    vec![Block::<bool>(Vec::new()); blocks].encode(&mut resp);
                }
                _ => {
                    resp = frame(RESP_EVENTS);
                    let stray = WireEvent {
                        node: 0,
                        halted: true,
                        output: Some(true),
                    };
                    let events = if lie_at == RESP_EVENTS {
                        vec![stray]
                    } else {
                        Vec::new()
                    };
                    events.encode(&mut resp);
                }
            }
            transport.send(&resp)?;
        });
        let transports = vec![flood_or_worker(n, 2, 0), lying];
        let mut sharded = ShardedRunner::<bool, bool>::connect(
            n,
            Box::new(NoFaults),
            0,
            NodeSet::empty(n),
            2,
            transports,
        )
        .unwrap();
        let Err(SimError::Shard(err)) = sharded.run(5) else {
            panic!("a lie at tag {lie_at} must fail the run");
        };
        assert_eq!(
            (err.shard, err.frame_tag, err.round),
            (1, Some(lie_at), Some(0)),
            "{err}"
        );
        assert!(err.detail.contains(detail), "{}", err.detail);
    }
}

#[test]
fn wire_event_golden_bytes() {
    assert_eq!(WIRE_VERSION, 14);
    let decided = WireEvent {
        node: 17,
        halted: false,
        output: Some(0xABu8),
    };
    assert_eq!(to_bytes(&decided), b"\x11\0\0\0\0\0\0\0\0\x01\xab");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a bare WireEvent round trip; there is no frame, so no version to check"
)]
fn wire_event_round_trips() {
    let decided = WireEvent::<u64> {
        node: 17,
        halted: false,
        output: Some(42),
    };
    let halted = WireEvent::<u64> {
        node: 3,
        halted: true,
        output: None,
    };
    for event in [decided, halted] {
        let decoded: WireEvent<u64> = from_bytes(&to_bytes(&event)).expect("WireEvent round trip");
        assert_eq!(decoded.node, event.node);
        assert_eq!(decoded.halted, event.halted);
        assert_eq!(decoded.output, event.output);
        assert_eq!(
            decode_error_path_violations(&event),
            Vec::<usize>::new(),
            "every truncated or oversized WireEvent frame must fail to decode"
        );
    }
}
