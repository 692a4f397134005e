//! Shard-layer tests: the partition helpers, constructor validation, every
//! way a transport or a frame can fail, and hostile frames.  That a sharded
//! run is byte-identical to the serial one — over channels and over streams
//! — is a row of the conformance tables in `crate::conformance`, whose toy
//! protocols and worker helpers these tests share.

use std::sync::Arc;

use super::*;
use crate::adversary::NoFaults;
use crate::conformance::{
    crash_schedule, multi_port_worker, ring_worker, spawn_worker, FloodOr, Ring, Wiring,
};
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

/// A well-formed intents response for a chunk of one node.
fn intents_for_one_node(real: Vec<u8>) -> Vec<u8> {
    let mut resp = frame(real[2]);
    if real[2] == RESP_INTENTS {
        vec![Vec::<NodeId>::new()].encode(&mut resp);
    } else {
        vec![None::<Outgoing<bool>>].encode(&mut resp);
        vec![None::<NodeId>].encode(&mut resp);
    }
    resp
}

/// Shard 1's `Collect` exchange of round 1 goes wrong in every way a
/// transport or a frame can, under both round models: the run ends with the
/// structured error — which shard, which frame, which round — and nothing
/// is retried, masked or left hanging.
#[test]
fn every_transport_and_frame_failure_is_a_structured_error() {
    let n = 10;
    let faults: [(&str, Fault, &str); 7] = [
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
        (
            "a list of the wrong length",
            Fault::Respond(intents_for_one_node),
            "for 5 nodes",
        ),
    ];
    for (name, fault, detail) in faults {
        // Round 1's `Collect` is a model's fourth or third exchange.
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
                scripted(flood_or_worker(n, 2, 1), 3),
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
            (multi_port.unwrap().run(10).unwrap_err(), RESP_INTENTS),
            (single_port.unwrap().run(30).unwrap_err(), RESP_SP_INTENTS),
        ];
        for (err, response_tag) in outcomes {
            let SimError::Shard(err) = err else {
                panic!("{name}: expected a shard error, got {err}");
            };
            let tag = match fault {
                Fault::Send => REQ_COLLECT,
                _ => response_tag,
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
        (1, Some(RESP_INTENTS), Some(2)),
        "{err}"
    );
}

/// Dropping the host joins every worker thread, whether or not the run
/// was ever started: each worker owns its chunk's state machines, so once
/// `drop` returns nothing else may still hold the marker they share.
#[test]
fn dropping_the_host_joins_every_worker() {
    struct Marked {
        _marker: Arc<()>,
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
    for rounds in [0, 3] {
        let marker = Arc::new(());
        let nodes = (0..10).map(|_| {
            Participant::Honest(Marked {
                _marker: Arc::clone(&marker),
            })
        });
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

/// Back-references resolve to the payloads the serial run delivers, and
/// each sender's two payloads cross once per frame, not once per copy.
#[test]
fn interned_frames_carry_each_payload_once_and_match_the_serial_run() {
    let n = 12;
    let mut serial =
        Runner::with_participants(FloodSets::participants(n), Box::new(crash_schedule(n)), 3)
            .unwrap();
    let serial = serial.run(10);
    assert!(serial.all_non_faulty_decided());

    let adversary = Box::new(crash_schedule(n));
    let mut sharded =
        ShardedRunner::in_process(FloodSets::participants(n), adversary, 3, 2).unwrap();
    assert_eq!(serial, sharded.run(10).expect("sharded run"));

    // The `Delivered` frames, envelopes and all, are smaller than the
    // payloads alone would be per copy (a `Vec<u64>` is as many bytes on
    // the wire as `bit_len` counts bits, over eight).
    let delivered = sharded.wire_stats().named("Delivered");
    assert_eq!(delivered.frames, 2 * 3, "two shards, three rounds");
    assert!(delivered.bytes < serial.metrics.bits / 8, "{delivered:?}");
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

#[test]
fn worker_refuses_indices_and_lengths_outside_its_chunk() {
    let hostile = [
        // A crash verdict for local node 2 of a 2-node chunk.
        (
            false,
            request(REQ_DELIVER, |out| {
                vec![(2usize, DeliveryFilter::All)].encode(out)
            }),
        ),
        // A message routed to local node 7.
        (
            false,
            request(REQ_RECEIVE, |out| {
                vec![(7usize, NodeId::new(0), Slot::Inline(true))].encode(out)
            }),
        ),
        // A back-reference to a slot the frame has not defined.
        (
            false,
            request(REQ_RECEIVE, |out| {
                vec![(0usize, NodeId::new(0), Slot::<bool>::Shared(0))].encode(out)
            }),
        ),
        // Single-port: a crash verdict for local node 2 ...
        (
            true,
            request(REQ_SP_RECEIVE, |out| {
                vec![2usize].encode(out);
                vec![None::<Vec<bool>>; 2].encode(out);
            }),
        ),
        // ... and three drained ports for two nodes.
        (
            true,
            request(REQ_SP_RECEIVE, |out| {
                Vec::<usize>::new().encode(out);
                vec![None::<Vec<bool>>; 3].encode(out);
            }),
        ),
    ];
    for (single_port, frame) in hostile {
        let err = serve_one(single_port, frame);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}

/// A worker may report decisions and halts only for its own nodes: shard 1
/// (nodes 2..4) claiming that node 0 halted is a malformed response — a
/// structured error.
#[test]
fn parent_refuses_events_for_another_chunks_node() {
    let n = 4;
    let lying = spawn_worker(Wiring::Channel, |transport| loop {
        let (tag, _) = open_frame(&transport.recv()?).map_err(wire_io)?;
        let mut resp;
        match tag {
            REQ_COLLECT => {
                resp = frame(RESP_INTENTS);
                vec![Vec::<NodeId>::new(); 2].encode(&mut resp);
            }
            REQ_DELIVER => {
                resp = frame(RESP_DELIVERED);
                (0u64, 0u64, 0u64).encode(&mut resp);
                Slots::<bool>::new().encode(&mut resp);
            }
            _ => {
                resp = frame(RESP_EVENTS);
                let stray = WireEvent {
                    node: 0,
                    halted: true,
                    output: Some(true),
                };
                vec![stray].encode(&mut resp);
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
        panic!("a stray event must fail the run");
    };
    assert_eq!((err.shard, err.frame_tag), (1, Some(RESP_EVENTS)));
    assert!(err.detail.contains("outside the chunk"), "{}", err.detail);
}

#[test]
fn wire_event_golden_bytes() {
    assert_eq!(WIRE_VERSION, 9);
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
