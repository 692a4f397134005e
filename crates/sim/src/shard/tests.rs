//! Shard-layer tests: the partition helpers, constructor validation, the
//! recovery ladder's corners and hostile frames.  That a sharded run is
//! byte-identical to the serial one — over channels, over streams, through
//! a kill and through the fallback — is a row of the conformance tables in
//! `crate::conformance`, whose toy protocols and worker helpers these
//! tests share.

use std::sync::Arc;

use super::*;
use crate::adversary::NoFaults;
use crate::conformance::{
    crash_schedule, multi_port_worker, spawn_worker, ChannelStream, FloodOr, Ring, Wiring,
};
use crate::report::ExecutionReport;
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
// Worker-failure recovery
// ---------------------------------------------------------------------------

fn honest_flood(n: usize) -> Vec<Participant<FloodOr>> {
    let nodes = FloodOr::nodes(n, 2).into_iter();
    nodes.map(Participant::Honest).collect()
}

fn flood_or_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
    multi_port_worker(honest_flood, n, shards, index, Wiring::Channel)
}

fn flood_or_serial(n: usize) -> ExecutionReport<bool> {
    let mut runner =
        Runner::with_adversary(FloodOr::nodes(n, 2), Box::new(crash_schedule(n)), 3).unwrap();
    runner.run(10)
}

/// Builds a faulted sharded FloodOr run with a recovery ladder whose
/// respawn factory rebuilds workers (wrapped by the same armed plan, so a
/// recovered fault must not re-fire).
fn faulted_flood_or(
    n: usize,
    shards: usize,
    plan: &FaultPlan,
    max_respawns: u32,
    with_fallback: bool,
) -> ShardedRunner<bool, bool> {
    let armed = plan.arm();
    let transports: Vec<Box<dyn ShardTransport>> = (0..shard_count(n, shards))
        .map(|index| armed.wrap(index, flood_or_worker(n, shards, index)))
        .collect();
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let respawn_armed = armed.clone();
    let mut recovery = Recovery::new(
        max_respawns,
        Box::new(move |index| Ok(respawn_armed.wrap(index, flood_or_worker(n, shards, index)))),
    )
    .with_backoff(Duration::ZERO);
    if with_fallback {
        recovery =
            recovery.with_fallback(Box::new(move |index| Ok(flood_or_worker(n, shards, index))));
    }
    sharded.set_recovery(recovery);
    sharded
}

#[test]
fn killing_any_frame_of_any_shard_recovers_byte_identically() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    // The full run exchanges ~12 response frames per shard; sweep past the
    // end so the no-fire (fault never reached) edge is covered too.
    for shard in 0..shard_count(n, shards) {
        for frame in 0..14 {
            let plan = FaultPlan::parse(&format!("kill:{shard}@{frame}")).unwrap();
            let mut sharded = faulted_flood_or(n, shards, &plan, 2, false);
            let report = sharded
                .run(10)
                .unwrap_or_else(|err| panic!("kill:{shard}@{frame}: {err}"));
            assert_eq!(serial, report, "kill:{shard}@{frame}");
        }
    }
}

#[test]
fn torn_and_garbage_frames_trigger_respawn_and_stay_identical() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let plan = FaultPlan::parse("torn:0@2,garbage:1@5").unwrap();
    let mut sharded = faulted_flood_or(n, shards, &plan, 2, false);
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    let stats = sharded.recovery_stats();
    assert_eq!(
        stats.respawns, 2,
        "one respawn per corrupted shard: {stats:?}"
    );
}

#[test]
fn dead_transport_on_send_recovers_through_the_same_ladder() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    // Shard 0's initial transport is already dead: the very first broadcast
    // send fails, exercising the send-side entry into recovery.
    let (dead, gone) = ChannelTransport::pair();
    drop(gone);
    let transports: Vec<Box<dyn ShardTransport>> =
        vec![Box::new(dead), flood_or_worker(n, shards, 1)];
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    sharded.set_recovery(
        Recovery::new(
            1,
            Box::new(move |index| Ok(flood_or_worker(n, shards, index))),
        )
        .with_backoff(Duration::ZERO),
    );
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    assert_eq!(sharded.recovery_stats().respawns, 1);
}

#[test]
fn exhausted_ladder_is_a_hard_structured_error() {
    let n = 10;
    let shards = 2;
    let plan = FaultPlan::parse("kill:0@0").unwrap();
    let mut sharded = faulted_flood_or(n, shards, &plan, 0, false);
    let err = sharded.run(10).unwrap_err();
    let SimError::Shard(shard_err) = err else {
        panic!("expected a shard error, got {err}");
    };
    assert_eq!(shard_err.shard, 0);
    assert_eq!(shard_err.frame_tag, Some(RESP_INTENTS));
    assert_eq!(shard_err.round, Some(0));
    assert!(
        shard_err.detail.contains("no fallback"),
        "detail names the exhausted ladder: {}",
        shard_err.detail
    );
}

#[test]
fn stalled_worker_trips_the_read_deadline_and_recovers() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let armed = FaultPlan::parse("stall:0@1").unwrap().arm();

    // A worker behind a DeadlineTransport over byte streams — the stack the
    // process backend runs — with the stall fault layered on top.
    fn deadline_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
        let range = shard_range(n, shards, index);
        let chunk: Vec<_> = honest_flood(n)
            .into_iter()
            .skip(range.start)
            .take(range.len())
            .collect();
        let (parent_to_worker_w, parent_to_worker_r) = ChannelStream::pair();
        let (worker_to_parent_w, worker_to_parent_r) = ChannelStream::pair();
        std::thread::spawn(move || {
            let mut transport = StreamTransport::new(parent_to_worker_r, worker_to_parent_w);
            let _ = serve_multi_port(chunk, range.start, &mut transport);
        });
        Box::new(DeadlineTransport::new(
            worker_to_parent_r,
            parent_to_worker_w,
            Duration::from_millis(150),
        ))
    }

    let transports: Vec<Box<dyn ShardTransport>> = (0..shard_count(n, shards))
        .map(|index| armed.wrap(index, deadline_worker(n, shards, index)))
        .collect();
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let respawn_armed = armed.clone();
    sharded.set_recovery(
        Recovery::new(
            2,
            Box::new(move |index| Ok(respawn_armed.wrap(index, deadline_worker(n, shards, index)))),
        )
        .with_backoff(Duration::ZERO),
    );
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    assert_eq!(sharded.recovery_stats().respawns, 1);
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

fn flood_sets_sharded(n: usize, plan: &FaultPlan) -> ShardedRunner<Arc<Vec<u64>>, u64> {
    let armed = plan.arm();
    let worker =
        move |index| multi_port_worker(FloodSets::participants, n, 2, index, Wiring::Channel);
    let transports = (0..shard_count(n, 2))
        .map(|index| armed.wrap(index, worker(index)))
        .collect();
    let mut sharded = ShardedRunner::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        2,
        transports,
    )
    .unwrap();
    let respawn = Box::new(move |index| Ok(armed.wrap(index, worker(index))));
    sharded.set_recovery(Recovery::new(2, respawn).with_backoff(Duration::ZERO));
    sharded
}

/// A worker killed mid-run is respawned and fed the retained frames — which
/// now carry back-references — and the execution is still the serial one.
/// The logical traffic is the clean run's: replays are not counted twice.
#[test]
fn killed_worker_replays_interned_frames_byte_identically() {
    let n = 12;
    let mut serial =
        Runner::with_participants(FloodSets::participants(n), Box::new(crash_schedule(n)), 3)
            .unwrap();
    let serial = serial.run(10);
    assert!(serial.all_non_faulty_decided());

    let mut clean = flood_sets_sharded(n, &FaultPlan::default());
    assert_eq!(serial, clean.run(10).expect("clean run"));
    assert!(!clean.recovery_stats().any());

    // Response frame 4 of shard 1 is round 1's `Delivered`.
    let mut killed = flood_sets_sharded(n, &FaultPlan::parse("kill:1@4").unwrap());
    assert_eq!(serial, killed.run(10).expect("recovered run"));
    assert_eq!(killed.recovery_stats().respawns, 1);
    assert!(killed.recovery_stats().replayed_frames > 0);

    assert_eq!(clean.wire_stats(), killed.wire_stats());

    // Each sender's two payloads cross once per frame, not once per copy:
    // the `Delivered` frames, envelopes and all, are smaller than the
    // payloads alone would be per copy (a `Vec<u64>` is as many bytes on
    // the wire as `bit_len` counts bits, over eight).
    let delivered = clean.wire_stats().named("Delivered");
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
/// (nodes 2..4) claiming that node 0 halted is a malformed response — the
/// recovery ladder, then a structured error.
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
    assert_eq!(WIRE_VERSION, 4);
    let decided = WireEvent {
        node: 17,
        halted: false,
        output: Some(0xABu8),
    };
    assert_eq!(to_bytes(&decided), b"\x11\0\0\0\0\0\0\0\0\x01\xab");
}

#[test]
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
