//! Sharding a **single execution** across the wire codec.
//!
//! The per-node phase work of one run is partitioned into contiguous
//! node-range chunks — the sans-I/O [`RoundCore`]/[`SinglePortCore`]
//! ownership unit of `crate::driver` — and each chunk is served by a
//! **shard worker** on the far side of a [`ShardTransport`].  The workers
//! are threads the runner spawns and joins itself, connected by
//! [`ChannelTransport`] pairs ([`ShardedRunner::in_process`]); every frame
//! crosses the full wire codec, so a sharded run exercises the protocol a
//! socket would carry.  [`ShardedRunner::connect`] takes transports to
//! workers served elsewhere (a thread behind a [`StreamTransport`], say):
//! moving a shard is a transport swap, not a rewrite.
//!
//! # Determinism
//!
//! [`ShardedRunner`] and [`SpShardedRunner`] are not round loops of their
//! own: they are the loops of `crate::coordinator` over the **framed
//! host** of this module ([`Framed`]), which runs a phase on every chunk by
//! exchanging frames.  The coordinator therefore keeps everything
//! order-sensitive exactly where the serial runners keep it — the
//! crash-adversary phase, the merge in chunk (= node-index) order, the
//! event replay, the single-port port map — and a sharded run is
//! byte-identical to a serial run of the same seeded workload;
//! `crates/bench/tests/determinism.rs` pins this with table diffs and
//! transcript proptests.
//!
//! # Protocol
//!
//! Each frame is `[u16 version][u8 tag][payload]` (see [`WIRE_VERSION`] and
//! the [`wire`] codec).  Per round the host sends `Collect` and returns the
//! intents; after the coordinator's crash phase it sends `Deliver`
//! (multi-port; the worker returns surviving messages and metric deltas),
//! queues the messages the coordinator routes, and sends them with
//! `Receive` — or, single-port, sends the crash mirror and the pre-drained
//! port contents with `SpReceive` — and returns the decision/halt events.
//! The two bulk message lists (`Delivered` response, `Receive` request) are
//! interned per frame: each distinct `Arc`-shared payload is written once
//! and every further copy as a back-reference (see [`intern`]).
//! `Shutdown` ends the loop; a worker treats transport EOF as shutdown, so
//! a dying parent never leaves workers spinning.  Both sides treat a frame
//! as untrusted: an index outside the chunk, a list of the wrong length or
//! an event for another chunk's node is an error, never a panic.
//!
//! # Failures
//!
//! A shard worker is *substrate*, not a simulated node, and nothing here
//! masks its failure: a transport error, a frame that does not open, an
//! unexpected tag, a payload that does not decode or does not fit the chunk
//! ends the run with a structured [`SimError::Shard`] (shard, expected tag,
//! round, detail) on first occurrence.  The faults the paper tolerates are
//! node crashes, and those are the crash adversary's.

pub mod intern;
pub mod mesh;
pub mod schema;
pub mod transport;
pub mod wire;

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::thread::JoinHandle;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::coordinator::{
    Central, Coordinator, Host, MultiPort, MultiPortHost, SinglePort, SinglePortHost, Staged,
};
use crate::driver::{NodeEvent, RoundCore, SinglePortCore};
use crate::error::{ShardError, SimError, SimResult};
use crate::message::{Delivered, Outgoing, Payload};
use crate::node::{NodeId, NodeSet};
use crate::parallel::ChunkPlan;
use crate::protocol::{NodeStatus, SinglePortProtocol, SyncProtocol};
use crate::round::Round;
use crate::runner::Participant;

pub use intern::{Slot, Slots};
pub use schema::{Schema, Verdict};
pub use transport::{
    read_frame, write_frame, ChannelTransport, ShardTransport, StreamTransport, MAX_FRAME_LEN,
};
pub use wire::{
    decode_error_path_violations, from_bytes, to_bytes, Wire, WireError, WireReader, WireResult,
};
// `#[macro_export]` puts the declaration macros at the crate root; the codec's
// users find them here, next to the trait they implement.
pub use crate::{wire_enum, wire_struct};

/// Version of the shard wire format.  Every frame carries it; both sides
/// reject a mismatch, so a peer built from another revision fails loudly
/// instead of silently mis-decoding.
pub const WIRE_VERSION: u16 = 9;

/// Frame tags (parent → worker).
const REQ_COLLECT: u8 = 1;
const REQ_DELIVER: u8 = 2;
const REQ_RECEIVE: u8 = 3;
const REQ_SP_RECEIVE: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

/// Frame tags (worker → parent).
const RESP_INTENTS: u8 = 64;
const RESP_SP_INTENTS: u8 = 65;
const RESP_DELIVERED: u8 = 66;
const RESP_EVENTS: u8 = 67;

/// The protocol's name for a frame tag (`"?"` for a tag it does not define).
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        REQ_COLLECT => "Collect",
        REQ_DELIVER => "Deliver",
        REQ_RECEIVE => "Receive",
        REQ_SP_RECEIVE => "SpReceive",
        REQ_SHUTDOWN => "Shutdown",
        RESP_INTENTS => "Intents",
        RESP_SP_INTENTS => "SpIntents",
        RESP_DELIVERED => "Delivered",
        RESP_EVENTS => "Events",
        _ => "?",
    }
}

/// Starts a frame: the `[u16 version][u8 tag]` header every shard frame
/// opens with.  Append the payload with [`Wire::encode`] calls.
pub fn frame(tag: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    WIRE_VERSION.encode(&mut out);
    out.push(tag);
    out
}

/// Opens a frame: checks the version and returns the tag and a reader over
/// the payload.
///
/// # Errors
///
/// Returns a [`WireError`] on a truncated header or a version mismatch (a
/// stale worker binary must fail loudly, never mis-decode).
#[expect(
    clippy::disallowed_methods,
    reason = "this is open_frame itself: the one place that implements the WIRE_VERSION check"
)]
pub fn open_frame(buf: &[u8]) -> WireResult<(u8, WireReader<'_>)> {
    let mut r = WireReader::new(buf);
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::new(format!(
            "shard wire version mismatch: peer speaks v{version}, this binary v{WIRE_VERSION}"
        )));
    }
    let tag = r.u8()?;
    Ok((tag, r))
}

fn bad_frame(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn wire_io(err: WireError) -> io::Error {
    bad_frame(err.to_string())
}

/// What is left of the retired worker-failure recovery ladder: a unit
/// value, equal to its own default, because `benchmark/benches/model.rs`
/// compares [`Coordinator::recovery_stats`] against
/// `RecoveryStats::default()` and that package could not change in the PR
/// that deleted the ladder.  Follow-up: drop the comparison there, then this
/// type and the accessor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats;

/// Frames and bytes (headers included) under one frame tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagCount {
    /// Frames exchanged.
    pub frames: u64,
    /// Their total length in bytes.
    pub bytes: u64,
}

/// What the coordinator put on and took off the shard transports, per frame
/// tag: every request it sent (`Shutdown` excluded) and every response it
/// consumed.
///
/// Counters only: they describe the substrate, and nothing they record may
/// reach a decision table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    per_tag: BTreeMap<u8, TagCount>,
}

impl WireStats {
    /// No frames yet.
    pub const fn new() -> Self {
        WireStats {
            per_tag: BTreeMap::new(),
        }
    }

    fn record(&mut self, tag: u8, len: usize) {
        let count = self.per_tag.entry(tag).or_default();
        count.frames += 1;
        count.bytes += len as u64;
    }

    /// The counts under the tag [`tag_name`] calls `name` (zero for a tag
    /// never seen).
    pub fn named(&self, name: &str) -> TagCount {
        let mut tags = self.tags();
        let found = tags.find(|(tag, _)| tag_name(*tag) == name);
        found.map(|(_, count)| count).unwrap_or_default()
    }

    /// Every tag seen, in tag order.
    pub fn tags(&self) -> impl Iterator<Item = (u8, TagCount)> + '_ {
        self.per_tag.iter().map(|(tag, count)| (*tag, *count))
    }

    /// Adds another execution's counts to these.
    pub fn absorb(&mut self, other: &WireStats) {
        for (tag, count) in other.tags() {
            let sum = self.per_tag.entry(tag).or_default();
            sum.frames += count.frames;
            sum.bytes += count.bytes;
        }
    }

    /// All tags together.
    pub fn total(&self) -> TagCount {
        self.tags()
            .fold(TagCount::default(), |sum, (_, count)| TagCount {
                frames: sum.frames + count.frames,
                bytes: sum.bytes + count.bytes,
            })
    }
}

/// The number of shard workers a system of `n` nodes actually uses when
/// `shards` are requested: the chunk partition never creates empty trailing
/// chunks, so tiny systems use fewer workers than requested (see
/// `crate::parallel`'s `ChunkPlan`).  Parent and workers must agree on
/// this; both derive it from here.
pub fn shard_count(n: usize, shards: usize) -> usize {
    ChunkPlan::new(n, shards).chunks
}

/// The node range owned by shard `index` of `shards` over `n` nodes.
pub fn shard_range(n: usize, shards: usize, index: usize) -> Range<usize> {
    ChunkPlan::new(n, shards).range(index, n)
}

/// A decision/halt event reported by a shard worker: the global node index,
/// whether the node voluntarily halted, and — on the node's first decision —
/// its output value.
struct WireEvent<O> {
    node: usize,
    halted: bool,
    output: Option<O>,
}

crate::wire_struct!(WireEvent<O: Wire> { node: usize, halted: bool, output: Option<O> });

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Decodes one field of a request; the frame is the parent's, but a worker
/// trusts nothing it reads.
fn field<T: Wire>(r: &mut WireReader<'_>) -> io::Result<T> {
    T::decode(r).map_err(wire_io)
}

/// Rejects a chunk-local node index the chunk does not own.
fn check_local(local: usize, len: usize) -> io::Result<usize> {
    if local < len {
        Ok(local)
    } else {
        Err(bad_frame(format!(
            "local node index {local} outside a chunk of {len} nodes"
        )))
    }
}

/// The serve loop both models share: answers each request frame with what
/// `answer` returns for its tag, until `Shutdown` or a clean EOF.
fn serve(
    transport: &mut dyn ShardTransport,
    mut answer: impl FnMut(u8, &mut WireReader<'_>) -> io::Result<Vec<u8>>,
) -> io::Result<()> {
    loop {
        let request = match transport.recv() {
            Ok(frame) => frame,
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(err) => return Err(err),
        };
        let (tag, mut r) = open_frame(&request).map_err(wire_io)?;
        if tag == REQ_SHUTDOWN {
            return Ok(());
        }
        transport.send(&answer(tag, &mut r)?)?;
    }
}

fn unexpected_request(tag: u8) -> io::Error {
    bad_frame(format!("unexpected shard request tag {tag}"))
}

/// The header every frame opens with: the `u16` [`WIRE_VERSION`] and the
/// `u8` tag.
fn describe_frame(schema: &mut Schema) {
    schema.declare::<u16>();
    schema.declare::<u8>();
}

/// The wire roots of a multi-port execution with message `M` and output
/// `O`: the frame header and the fields [`serve_multi_port`] reads and
/// writes.  Everything on the wire is reached from here (see
/// [`schema`]).
pub fn describe_multi_port<M: Wire, O: Wire>(schema: &mut Schema) {
    describe_frame(schema);
    // Collect, Deliver and Receive open with the round.
    schema.declare::<Round>();
    // Intents: each node's send intents.
    schema.declare::<Vec<Vec<NodeId>>>();
    // Deliver: the chunk's crashed nodes and their delivery filters.
    schema.declare::<Vec<(usize, DeliveryFilter)>>();
    // Delivered: three metric counters, then the surviving messages;
    // Receive: the routed messages.
    schema.declare::<u64>();
    schema.declare::<Slots<M>>();
    // Events: decisions and halts.
    schema.declare::<Vec<WireEvent<O>>>();
}

/// The wire roots of a single-port execution with message `M` and output
/// `O`: the frame header and the fields [`serve_single_port`] reads and
/// writes.
pub fn describe_single_port<M: Wire, O: Wire>(schema: &mut Schema) {
    describe_frame(schema);
    schema.declare::<Round>();
    // SpIntents: each node's send, then its polled port.
    schema.declare::<Vec<Option<Outgoing<M>>>>();
    schema.declare::<Vec<Option<NodeId>>>();
    // SpReceive: the crash mirror, then each node's drained port.
    schema.declare::<Vec<usize>>();
    schema.declare::<Vec<Option<Vec<M>>>>();
    schema.declare::<Vec<WireEvent<O>>>();
}

/// The wire roots of a [`mesh`] of one-node round cores exchanging
/// messages `M`: the frame header, the `HELLO` frame's node index, and a
/// `ROUND` frame's round and messages (a `GOODBYE` carries the round alone).
/// They stand here, beside the shard roots, so one schema covers every
/// frame this crate defines.
pub fn describe_mesh<M: Wire>(schema: &mut Schema) {
    describe_frame(schema);
    schema.declare::<usize>();
    schema.declare::<(Round, Vec<Delivered<M>>)>();
}

/// Encodes a chunk's decision/halt events as a `RESP_EVENTS` frame and
/// applies this round's voluntary halts to the chunk's status mirror (the
/// in-process host does the latter during the coordinator's replay; on a
/// shard worker the serve loop is the only writer).
#[expect(
    clippy::indexing_slicing,
    reason = "worker side: the events are the chunk's own core's, so `node - base` is a local \
              index into the chunk's vectors"
)]
fn events_response<O: Wire + Clone>(
    events: &[NodeEvent],
    outputs: &[Option<O>],
    status: &mut [NodeStatus],
    base: usize,
) -> Vec<u8> {
    let wire_events: Vec<WireEvent<O>> = events
        .iter()
        .map(|event| WireEvent {
            node: event.node,
            halted: event.halted,
            output: outputs[event.node - base]
                .as_ref()
                .filter(|_| event.decided)
                .cloned(),
        })
        .collect();
    let mut resp = frame(RESP_EVENTS);
    wire_events.encode(&mut resp);
    for event in events.iter().filter(|event| event.halted) {
        status[event.node - base] = NodeStatus::Halted;
    }
    resp
}

/// Serves one multi-port chunk over `transport` until `Shutdown` (or EOF).
///
/// The chunk owns nodes `base .. base + participants.len()` of the sharded
/// execution and runs the same three phase bodies every backend runs
/// ([`RoundCore`]'s `begin_round` / `deliver` / `finalize`); only the phase
/// inputs and outputs cross the transport.
///
/// # Errors
///
/// Returns an I/O error when the transport fails mid-execution or a frame is
/// malformed ([`io::ErrorKind::InvalidData`]: bad header, unknown tag,
/// undecodable payload, or an index outside this chunk); a clean EOF before
/// a request is treated as shutdown.
pub fn serve_multi_port<P>(
    participants: Vec<Participant<P>>,
    base: usize,
    transport: &mut dyn ShardTransport,
) -> io::Result<()>
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let mut chunk = RoundCore::new(base, participants);
    serve(transport, |tag, r| match tag {
        REQ_COLLECT => {
            chunk.begin_round(field(r)?);
            let mut resp = frame(RESP_INTENTS);
            chunk.send_intents.encode(&mut resp);
            Ok(resp)
        }
        REQ_DELIVER => {
            let round: Round = field(r)?;
            let crashed: Vec<(usize, DeliveryFilter)> = field(r)?;
            let mut filters = Vec::with_capacity(crashed.len());
            for (local, filter) in crashed {
                chunk.set_crashed(check_local(local, chunk.len())?, round);
                filters.push((base + local, filter));
            }
            chunk.deliver(&filters);
            let mut resp = frame(RESP_DELIVERED);
            chunk.msgs.encode(&mut resp);
            chunk.bits.encode(&mut resp);
            chunk.byz_msgs.encode(&mut resp);
            intern::intern(&mut chunk.delivered).encode(&mut resp);
            Ok(resp)
        }
        REQ_RECEIVE => {
            let round: Round = field(r)?;
            let inbound = intern::resolve(field::<Slots<P::Msg>>(r)?).map_err(wire_io)?;
            for (local, msg) in inbound {
                chunk.accept(check_local(local, chunk.len())?, msg);
            }
            chunk.finalize(round);
            Ok(events_response(
                &chunk.events,
                &chunk.outputs,
                &mut chunk.status,
                base,
            ))
        }
        other => Err(unexpected_request(other)),
    })
}

/// Serves one single-port chunk over `transport` until `Shutdown` (or EOF).
///
/// The port map and its mutations (enqueue, drain, drop) live in the parent
/// — they are shared, order-sensitive state — so the single-port worker only
/// runs the per-node `send`/`poll` collection and the `receive` loop over
/// parent-pre-drained port contents.
///
/// # Errors
///
/// As [`serve_multi_port`]; a drained-port list whose length is not the
/// chunk's is malformed too.
pub fn serve_single_port<P>(
    nodes: Vec<P>,
    base: usize,
    transport: &mut dyn ShardTransport,
) -> io::Result<()>
where
    P: SinglePortProtocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let mut chunk = SinglePortCore::new(base, nodes);
    serve(transport, |tag, r| match tag {
        REQ_COLLECT => {
            chunk.begin_round(field(r)?);
            // The parent enqueues the sends itself, so they are *moved* out
            // of the chunk, exactly as the in-process host takes them.
            let sends: Vec<Option<Outgoing<P::Msg>>> =
                chunk.sends.iter_mut().map(Option::take).collect();
            let mut resp = frame(RESP_SP_INTENTS);
            sends.encode(&mut resp);
            chunk.polls.encode(&mut resp);
            Ok(resp)
        }
        REQ_SP_RECEIVE => {
            let round: Round = field(r)?;
            let crashed: Vec<usize> = field(r)?;
            let drained: Vec<Option<Vec<P::Msg>>> = field(r)?;
            if drained.len() != chunk.len() {
                return Err(bad_frame(format!(
                    "{} drained ports for a chunk of {} nodes",
                    drained.len(),
                    chunk.len()
                )));
            }
            for local in crashed {
                chunk.set_crashed(check_local(local, chunk.len())?, round);
            }
            for (local, msgs) in drained.into_iter().enumerate() {
                chunk.set_drained(local, msgs);
            }
            chunk.finalize(round);
            Ok(events_response(
                &chunk.events,
                &chunk.outputs,
                &mut chunk.status,
                base,
            ))
        }
        other => Err(unexpected_request(other)),
    })
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// The parent's end of one sharded execution: the transports and what the
/// coordinator counted on them.
struct Link {
    transports: Vec<Box<dyn ShardTransport>>,
    plan: ChunkPlan,
    n: usize,
    /// The round being executed, for error context.
    round: u64,
    wire: WireStats,
    /// The in-process serving threads, joined on drop; empty when the
    /// workers are served elsewhere.
    workers: Vec<JoinHandle<()>>,
}

impl Drop for Link {
    fn drop(&mut self) {
        // The transports go first: a worker still serving (the run ended
        // early, or never started) reads the closed channel as shutdown, so
        // the joins below cannot hang.  A worker that panicked already
        // unwound and was seen as a disconnect; its `Err` carries nothing
        // to recover here.
        self.transports.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "`ci` is the coordinator's own enumeration of 0..chunks(), the length of `transports`"
)]
impl Link {
    fn chunks(&self) -> usize {
        self.transports.len()
    }

    fn range(&self, ci: usize) -> Range<usize> {
        self.plan.range(ci, self.n)
    }

    /// A failure of shard `ci` while the frame tagged `tag` was in flight.
    fn fail(&self, ci: usize, tag: Option<u8>, detail: String) -> SimError {
        let mut err = ShardError::new(ci, detail).with_round(self.round);
        if let Some(tag) = tag {
            err = err.with_tag(tag);
        }
        SimError::Shard(err)
    }

    /// Sends one request to shard `ci`.
    fn send_to(&mut self, ci: usize, request: &[u8]) -> SimResult<()> {
        let tag = request.get(2).copied();
        if let Some(tag) = tag {
            self.wire.record(tag, request.len());
        }
        self.transports[ci]
            .send(request)
            .map_err(|err| self.fail(ci, tag, format!("sending request: {err}")))
    }

    /// Sends one already-encoded request to every shard.
    fn broadcast(&mut self, request: &[u8]) -> SimResult<()> {
        (0..self.chunks()).try_for_each(|ci| self.send_to(ci, request))
    }

    /// Receives shard `ci`'s pending response, checks its tag, decodes the
    /// payload and has `vet` check and finish it; any failure — transport
    /// error, bad frame, wrong tag, undecodable or implausible payload — is
    /// the run's error.
    fn transact<T: Wire, U>(
        &mut self,
        ci: usize,
        expected: u8,
        vet: impl Fn(T) -> Result<U, String>,
    ) -> SimResult<U> {
        let tag = Some(expected);
        let received = self.transports[ci].recv();
        let bytes =
            received.map_err(|err| self.fail(ci, tag, format!("receiving response: {err}")))?;
        let (got, mut r) = open_frame(&bytes)
            .map_err(|err| self.fail(ci, tag, format!("response frame: {err}")))?;
        self.wire.record(got, bytes.len());
        if got != expected {
            let detail = format!("answered with tag {got}, expected {expected}");
            return Err(self.fail(ci, tag, detail));
        }
        let payload = T::decode(&mut r).map_err(|err| err.to_string());
        let vetted = payload.and_then(vet);
        vetted.map_err(|detail| self.fail(ci, tag, format!("response payload: {detail}")))
    }
}

/// Vets the length of a per-node list a worker reported for its chunk.
fn sized(got: usize, want: usize, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{got} {what} for {want} nodes"))
    }
}

/// Bound alias for message types the shard protocol can carry.
pub trait WireMsg: Payload + Wire {}
impl<M: Payload + Wire> WireMsg for M {}

/// Bound alias for output types the shard protocol can carry.
pub trait WireOutput: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static {}
impl<O: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static> WireOutput for O {}

/// The framed host: the chunks live behind shard transports, and a phase
/// runs on every chunk by sending each worker a request frame and decoding
/// its response.
///
/// It never holds protocol state machines — only the outputs the workers
/// report (`O`) and, per chunk, what is queued for its next request (`Q`).
pub struct Framed<O, Q> {
    link: Link,
    outputs: Vec<Option<O>>,
    queued: Vec<Q>,
}

/// Multi-port: the messages routed to a chunk (chunk-local destination)
/// since its last `Receive`.
pub type Inbound<M> = Vec<(usize, Delivered<M>)>;

/// Single-port: a chunk's pending sends (the parent enqueues them), and the
/// crash mirror and pre-drained ports for its next `SpReceive` (one slot per
/// node of the chunk from `Collect` on, `Some` only where a port held
/// messages).
pub struct SpQueued<M> {
    sends: Vec<Option<Outgoing<M>>>,
    crashed: Vec<usize>,
    drained: Vec<Option<Vec<M>>>,
}

impl<M> Default for SpQueued<M> {
    fn default() -> Self {
        SpQueued {
            sends: Vec::new(),
            crashed: Vec::new(),
            drained: Vec::new(),
        }
    }
}

/// Opens a round-phase request: tag, then the round.
fn round_request(tag: u8, round: Round) -> Vec<u8> {
    let mut request = frame(tag);
    round.encode(&mut request);
    request
}

#[expect(
    clippy::indexing_slicing,
    reason = "`outputs` has one slot per node, and `own_nodes_only` refused any event outside the \
              chunk's range first"
)]
impl<O: WireOutput, Q: Default> Framed<O, Q> {
    /// A host over `n` nodes whose chunks are served behind `transports`.
    fn new(
        n: usize,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
        workers: Vec<JoinHandle<()>>,
    ) -> SimResult<Self> {
        // Parent and workers must agree on the partition, so both derive it
        // from the *requested* shard count (see [`shard_count`] /
        // [`shard_range`]), never from the transport count.
        let plan = ChunkPlan::new(n, shards);
        let chunks = transports.len();
        if plan.chunks != chunks {
            return Err(SimError::InvalidConfig(format!(
                "{chunks} shard transports for a partition of {} chunks (use shard_count({n}, {shards}))",
                plan.chunks
            )));
        }
        Ok(Framed {
            link: Link {
                transports,
                plan,
                n,
                round: 0,
                wire: WireStats::default(),
                workers,
            },
            outputs: vec![None; n],
            queued: (0..chunks).map(|_| Q::default()).collect(),
        })
    }

    /// Receives every chunk's `RESP_EVENTS`, keeps the reported outputs and
    /// appends the events in chunk (= node) order.  A worker may only speak
    /// for the nodes of its own chunk.
    fn recv_events(&mut self, events: &mut Vec<NodeEvent>) -> SimResult<()> {
        for ci in 0..self.link.chunks() {
            let range = self.link.range(ci);
            let own_nodes_only = |reported: Vec<WireEvent<O>>| match reported
                .iter()
                .find(|event| !range.contains(&event.node))
            {
                None => Ok(reported),
                Some(stray) => Err(format!(
                    "an event for node {}, outside the chunk's {range:?}",
                    stray.node
                )),
            };
            let reported = self.link.transact(ci, RESP_EVENTS, own_nodes_only)?;
            for event in reported {
                events.push(NodeEvent {
                    node: event.node,
                    decided: event.output.is_some(),
                    halted: event.halted,
                });
                if event.output.is_some() {
                    self.outputs[event.node] = event.output;
                }
            }
        }
        Ok(())
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "`outputs` has one slot per node; `node` is the coordinator's enumeration of 0..n"
)]
impl<O: WireOutput, Q> Host for Framed<O, Q> {
    type Output = O;
    type Error = SimError;
    type Outcome<T> = SimResult<T>;

    fn outcome<T>(result: SimResult<T>) -> SimResult<T> {
        result
    }

    fn output(&self, node: usize) -> Option<&O> {
        self.outputs[node].as_ref()
    }

    /// A worker applies its own halts (see [`serve_multi_port`]).
    fn set_halted(&mut self, _node: usize) {}

    /// Best-effort (errors ignored: a worker that already went away has
    /// nothing left to shut down).
    fn shutdown(&mut self) {
        let request = frame(REQ_SHUTDOWN);
        for transport in &mut self.link.transports {
            let _ = transport.send(&request);
        }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "chunk tables are sized by the ChunkPlan that `locate` / `range` answer from, and \
              each reply's length is vetted by `sized` before it is zipped in"
)]
impl<M: WireMsg, O: WireOutput> MultiPortHost for Framed<O, Inbound<M>> {
    type Msg = M;

    fn begin_round(&mut self, round: Round, send_intents: &mut [Vec<NodeId>]) -> SimResult<()> {
        self.link.round = round.as_u64();
        self.link.broadcast(&round_request(REQ_COLLECT, round))?;
        for ci in 0..self.link.chunks() {
            let range = self.link.range(ci);
            let len = range.len();
            let intents = self
                .link
                .transact(ci, RESP_INTENTS, |intents: Vec<Vec<NodeId>>| {
                    sized(intents.len(), len, "intent lists").map(|()| intents)
                })?;
            for (slot, list) in send_intents[range].iter_mut().zip(intents) {
                *slot = list;
            }
        }
        Ok(())
    }

    fn deliver(
        &mut self,
        round: Round,
        crashed: Vec<(usize, DeliveryFilter)>,
        staged: &mut Vec<Staged<M>>,
    ) -> SimResult<()> {
        let mut crashed_by_chunk = vec![Vec::new(); self.link.chunks()];
        for (victim, filter) in crashed {
            let (ci, local) = self.link.plan.locate(victim);
            crashed_by_chunk[ci].push((local, filter));
        }
        for (ci, crashed) in crashed_by_chunk.iter().enumerate() {
            let mut request = round_request(REQ_DELIVER, round);
            crashed.encode(&mut request);
            self.link.send_to(ci, &request)?;
        }
        staged.clear();
        for ci in 0..self.link.chunks() {
            // Counters, then the surviving messages in frame form — nested so
            // the tuple codec reads them in the order the worker wrote them.
            type Delivery<M> = ((u64, u64, u64), Slots<M>);
            let ((messages, bits, byzantine_messages), delivered) =
                self.link
                    .transact(ci, RESP_DELIVERED, |(counters, slots): Delivery<M>| {
                        let delivered = intern::resolve(slots).map_err(|err| err.to_string())?;
                        Ok((counters, delivered))
                    })?;
            staged.push(Staged {
                messages,
                bits,
                byzantine_messages,
                delivered,
            });
        }
        Ok(())
    }

    fn accept(&mut self, dest: usize, msg: Delivered<M>) {
        let (ci, local) = self.link.plan.locate(dest);
        self.queued[ci].push((local, msg));
    }

    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> SimResult<()> {
        for (ci, inbound) in self.queued.iter_mut().enumerate() {
            let mut request = round_request(REQ_RECEIVE, round);
            intern::intern(inbound).encode(&mut request);
            self.link.send_to(ci, &request)?;
        }
        self.recv_events(events)
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "chunk tables are sized by the ChunkPlan that `locate` / `range` answer from, and \
              each reply's length is vetted by `sized` before it is zipped in"
)]
impl<M: WireMsg, O: WireOutput> SinglePortHost for Framed<O, SpQueued<M>> {
    type Msg = M;

    fn begin_round(
        &mut self,
        round: Round,
        send_intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> SimResult<()> {
        self.link.round = round.as_u64();
        self.link.broadcast(&round_request(REQ_COLLECT, round))?;
        for (ci, queued) in self.queued.iter_mut().enumerate() {
            let range = self.link.range(ci);
            let len = range.len();
            type SpIntents<M> = (Vec<Option<Outgoing<M>>>, Vec<Option<NodeId>>);
            let vet = |(sends, polled): SpIntents<M>| {
                sized(sends.len(), len, "sends")
                    .and(sized(polled.len(), len, "polled ports"))
                    .map(|()| (sends, polled))
            };
            let (sends, polled) = self.link.transact(ci, RESP_SP_INTENTS, vet)?;
            for (node, (send, poll)) in range.zip(sends.iter().zip(polled)) {
                send_intents[node].clear();
                send_intents[node].extend(send.iter().map(|out| out.to));
                polls[node] = poll;
            }
            queued.sends = sends;
            queued.drained.resize_with(len, || None);
        }
        Ok(())
    }

    fn set_crashed(&mut self, node: usize, _round: Round) {
        let (ci, local) = self.link.plan.locate(node);
        self.queued[ci].crashed.push(local);
    }

    fn drain_sends(&mut self, mut enqueue: impl FnMut(usize, Outgoing<M>)) {
        for (ci, queued) in self.queued.iter_mut().enumerate() {
            let senders = self.link.plan.range(ci, self.link.n);
            for (sender, send) in senders.zip(queued.sends.drain(..)) {
                if let Some(out) = send {
                    enqueue(sender, out);
                }
            }
        }
    }

    fn set_drained(&mut self, node: usize, msgs: Vec<M>) {
        let (ci, local) = self.link.plan.locate(node);
        self.queued[ci].drained[local] = Some(msgs);
    }

    fn finalize(&mut self, round: Round, events: &mut Vec<NodeEvent>) -> SimResult<()> {
        for (ci, queued) in self.queued.iter_mut().enumerate() {
            let mut request = round_request(REQ_SP_RECEIVE, round);
            queued.crashed.encode(&mut request);
            queued.drained.encode(&mut request);
            queued.crashed.clear();
            queued.drained.clear();
            self.link.send_to(ci, &request)?;
        }
        self.recv_events(events)
    }
}

/// Splits `items` (one per node) into the chunks of `shards` and serves
/// each chunk with `serve` on a thread of its own, behind a
/// [`ChannelTransport`].  The thread owns everything it touches — its
/// chunk's state machines and its end of the transport — so a worker that
/// panics drops both and the coordinator sees a disconnect (a
/// `SimError::Shard`), never a deadlock.
#[expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "the in-process shard workers are the threads this module owns (Link joins them); a \
              spawn failure leaves the harness unable to run, and a worker's error panics its own \
              thread, which the coordinator sees as a disconnect"
)]
fn spawn_in_process<T: Send + 'static>(
    items: Vec<T>,
    shards: usize,
    serve: impl Fn(Vec<T>, usize, &mut dyn ShardTransport) -> io::Result<()> + Clone + Send + 'static,
) -> (Vec<JoinHandle<()>>, Vec<Box<dyn ShardTransport>>) {
    let n = items.len();
    let plan = ChunkPlan::new(n, shards);
    let mut items = items.into_iter();
    (0..plan.chunks)
        .map(|ci| {
            let range = plan.range(ci, n);
            let chunk: Vec<T> = items.by_ref().take(range.len()).collect();
            let (parent_end, mut worker_end) = ChannelTransport::pair();
            let serve = serve.clone();
            let worker = std::thread::Builder::new()
                .name(format!("dft-sim-worker-{ci}"))
                .spawn(move || {
                    serve(chunk, range.start, &mut worker_end)
                        .expect("in-process shard worker failed");
                })
                .expect("spawn shard worker");
            (worker, Box::new(parent_end) as Box<dyn ShardTransport>)
        })
        .unzip()
}

/// Coordinates one **multi-port** execution whose chunks live behind shard
/// transports: the multi-port round of `crate::coordinator` over the
/// [`Framed`] host.
///
/// Generic over the message and output wire types only — the parent never
/// holds protocol state machines.  Use [`ShardedRunner::in_process`] to
/// serve the chunks on threads of this process, or
/// [`ShardedRunner::connect`] with transports to workers served elsewhere.
/// `run` is single-shot: it shuts the workers down.
pub type ShardedRunner<M, O> = Coordinator<Framed<O, Inbound<M>>, MultiPort<M>>;

impl<M: WireMsg, O: WireOutput> ShardedRunner<M, O> {
    /// Connects a coordinator over `n` nodes to already-serving shard
    /// workers (one transport per chunk of `shard_count(n, shards)`).
    ///
    /// `byzantine` names the Byzantine participants the workers were built
    /// with (empty for honest-only executions) — the coordinator needs it
    /// for message accounting and the final report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] for zero nodes,
    /// [`SimError::InvalidConfig`] when the fault budget or transport count
    /// is inconsistent with `n`.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        byzantine: NodeSet,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let central = Central::new(n, byzantine, adversary, fault_budget)?;
        let host = Framed::new(n, shards, transports, Vec::new())?;
        Ok(Coordinator::assemble(central, host))
    }

    /// Spawns an in-process sharded execution: the participants are split
    /// into `shard_count(n, shards)` chunks, each served by a thread of
    /// its own behind a [`ChannelTransport`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] if `participants` is empty, or
    /// [`SimError::InvalidConfig`] if the budget is not smaller than the
    /// number of nodes — before any worker is spawned.
    pub fn in_process<P>(
        participants: Vec<Participant<P>>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
    ) -> SimResult<ShardedRunner<P::Msg, P::Output>>
    where
        P: SyncProtocol<Msg = M, Output = O>,
    {
        let n = participants.len();
        let byzantine = Participant::byzantine_set(&participants);
        let central = Central::new(n, byzantine, adversary, fault_budget)?;
        let (workers, transports) = spawn_in_process(participants, shards, serve_multi_port);
        let host = Framed::new(n, shards, transports, workers)?;
        Ok(Coordinator::assemble(central, host))
    }
}

/// Coordinates one **single-port** execution whose chunks live behind shard
/// transports: the single-port round of `crate::coordinator` — sparse port
/// map included — over the [`Framed`] host.
pub type SpShardedRunner<M, O> = Coordinator<Framed<O, SpQueued<M>>, SinglePort<M>>;

impl<M: WireMsg, O: WireOutput> SpShardedRunner<M, O> {
    /// Connects a coordinator over `n` nodes to already-serving single-port
    /// shard workers (one transport per chunk of `shard_count(n, shards)`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] for zero nodes,
    /// [`SimError::InvalidConfig`] when the fault budget or transport count
    /// is inconsistent with `n`.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let central = Central::new(n, NodeSet::empty(n), adversary, fault_budget)?;
        let host = Framed::new(n, shards, transports, Vec::new())?;
        Ok(Coordinator::assemble(central, host))
    }

    /// Spawns an in-process sharded single-port execution (see
    /// [`ShardedRunner::in_process`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] if `nodes` is empty, or
    /// [`SimError::InvalidConfig`] if the budget is not smaller than the
    /// number of nodes — before any worker is spawned.
    pub fn in_process<P>(
        nodes: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
    ) -> SimResult<SpShardedRunner<P::Msg, P::Output>>
    where
        P: SinglePortProtocol<Msg = M, Output = O>,
    {
        let n = nodes.len();
        let central = Central::new(n, NodeSet::empty(n), adversary, fault_budget)?;
        let (workers, transports) = spawn_in_process(nodes, shards, serve_single_port);
        let host = Framed::new(n, shards, transports, workers)?;
        Ok(Coordinator::assemble(central, host))
    }
}

impl<O, Q, X> Coordinator<Framed<O, Q>, X>
where
    Framed<O, Q>: Host,
{
    /// Always the unit value — see [`RecoveryStats`] for why it is still
    /// here and what drops it.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats
    }

    /// Frames and bytes exchanged with the shard workers so far, per tag.
    pub fn wire_stats(&self) -> &WireStats {
        &self.host.link.wire
    }
}

#[cfg(test)]
mod tests;
