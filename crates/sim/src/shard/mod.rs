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
//! own: they are the loop of `crate::coordinator` over the **framed host**
//! of this module ([`Framed`]), which runs a phase on every chunk by
//! exchanging frames.  The coordinator therefore keeps everything
//! order-sensitive exactly where the serial runners keep it — the
//! crash-adversary phase, the counts added in chunk (= node-index) order,
//! the event replay — and each worker's core holds its own nodes' inboxes
//! or in-ports, as the serial core holds everyone's, so a sharded run is
//! byte-identical to a serial run of the same seeded workload;
//! `crates/bench/tests/determinism.rs` pins this with table diffs and
//! transcript proptests.
//!
//! # Protocol
//!
//! One frame protocol serves both models.  Each frame is `[u16
//! version][u8 tag][payload]` (see [`WIRE_VERSION`] and the [`wire`]
//! codec).  A round is two exchanges per worker.  The host holds no
//! intents to show, so the coordinator's crash adversary is an oblivious
//! one ([`CrashAdversary::oblivious`]) and its crash phase comes first;
//! then the host sends `Deliver` with the round, the chunk's crashes and
//! every chunk's end index.  The worker runs the round's first phase as the
//! serial core does: `begin_round`, then the crashes, then `deliver`.  It
//! answers `Delivered`: its metric deltas and one [`Block`] per
//! destination chunk, its own chunk's left empty —
//! it keeps those survivors, unencoded.  The host splices each block, as
//! the bytes it arrived in, into its destination's `Receive` in
//! source-chunk (= sender) order; the receiving worker takes its own held
//! survivors at its own position, between the lower and the higher chunks'
//! blocks, and hands every message to its core's `accept`, which puts it in
//! an inbox (multi-port) or on its port (single-port).  Both answer
//! `Events`: the decisions and halts.  `Shutdown` ends the loop; a worker
//! treats transport EOF as shutdown, so a dying parent never leaves
//! workers spinning.  Both sides treat a frame as untrusted: an index
//! outside the chunk, a list of the wrong length or an event for another
//! chunk's node is an error, never a panic.
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
use std::marker::PhantomData;
use std::ops::Range;
use std::thread::JoinHandle;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::coordinator::{Coordinator, Host, Staged};
use crate::driver::{ChunkCore, NodeEvent, RoundCore, SinglePortCore};
use crate::error::{ShardError, SimError, SimResult};
use crate::message::{Delivered, Payload};
use crate::node::NodeSet;
use crate::parallel::ChunkPlan;
use crate::protocol::{SinglePortProtocol, SyncProtocol};
use crate::round::Round;
use crate::runner::Participant;

pub use intern::{Block, Slot, Slots};
pub use schema::{Schema, Verdict};
pub use transport::{
    read_frame, write_frame, ChannelTransport, ShardTransport, StreamTransport, MAX_FRAME_LEN,
};
pub use wire::{
    decode_error_path_violations, from_bytes, put_u64s, to_bytes, Wire, WireError, WireReader,
    WireResult,
};
// `#[macro_export]` puts the declaration macros at the crate root; the codec's
// users find them here, next to the trait they implement.
pub use crate::{wire_enum, wire_struct};

/// Version of the shard wire format.  Every frame carries it; both sides
/// reject a mismatch, so a peer built from another revision fails loudly
/// instead of silently mis-decoding.
pub const WIRE_VERSION: u16 = 14;

/// Frame tags (parent → worker).
const REQ_DELIVER: u8 = 2;
const REQ_RECEIVE: u8 = 3;
const REQ_SHUTDOWN: u8 = 5;

/// Frame tags (worker → parent).
const RESP_DELIVERED: u8 = 66;
const RESP_EVENTS: u8 = 67;

/// The protocol's name for a frame tag (`"?"` for a tag it does not define).
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        REQ_DELIVER => "Deliver",
        REQ_RECEIVE => "Receive",
        REQ_SHUTDOWN => "Shutdown",
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

/// Serves one chunk's core over `transport`, answering each request frame
/// until `Shutdown` or a clean EOF.
fn serve<C>(mut chunk: C, transport: &mut dyn ShardTransport) -> io::Result<()>
where
    C: ChunkCore<Msg: Wire, Output: Wire>,
{
    let (base, len) = (chunk.base(), chunk.len());
    // This round's survivors per destination chunk (reused), and the ones
    // for this chunk itself, held back until `Receive`.
    let mut outbound: Vec<Block<C::Msg>> = Vec::new();
    let mut held: Vec<(usize, Delivered<C::Msg>)> = Vec::new();
    // This chunk's index in the last `Deliver`'s partition.
    let mut own = 0;
    loop {
        let request = match transport.recv() {
            Ok(frame) => frame,
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(err) => return Err(err),
        };
        let (tag, mut r) = open_frame(&request).map_err(wire_io)?;
        let r = &mut r;
        let resp = match tag {
            REQ_SHUTDOWN => return Ok(()),
            REQ_DELIVER => {
                let round: Round = field(r)?;
                let crashed: Vec<(usize, DeliveryFilter)> = field(r)?;
                let ends: Vec<usize> = field(r)?;
                if ends.first().is_none_or(|&end| end == 0) || !ends.is_sorted_by(|a, b| a < b) {
                    return Err(bad_frame(format!("{ends:?} is no partition into chunks")));
                }
                chunk.begin_round(round);
                let mut filters = Vec::with_capacity(crashed.len());
                for (local, filter) in crashed {
                    chunk.set_crashed(check_local(local, len)?, round);
                    filters.push((base + local, filter));
                }
                let counts = chunk.deliver(&filters);
                // By chunk-local index; a node past the last has no chunk.
                outbound.resize_with(ends.len(), || Block(Vec::new()));
                for (dest, msg) in chunk.delivered().drain(..) {
                    let to = ends.partition_point(|&end| end <= dest);
                    let start = to.checked_sub(1).and_then(|before| ends.get(before));
                    if let Some(Block(list)) = outbound.get_mut(to) {
                        list.push((dest - start.copied().unwrap_or(0), msg));
                    }
                }
                own = ends.partition_point(|&end| end <= base);
                if let Some(Block(list)) = outbound.get_mut(own) {
                    std::mem::swap(list, &mut held);
                }
                let mut resp = frame(RESP_DELIVERED);
                (counts.messages, counts.bits, counts.byzantine_messages).encode(&mut resp);
                outbound.encode(&mut resp);
                outbound.iter_mut().for_each(|Block(list)| list.clear());
                resp
            }
            REQ_RECEIVE => {
                let round: Round = field(r)?;
                // In source-chunk order, which is sender order, with the
                // held survivors at this chunk's own position.
                let blocks: Vec<Block<C::Msg>> = field(r)?;
                let count = blocks.len();
                for (ci, Block(list)) in blocks.into_iter().enumerate() {
                    let own_first = if ci == own { held.len() } else { 0 };
                    for (local, msg) in held.drain(..own_first).chain(list) {
                        chunk.accept(check_local(local, len)?, msg);
                    }
                }
                if !held.is_empty() {
                    return Err(bad_frame(format!(
                        "a Receive of {count} blocks has no place for this chunk's own, block {own}"
                    )));
                }
                events_response(&mut chunk, round)
            }
            other => return Err(bad_frame(format!("unexpected shard request tag {other}"))),
        };
        transport.send(&resp)?;
    }
}

/// The header every frame opens with: the `u16` [`WIRE_VERSION`] and the
/// `u8` tag.
fn describe_frame(schema: &mut Schema) {
    schema.declare::<u16>();
    schema.declare::<u8>();
}

/// The wire roots of a sharded execution, of either model, with message
/// `M` and output `O`: the frame header and the fields the serve loop
/// ([`serve_multi_port`], [`serve_single_port`]) reads and writes.
/// Everything on the wire is reached from here (see [`schema`]).
pub fn describe_shard<M: WireMsg, O: Wire>(schema: &mut Schema) {
    describe_frame(schema);
    // Deliver and Receive open with the round.
    schema.declare::<Round>();
    // Deliver: the chunk's crashes, then every chunk's end index.
    schema.declare::<Vec<(usize, DeliveryFilter)>>();
    schema.declare::<Vec<usize>>();
    // Delivered: three counters, then a block per destination chunk;
    // Receive: a block per source chunk.
    schema.declare::<u64>();
    schema.declare::<Vec<Block<M>>>();
    // Events: decisions and halts.
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

/// Finalizes the chunk's round, encodes its decision/halt events as a
/// `RESP_EVENTS` frame and applies this round's voluntary halts to the
/// chunk (the in-process host does the latter during the coordinator's
/// replay; on a shard worker the serve loop is the only writer).
fn events_response<C: ChunkCore<Output: Wire>>(chunk: &mut C, round: Round) -> Vec<u8> {
    let base = chunk.base();
    chunk.finalize(round);
    let wire_events: Vec<WireEvent<C::Output>> = chunk
        .events()
        .iter()
        .map(|event| WireEvent {
            node: event.node,
            halted: event.halted,
            output: chunk
                .output(event.node - base)
                .filter(|_| event.decided)
                .cloned(),
        })
        .collect();
    let mut resp = frame(RESP_EVENTS);
    wire_events.encode(&mut resp);
    for event in wire_events.iter().filter(|event| event.halted) {
        chunk.set_halted(event.node - base);
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
/// undecodable payload, no partition, or an index outside this chunk); a
/// clean EOF before a request is treated as shutdown.
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
    serve(RoundCore::new(base, participants), transport)
}

/// Serves one single-port chunk over `transport` until `Shutdown` (or EOF):
/// the serve loop of [`serve_multi_port`] over a [`SinglePortCore`], which
/// keeps its nodes' in-ports itself.
///
/// # Errors
///
/// As [`serve_multi_port`].
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
    serve(SinglePortCore::new(base, nodes), transport)
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

    /// Receives shard `ci`'s pending response, checks its tag, decodes the
    /// payload and has `vet` check and finish it, reading what follows the
    /// payload itself if it wants; any failure — transport error, bad frame,
    /// wrong tag, undecodable or implausible payload — is the run's error.
    fn transact<T: Wire, U>(
        &mut self,
        ci: usize,
        expected: u8,
        vet: impl FnOnce(T, &mut WireReader<'_>) -> Result<U, String>,
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
        let vetted = payload.and_then(|payload| vet(payload, &mut r));
        vetted.map_err(|detail| self.fail(ci, tag, format!("response payload: {detail}")))
    }
}

/// Bound alias for message types the shard protocol can carry.
pub trait WireMsg: Payload + Wire {}
impl<M: Payload + Wire> WireMsg for M {}

/// Bound alias for output types the shard protocol can carry.
pub trait WireOutput: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static {}
impl<O: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static> WireOutput for O {}

/// The framed host: the chunks live behind shard transports, and a phase
/// runs on every chunk by sending each worker a request frame and reading
/// its response.
///
/// It never holds protocol state machines or messages — only the outputs
/// the workers report (`O`) and each chunk's next `Receive` frame.  `W`
/// names the workers' serve loop and message type ([`MultiPortWorkers`],
/// [`SinglePortWorkers`]); only the constructors read it.
pub struct Framed<O, W> {
    link: Link,
    outputs: Vec<Option<O>>,
    /// Per chunk, its next `Receive` frame, built from the `Delivered`
    /// responses as they come in: each source chunk's block for it, as
    /// bytes.
    queued: Vec<Vec<u8>>,
    workers: PhantomData<W>,
}

/// The workers of a [`ShardedRunner`]: [`serve_multi_port`] over messages
/// `M`.
pub struct MultiPortWorkers<M>(PhantomData<M>);

/// The workers of a [`SpShardedRunner`]: [`serve_single_port`] over
/// messages `M`.
pub struct SinglePortWorkers<M>(PhantomData<M>);

/// Opens a round-phase request: tag, then the round.
fn round_request(tag: u8, round: Round) -> Vec<u8> {
    let mut request = frame(tag);
    round.encode(&mut request);
    request
}

impl<O: WireOutput, W> Framed<O, W> {
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
            queued: vec![Vec::new(); chunks],
            workers: PhantomData,
        })
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "per-node tables have one slot per node and chunk tables one per chunk of the \
              ChunkPlan that `locate` / `range` answer from; a reply's lengths and indices are \
              vetted before they are used, and `own_nodes_only` refused any event outside the \
              chunk's range"
)]
impl<O: WireOutput, W> Host for Framed<O, W> {
    type Output = O;
    type Error = SimError;
    type Outcome<T> = SimResult<T>;

    const SHOWS_INTENTS: bool = false;

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

    /// Exchanges nothing: a worker begins its round when `Deliver` comes.
    fn begin_round(&mut self, round: Round) -> SimResult<()> {
        self.link.round = round.as_u64();
        Ok(())
    }

    fn deliver(&mut self, round: Round, crashed: &[(usize, DeliveryFilter)]) -> SimResult<Staged> {
        let chunks = self.link.chunks();
        let mut crashed_by_chunk = vec![Vec::new(); chunks];
        for (victim, filter) in crashed {
            let (ci, local) = self.link.plan.locate(*victim);
            crashed_by_chunk[ci].push((local, filter.clone()));
        }
        let ends: Vec<usize> = (0..chunks).map(|ci| self.link.range(ci).end).collect();
        for (ci, crashed) in crashed_by_chunk.iter().enumerate() {
            let mut request = round_request(REQ_DELIVER, round);
            crashed.encode(&mut request);
            ends.encode(&mut request);
            self.link.send_to(ci, &request)?;
        }
        for receive in &mut self.queued {
            *receive = round_request(REQ_RECEIVE, round);
            chunks.encode(receive);
        }
        let mut total = Staged::default();
        for ci in 0..chunks {
            // Counters and the block count, then one block per destination
            // chunk, each appended to that chunk's `Receive` as it stands
            // (a worker's block for itself is empty: it holds those back).
            type Counts = ((u64, u64, u64), usize);
            let queued = &mut self.queued;
            let vet = |(counts, blocks): Counts, r: &mut WireReader| {
                if blocks != chunks {
                    return Err(format!("{blocks} blocks for {chunks} chunks"));
                }
                for receive in queued.iter_mut() {
                    let block = r.block().map_err(|err| err.to_string())?;
                    block.len().encode(receive);
                    receive.extend_from_slice(block);
                }
                Ok(counts)
            };
            let (messages, bits, byzantine_messages) =
                self.link.transact(ci, RESP_DELIVERED, vet)?;
            total.messages += messages;
            total.bits += bits;
            total.byzantine_messages += byzantine_messages;
        }
        Ok(total)
    }

    /// Receives every chunk's `RESP_EVENTS`, keeps the reported outputs and
    /// appends the events in chunk (= node) order.  A worker may only speak
    /// for the nodes of its own chunk.
    fn finalize(&mut self, _round: Round, events: &mut Vec<NodeEvent>) -> SimResult<()> {
        // Taken, so no round's blocks stay resident into the next.
        for (ci, receive) in self.queued.iter_mut().enumerate() {
            self.link.send_to(ci, &std::mem::take(receive))?;
        }
        for ci in 0..self.link.chunks() {
            let range = self.link.range(ci);
            let own_nodes_only = |reported: Vec<WireEvent<O>>, _: &mut WireReader| match reported
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
/// transports: the round of `crate::coordinator` over the [`Framed`] host.
///
/// Generic over the message and output wire types only — the parent never
/// holds protocol state machines.  Use [`ShardedRunner::in_process`] to
/// serve the chunks on threads of this process, or
/// [`ShardedRunner::connect`] with transports to workers served elsewhere.
/// `run` is single-shot: it shuts the workers down.
pub type ShardedRunner<M, O> = Coordinator<Framed<O, MultiPortWorkers<M>>>;

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
    /// is inconsistent with `n` or the adversary is not
    /// [oblivious](CrashAdversary::oblivious) — before any transport is
    /// used.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        byzantine: NodeSet,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let central = Self::central(n, byzantine, adversary, fault_budget)?;
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
    /// number of nodes or the adversary is not
    /// [oblivious](CrashAdversary::oblivious) — before any worker is
    /// spawned.
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
        let central = Self::central(n, byzantine, adversary, fault_budget)?;
        let (workers, transports) = spawn_in_process(participants, shards, serve_multi_port);
        let host = Framed::new(n, shards, transports, workers)?;
        Ok(Coordinator::assemble(central, host))
    }
}

/// Coordinates one **single-port** execution whose chunks live behind shard
/// transports: the same host and frames as a [`ShardedRunner`], over
/// [`serve_single_port`] workers, whose cores keep their nodes' in-ports.
pub type SpShardedRunner<M, O> = Coordinator<Framed<O, SinglePortWorkers<M>>>;

impl<M: WireMsg, O: WireOutput> SpShardedRunner<M, O> {
    /// Connects a coordinator over `n` nodes to already-serving single-port
    /// shard workers (one transport per chunk of `shard_count(n, shards)`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] for zero nodes,
    /// [`SimError::InvalidConfig`] when the fault budget or transport count
    /// is inconsistent with `n` or the adversary is not
    /// [oblivious](CrashAdversary::oblivious) — before any transport is
    /// used.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let central = Self::central(n, NodeSet::empty(n), adversary, fault_budget)?;
        let host = Framed::new(n, shards, transports, Vec::new())?;
        Ok(Coordinator::assemble(central, host))
    }

    /// Spawns an in-process sharded single-port execution (see
    /// [`ShardedRunner::in_process`]).
    ///
    /// # Errors
    ///
    /// As [`ShardedRunner::in_process`].
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
        let central = Self::central(n, NodeSet::empty(n), adversary, fault_budget)?;
        let (workers, transports) = spawn_in_process(nodes, shards, serve_single_port);
        let host = Framed::new(n, shards, transports, workers)?;
        Ok(Coordinator::assemble(central, host))
    }
}

impl<O: WireOutput, W> Coordinator<Framed<O, W>> {
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
