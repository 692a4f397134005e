//! Host conformance: one table per round model.
//!
//! Every way of hosting an execution's chunks — one core inline, shard
//! workers behind channels or byte streams — must be observationally
//! identical to the serial run: same report, same trace, and, where one
//! core holds every node's in-ports, the same buffered-port diagnostics
//! (a sharded run's ports are spread over its workers' cores, out of the
//! coordinator's reach).  The rows of the two tables below are
//! those host configurations; the workload (Byzantine participant and three
//! kinds of crash included) is the same in every row.
//!
//! The toy protocols and worker helpers are shared with the failure tests
//! in `shard/tests.rs`.

use std::io::{self, Read, Write};
use std::sync::mpsc::{Receiver, Sender};

use crate::adversary::byzantine::FloodByzantine;
use crate::adversary::{CrashDirective, DeliveryFilter, FixedCrashSchedule};
use crate::message::{Delivered, Outgoing};
use crate::node::NodeId;
use crate::protocol::{SinglePortProtocol, SyncProtocol};
use crate::report::{check, ExecutionReport, Spec};
use crate::round::Round;
use crate::runner::{Participant, Runner};
use crate::shard::{
    serve_multi_port, serve_single_port, shard_count, shard_range, ChannelTransport,
    ShardTransport, ShardedRunner, SpShardedRunner, StreamTransport, Wire,
};
use crate::single_port::SinglePortRunner;
use crate::trace::Event;

/// Every node floods the OR of everything seen; decides after 3 receives.
pub(crate) struct FloodOr {
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl FloodOr {
    pub(crate) fn nodes(n: usize, one_at: usize) -> Vec<FloodOr> {
        (0..n)
            .map(|i| FloodOr {
                n,
                value: i == one_at,
                rounds: 0,
                decided: None,
            })
            .collect()
    }
}

impl SyncProtocol for FloodOr {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
        out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
        for m in inbox {
            self.value |= m.msg;
        }
        self.rounds += 1;
        if self.rounds >= 3 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// Ring for the single-port model: node `i` sends its OR to `i + 1`, polls
/// `i − 1`, decides after `2n` receives.
pub(crate) struct Ring {
    me: usize,
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl Ring {
    pub(crate) fn nodes(n: usize, one_at: usize) -> Vec<Ring> {
        (0..n)
            .map(|me| Ring {
                me,
                n,
                value: me == one_at,
                rounds: 0,
                decided: None,
            })
            .collect()
    }
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
        self.rounds += 1;
        if self.rounds >= 2 * self.n as u64 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// One crash of each kind: silent, partial delivery, after the send.
pub(crate) fn crash_schedule(n: usize) -> FixedCrashSchedule {
    FixedCrashSchedule::new()
        .crash_at(0, CrashDirective::silent(NodeId::new(1)))
        .crash_at(
            1,
            CrashDirective {
                node: NodeId::new(n / 2),
                deliver: DeliveryFilter::Prefix(3),
            },
        )
        .crash_at(2, CrashDirective::after_send(NodeId::new(n - 1)))
}

/// A `Read`/`Write` pair over byte channels, so the stream transport can be
/// exercised end-to-end without OS pipes.
pub(crate) struct ChannelStream {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

impl ChannelStream {
    pub(crate) fn pair() -> (ChannelStream, ChannelStream) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        let end = |tx, rx| ChannelStream {
            tx,
            rx,
            pending: Vec::new(),
        };
        (end(a_tx, a_rx), end(b_tx, b_rx))
    }
}

impl Read for ChannelStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(bytes) => self.pending = bytes,
                Err(_) => return Ok(0), // EOF
            }
        }
        let len = buf.len().min(self.pending.len());
        buf[..len].copy_from_slice(&self.pending[..len]);
        self.pending.drain(..len);
        Ok(len)
    }
}

impl Write for ChannelStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How a shard worker thread is reached.
#[derive(Clone, Copy)]
pub(crate) enum Wiring {
    /// A [`ChannelTransport`] pair.
    Channel,
    /// Length-prefixed frames over byte streams — the framing `dft-node`'s
    /// links use.
    Stream,
}

/// Runs `serve` on a fresh thread and returns the parent's end.  The
/// worker sees EOF when the parent drops its end and exits; its result is
/// ignored.
#[expect(
    clippy::disallowed_methods,
    reason = "the conformance table serves each worker on its own thread, as a backend would"
)]
pub(crate) fn spawn_worker(
    wiring: Wiring,
    serve: impl FnOnce(&mut dyn ShardTransport) -> io::Result<()> + Send + 'static,
) -> Box<dyn ShardTransport> {
    match wiring {
        Wiring::Channel => {
            let (parent_end, mut worker_end) = ChannelTransport::pair();
            std::thread::spawn(move || serve(&mut worker_end));
            Box::new(parent_end)
        }
        Wiring::Stream => {
            // One simplex stream per direction.
            let (to_worker_w, to_worker_r) = ChannelStream::pair();
            let (to_parent_w, to_parent_r) = ChannelStream::pair();
            std::thread::spawn(move || serve(&mut StreamTransport::new(to_worker_r, to_parent_w)));
            Box::new(StreamTransport::new(to_parent_r, to_worker_w))
        }
    }
}

/// Serves chunk `index` of `build()`'s nodes.
pub(crate) fn multi_port_worker<P>(
    build: fn(usize) -> Vec<Participant<P>>,
    n: usize,
    shards: usize,
    index: usize,
    wiring: Wiring,
) -> Box<dyn ShardTransport>
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let range = shard_range(n, shards, index);
    let chunk: Vec<_> = build(n)
        .into_iter()
        .skip(range.start)
        .take(range.len())
        .collect();
    spawn_worker(wiring, move |transport| {
        serve_multi_port(chunk, range.start, transport)
    })
}

/// Same, for single-port `Ring` chunks.
pub(crate) fn ring_worker(
    n: usize,
    shards: usize,
    index: usize,
    wiring: Wiring,
) -> Box<dyn ShardTransport> {
    let range = shard_range(n, shards, index);
    let chunk: Vec<Ring> = Ring::nodes(n, 0)
        .into_iter()
        .skip(range.start)
        .take(range.len())
        .collect();
    spawn_worker(wiring, move |transport| {
        serve_single_port(chunk, range.start, transport)
    })
}

/// A host configuration: one row of a conformance table.
#[derive(Clone, Copy, Debug)]
enum Hosting {
    /// One core in this process; `split` runs the execution in two `run()`
    /// calls, so the core's scratch persists across the boundary.
    InProcess { split: bool },
    /// `in_process` shard workers on the runner's own pool.
    Shards(usize),
    /// Two workers behind [`StreamTransport`]s.
    Streams,
}

const IN_PROCESS_AND_SHARDED: [Hosting; 6] = [
    Hosting::InProcess { split: true },
    Hosting::Shards(1),
    Hosting::Shards(2),
    Hosting::Shards(3),
    Hosting::Shards(5),
    Hosting::Streams,
];

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// The first `run()`'s report when the execution was split in two.
    partial: Option<ExecutionReport<bool>>,
    report: ExecutionReport<bool>,
    trace: Vec<Event>,
    /// `(buffered_messages, ports_in_use)` at the end, single-port and in
    /// process (`None` for a sharded row).
    ports: Option<(usize, usize)>,
}

/// The transports of a [`Hosting::Streams`] row.
fn stream_workers(
    n: usize,
    worker: impl Fn(usize, Wiring) -> Box<dyn ShardTransport>,
) -> Vec<Box<dyn ShardTransport>> {
    let indices = 0..shard_count(n, 2);
    indices.map(|i| worker(i, Wiring::Stream)).collect()
}

/// Node 0 is Byzantine (floods everyone, never halts); the rest flood the
/// OR of what they have seen.
pub(crate) fn flood_participants(n: usize) -> Vec<Participant<FloodOr>> {
    let mut participants: Vec<_> = FloodOr::nodes(n, 3)
        .into_iter()
        .map(Participant::Honest)
        .collect();
    participants[0] = Participant::Byzantine(Box::new(FloodByzantine::<bool>::new(n)));
    participants
}

fn run_multi_port(hosting: Hosting, n: usize) -> Transcript {
    const ROUNDS: u64 = 10;
    let adversary = Box::new(crash_schedule(n));
    let participants = flood_participants(n);
    if let Hosting::InProcess { split } = hosting {
        let mut runner = Runner::with_participants(participants, adversary, 3).unwrap();
        runner.enable_trace();
        return Transcript {
            partial: split.then(|| runner.run(2)),
            report: runner.run(ROUNDS),
            trace: runner.trace().events().to_vec(),
            ports: None,
        };
    }
    let mut runner = if let Hosting::Shards(shards) = hosting {
        ShardedRunner::in_process(participants, adversary, 3, shards).unwrap()
    } else {
        let worker = |index, wiring| multi_port_worker(flood_participants, n, 2, index, wiring);
        let transports = stream_workers(n, worker);
        let byzantine = Participant::byzantine_set(&participants);
        ShardedRunner::connect(n, adversary, 3, byzantine, 2, transports).unwrap()
    };
    runner.enable_trace();
    let report = runner.run(ROUNDS).expect("sharded run");
    Transcript {
        partial: None,
        report,
        trace: runner.trace().events().to_vec(),
        ports: None,
    }
}

fn run_single_port(hosting: Hosting, n: usize) -> Transcript {
    let rounds = 3 * n as u64;
    let adversary = Box::new(crash_schedule(n));
    if let Hosting::InProcess { split } = hosting {
        let mut runner = SinglePortRunner::with_adversary(Ring::nodes(n, 0), adversary, 3).unwrap();
        runner.enable_trace();
        return Transcript {
            partial: split.then(|| runner.run(n as u64)),
            report: runner.run(rounds),
            trace: runner.trace().events().to_vec(),
            ports: Some((runner.buffered_messages(), runner.ports_in_use())),
        };
    }
    let mut runner = if let Hosting::Shards(shards) = hosting {
        SpShardedRunner::in_process(Ring::nodes(n, 0), adversary, 3, shards).unwrap()
    } else {
        let transports = stream_workers(n, |index, wiring| ring_worker(n, 2, index, wiring));
        SpShardedRunner::connect(n, adversary, 3, 2, transports).unwrap()
    };
    runner.enable_trace();
    let report = runner.run(rounds).expect("sharded run");
    Transcript {
        partial: None,
        report,
        trace: runner.trace().events().to_vec(),
        ports: None,
    }
}

/// Runs every row and compares it with the serial transcript; a run split
/// in two `run()` calls must really have stopped mid-execution and still
/// end where the whole one does.  Port diagnostics are compared on the
/// in-process rows only.
fn assert_conformance(run: impl Fn(Hosting) -> Transcript) -> Transcript {
    let serial = run(Hosting::InProcess { split: false });
    for hosting in IN_PROCESS_AND_SHARDED {
        let mut transcript = run(hosting);
        if let Some(partial) = transcript.partial.take() {
            assert_ne!(partial, serial.report, "{hosting:?}: split mid-execution");
        }
        if let Hosting::Shards(_) | Hosting::Streams = hosting {
            assert_eq!(transcript.ports, None);
            transcript.ports = serial.ports;
        }
        assert_eq!(serial, transcript, "{hosting:?}");
    }
    serial
}

#[test]
fn multi_port_hosts_conform_to_the_serial_run() {
    let serial = assert_conformance(|hosting| run_multi_port(hosting, 137));
    assert_eq!(serial.report.metrics.crashes, 3);
    assert!(serial.report.byzantine.contains(NodeId::new(0)));
    assert!(serial.report.metrics.byzantine_messages > 0);
    assert_eq!(
        check(&serial.report, &Spec::decisions(|_, _, _| Ok(()))),
        Ok(())
    );
    assert!(!serial.trace.is_empty());
}

#[test]
fn single_port_hosts_conform_to_the_serial_run() {
    let serial = assert_conformance(|hosting| run_single_port(hosting, 24));
    assert_eq!(serial.report.metrics.crashes, 3);
    assert_eq!(
        check(&serial.report, &Spec::decisions(|_, _, _| Ok(()))),
        Ok(())
    );
    assert!(!serial.trace.is_empty());
}
