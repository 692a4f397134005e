//! The execution backends the benchmark drives, behind two small traits:
//! [`Backend`] (a production runner: construct, then run to termination)
//! and [`Model`] (a round model: its production runner, its reference
//! coordinator, and how its state machines are wrapped in [`Timed`]).

use std::fmt::Debug;
use std::sync::Arc;

use dft_core::{ExtantSet, Gossip, GossipMsg};
use dft_sim::shard::{self, ChannelTransport, ShardTransport, ShardedRunner, Wire};
use dft_sim::{
    CrashAdversary, ExecutionReport, NodeSet, Participant, Runner, SinglePortProtocol,
    SinglePortRunner, SyncProtocol,
};

use crate::probe::{PhaseClock, Probe, Timed, TimedTransport, TransportStats};
use crate::reference::{self, CoordCounts, Transcript};

/// Shard workers of `gossip_sharded`.  The coordinator blocks while they
/// run, so at most two threads are runnable — the box has two cores.
pub const SHARDS: usize = 2;

/// A production runner over state machines `N` with outputs `O`.
pub trait Backend<N, O>: Sized {
    fn construct(nodes: N, adversary: Box<dyn CrashAdversary>, budget: usize) -> Self;

    /// Runs to termination or `max_rounds`; the strings are failures of the
    /// backend itself (none of the serial runners has any).
    fn run(&mut self, max_rounds: u64) -> (ExecutionReport<O>, Vec<String>);
}

/// The serial multi-port `Runner` (`jobs = 1`).
impl<P: SyncProtocol> Backend<Vec<Participant<P>>, P::Output> for Runner<P> {
    fn construct(
        nodes: Vec<Participant<P>>,
        adversary: Box<dyn CrashAdversary>,
        budget: usize,
    ) -> Self {
        Runner::with_participants(nodes, adversary, budget).expect("a valid system")
    }

    fn run(&mut self, max_rounds: u64) -> (ExecutionReport<P::Output>, Vec<String>) {
        (Runner::run(self, max_rounds), Vec::new())
    }
}

/// The serial `SinglePortRunner` (`jobs = 1`).
impl<P: SinglePortProtocol> Backend<Vec<P>, P::Output> for SinglePortRunner<P> {
    fn construct(nodes: Vec<P>, adversary: Box<dyn CrashAdversary>, budget: usize) -> Self {
        SinglePortRunner::with_adversary(nodes, adversary, budget).expect("a valid system")
    }

    fn run(&mut self, max_rounds: u64) -> (ExecutionReport<P::Output>, Vec<String>) {
        (SinglePortRunner::run(self, max_rounds), Vec::new())
    }
}

/// `ShardedRunner::in_process`: [`SHARDS`] workers on the runner's own pool
/// behind `ChannelTransport`s, every frame through the full codec.
impl Backend<Vec<Participant<Gossip>>, ExtantSet> for ShardedRunner<GossipMsg, ExtantSet> {
    fn construct(
        nodes: Vec<Participant<Gossip>>,
        adversary: Box<dyn CrashAdversary>,
        budget: usize,
    ) -> Self {
        ShardedRunner::in_process(nodes, adversary, budget, SHARDS).expect("a valid system")
    }

    /// No recovery action may run: a respawn or a fallback would be timed
    /// as if it were work.
    fn run(&mut self, max_rounds: u64) -> (ExecutionReport<ExtantSet>, Vec<String>) {
        let report = ShardedRunner::run(self, max_rounds).expect("no shard worker fails");
        let recovery = self.recovery_stats();
        let failures = if recovery == shard::RecoveryStats::default() {
            Vec::new()
        } else {
            vec![format!("sharded recovery ran: {recovery:?}")]
        };
        (report, failures)
    }
}

/// A round model over protocol `P`.
pub trait Model<P> {
    type Nodes;
    type Msg: Wire + Clone;
    type Output: Clone + PartialEq + Debug;
    type Runner: Backend<Self::Nodes, Self::Output>;

    /// The reference coordinator of this model (see [`crate::reference`]).
    fn reference(
        nodes: Self::Nodes,
        adversary: Box<dyn CrashAdversary>,
        budget: usize,
        max_rounds: u64,
        clock: &mut PhaseClock<'_>,
        capture_every: u64,
        capture: &mut Vec<Self::Msg>,
    ) -> (Transcript<Self::Output>, CoordCounts);
}

/// A model whose state machines can be wrapped in [`Timed`] without
/// changing what they exchange or decide.
pub trait Instrumented<P>:
    Model<P> + Model<Timed<P>, Msg = <Self as Model<P>>::Msg, Output = <Self as Model<P>>::Output>
{
    fn timed(
        nodes: <Self as Model<P>>::Nodes,
        probe: &Arc<Probe>,
    ) -> <Self as Model<Timed<P>>>::Nodes;
}

pub struct MultiPort;
pub struct SinglePort;

impl<P> Model<P> for MultiPort
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: PartialEq,
{
    type Nodes = Vec<Participant<P>>;
    type Msg = P::Msg;
    type Output = P::Output;
    type Runner = Runner<P>;

    fn reference(
        nodes: Self::Nodes,
        adversary: Box<dyn CrashAdversary>,
        budget: usize,
        max_rounds: u64,
        clock: &mut PhaseClock<'_>,
        capture_every: u64,
        capture: &mut Vec<P::Msg>,
    ) -> (Transcript<P::Output>, CoordCounts) {
        reference::run_multi_port(
            nodes,
            adversary,
            budget,
            max_rounds,
            clock,
            capture_every,
            capture,
        )
    }
}

impl<P> Instrumented<P> for MultiPort
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: PartialEq,
{
    fn timed(nodes: Vec<Participant<P>>, probe: &Arc<Probe>) -> Vec<Participant<Timed<P>>> {
        timed_participants(nodes, probe)
    }
}

impl<P> Model<P> for SinglePort
where
    P: SinglePortProtocol,
    P::Msg: Wire,
    P::Output: PartialEq,
{
    type Nodes = Vec<P>;
    type Msg = P::Msg;
    type Output = P::Output;
    type Runner = SinglePortRunner<P>;

    fn reference(
        nodes: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        budget: usize,
        max_rounds: u64,
        clock: &mut PhaseClock<'_>,
        capture_every: u64,
        capture: &mut Vec<P::Msg>,
    ) -> (Transcript<P::Output>, CoordCounts) {
        reference::run_single_port(
            nodes,
            adversary,
            budget,
            max_rounds,
            clock,
            capture_every,
            capture,
        )
    }
}

impl<P> Instrumented<P> for SinglePort
where
    P: SinglePortProtocol,
    P::Msg: Wire,
    P::Output: PartialEq,
{
    fn timed(nodes: Vec<P>, probe: &Arc<Probe>) -> Vec<Timed<P>> {
        nodes
            .into_iter()
            .map(|node| Timed::new(node, Arc::clone(probe)))
            .collect()
    }
}

/// Wraps every honest participant in a [`Timed`] reporting to `probe`.
fn timed_participants<P: SyncProtocol>(
    participants: Vec<Participant<P>>,
    probe: &Arc<Probe>,
) -> Vec<Participant<Timed<P>>> {
    participants
        .into_iter()
        .map(|participant| match participant {
            Participant::Honest(node) => Participant::Honest(Timed::new(node, Arc::clone(probe))),
            Participant::Byzantine(strategy) => Participant::Byzantine(strategy),
        })
        .collect()
}

/// The traced sharded execution: the same coordinator
/// (`ShardedRunner::connect`) over [`TimedTransport`]s, with the workers
/// (`serve_multi_port` over [`Timed`] nodes) on threads of the benchmark's
/// own, each reporting to its own probe.  `run` receives the connected
/// runner; the workers are joined before this returns.
pub fn with_traced_shards<T>(
    nodes: Vec<Participant<Gossip>>,
    adversary: Box<dyn CrashAdversary>,
    budget: usize,
    stats: &Arc<TransportStats>,
    probes: &[Arc<Probe>],
    run: impl FnOnce(ShardedRunner<GossipMsg, ExtantSet>) -> T,
) -> T {
    let n = nodes.len();
    assert_eq!(
        shard::shard_count(n, SHARDS),
        probes.len(),
        "one probe per shard worker"
    );
    let mut nodes = nodes.into_iter();
    std::thread::scope(|scope| {
        let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
        for (index, probe) in probes.iter().enumerate() {
            let range = shard::shard_range(n, SHARDS, index);
            let chunk: Vec<_> = nodes.by_ref().take(range.len()).collect();
            let chunk = timed_participants(chunk, probe);
            let (coordinator_end, mut worker_end) = ChannelTransport::pair();
            scope.spawn(move || {
                shard::serve_multi_port(chunk, range.start, &mut worker_end)
                    .expect("a shard worker serves until shutdown");
            });
            let transport = TimedTransport::new(coordinator_end, Arc::clone(stats));
            transports.push(Box::new(transport));
        }
        let runner =
            ShardedRunner::connect(n, adversary, budget, NodeSet::empty(n), SHARDS, transports)
                .expect("a valid system");
        // `run` consumes the runner: once it is dropped the channels close
        // and every worker returns, so the scope's join cannot hang.
        run(runner)
    })
}
