//! Differential test of the activity hint (`quiet_until`).
//!
//! A protocol that states a hint promises that the calls a round core
//! leaves out would have done nothing.  [`AlwaysAwake`] forwards every
//! method of a protocol except the hint, so a core calls it every round,
//! as cores did before the hint existed; for every protocol that states
//! one, under every kind of crash adversary, through both in-process
//! runners and both sharded ones, the two executions must produce the same
//! [`ExecutionReport`] to the last field (outputs, crash and halt rounds,
//! every `Metrics` counter and the per-round message series).
//!
//! In a debug build the cores also make the calls they would skip and
//! assert that they come back empty, so this suite doubles as the contract
//! checker's workload; in `--release` it compares a run that really skips
//! against one that does not.

#![expect(
    clippy::expect_used,
    reason = "helpers of a test target: a panic here is a failing test"
)]

use linear_dft::core::{
    linear_consensus_for_all_nodes, many_crashes_for_all_nodes, AeaConfig,
    AlmostEverywhereAgreement, Checkpointing, FewCrashesConsensus, Gossip, ScvConfig,
    SpreadCommonValue, SystemConfig,
};
use linear_dft::sim::shard::{ShardedRunner, SpShardedRunner, Wire, WireOutput};
use linear_dft::sim::{
    AdaptiveSplitAdversary, CrashAdversary, Delivered, ExecutionReport, NoFaults, NodeId, Outgoing,
    Participant, RandomCrashes, Round, Runner, SinglePortProtocol, SinglePortRunner, SyncProtocol,
    TargetedCrashes,
};

/// Forwards everything except `quiet_until`: the protocol with its hint
/// taken away.
struct AlwaysAwake<P>(P);

impl<P: SyncProtocol> SyncProtocol for AlwaysAwake<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<P::Msg>>) {
        self.0.send(round, out);
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<P::Msg>]) {
        self.0.receive(round, inbox);
    }

    fn output(&self) -> Option<P::Output> {
        self.0.output()
    }

    fn has_halted(&self) -> bool {
        self.0.has_halted()
    }
}

impl<P: SinglePortProtocol> SinglePortProtocol for AlwaysAwake<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> Option<Outgoing<P::Msg>> {
        self.0.send(round)
    }

    fn poll(&mut self, round: Round) -> Option<NodeId> {
        self.0.poll(round)
    }

    fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<P::Msg>) {
        self.0.receive(round, from, msgs);
    }

    fn output(&self) -> Option<P::Output> {
        self.0.output()
    }

    fn has_halted(&self) -> bool {
        self.0.has_halted()
    }
}

const SHARDS: usize = 2;

/// A system size the suite runs at.
#[derive(Clone, Copy)]
struct System {
    n: usize,
    t: usize,
}

/// Both sides of `t² ≤ n`: `Spread-Common-Value` asks every little node
/// directly on the first and inquires by phase on the second.
const SYSTEMS: [System; 2] = [System { n: 60, t: 7 }, System { n: 100, t: 15 }];

const MULTI_PORT_ADVERSARIES: usize = 3;
const SINGLE_PORT_ADVERSARIES: usize = 4;

impl System {
    fn config(self) -> SystemConfig {
        SystemConfig::new(self.n, self.t)
            .expect("t < n/5")
            .with_seed(5)
    }

    fn mixed_inputs(self) -> Vec<bool> {
        (0..self.n).map(|i| i % 3 == 0).collect()
    }

    /// The crash adversaries every protocol is run under, by index, with
    /// label and budget: none; random over the whole schedule; one little
    /// node per round from round 0 (the worst place to hit the flooding
    /// part); and, for the single-port model only, the adaptive one, which
    /// reads the watched node's send and poll intents every round — so it
    /// sees at once if a skipped node's slot were left stale.
    fn adversary(self, kind: usize, horizon: u64) -> (String, Box<dyn CrashAdversary>, usize) {
        let System { n, t } = self;
        let (label, adversary, budget): (_, Box<dyn CrashAdversary>, _) = match kind {
            0 => ("no faults", Box::new(NoFaults), 0),
            1 => {
                let random = RandomCrashes::new(n, t, horizon, 11);
                ("random crashes", Box::new(random), t)
            }
            2 => {
                let little = (0..t).map(NodeId::new).collect();
                let one_per_round = TargetedCrashes::one_per_round(little);
                ("little nodes, one per round", Box::new(one_per_round), t)
            }
            _ => {
                let split = AdaptiveSplitAdversary::new(NodeId::new(3));
                ("adaptive split around node 3", Box::new(split), t)
            }
        };
        (format!("n = {n}, t = {t}, {label}"), adversary, budget)
    }
}

/// Runs the nodes `build` makes (with their round budget) at each system
/// size with and without their hint, in the runner and across shard
/// workers, under every adversary, and compares the reports.
fn assert_hint_is_invisible<P>(name: &str, build: impl Fn(System) -> (Vec<P>, u64))
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: WireOutput,
{
    for system in SYSTEMS {
        let (_, rounds) = build(system);
        let build = || build(system).0;
        let max_rounds = rounds + 2;
        for kind in 0..MULTI_PORT_ADVERSARIES {
            let adversary = || system.adversary(kind, rounds);
            let (label, always_adversary, budget) = adversary();
            let context = format!("{name}, {label}");

            let awake = build().into_iter().map(AlwaysAwake).collect();
            let always = Runner::with_adversary(awake, always_adversary, budget);
            let mut always = always.expect("runner");
            let expected: ExecutionReport<P::Output> = always.run(max_rounds);

            let hinted = Runner::with_adversary(build(), adversary().1, budget);
            let mut hinted = hinted.expect("runner");
            assert_eq!(hinted.run(max_rounds), expected, "{context}: Runner");
            assert!(
                hinted.active_node_rounds() < always.active_node_rounds(),
                "{context}: the hint skipped nothing ({} node-rounds called)",
                hinted.active_node_rounds()
            );

            let participants = build().into_iter().map(Participant::Honest).collect();
            let sharded = ShardedRunner::in_process(participants, adversary().1, budget, SHARDS);
            let report = sharded.expect("sharded runner").run(max_rounds);
            assert_eq!(
                report.expect("no shard fails"),
                expected,
                "{context}: ShardedRunner"
            );
        }
    }
}

#[test]
fn almost_everywhere_agreement() {
    assert_hint_is_invisible("AEA", |system| {
        let config = system.config();
        let rounds = AeaConfig::from_system(&config).unwrap().total_rounds();
        let inputs = system.mixed_inputs();
        let nodes = AlmostEverywhereAgreement::for_all_nodes(&config, &inputs).unwrap();
        (nodes, rounds)
    });
}

#[test]
fn spread_common_value() {
    assert_hint_is_invisible("SCV", |system| {
        let config = system.config();
        let rounds = ScvConfig::from_system(&config).unwrap().total_rounds();
        // The little nodes start without the value, so Part 2's inquiries
        // run.
        let initials: Vec<Option<bool>> = (0..system.n)
            .map(|i| (i >= system.n / 3).then_some(true))
            .collect();
        let nodes = SpreadCommonValue::for_all_nodes(&config, &initials).unwrap();
        (nodes, rounds)
    });
}

#[test]
fn few_crashes_consensus() {
    assert_hint_is_invisible("Few-Crashes-Consensus", |system| {
        let inputs = system.mixed_inputs();
        let nodes = FewCrashesConsensus::for_all_nodes(&system.config(), &inputs).unwrap();
        let rounds = nodes[0].total_rounds();
        (nodes, rounds)
    });
}

#[test]
fn many_crashes_consensus() {
    assert_hint_is_invisible("Many-Crashes-Consensus", |system| {
        let inputs = system.mixed_inputs();
        let nodes = many_crashes_for_all_nodes(&system.config(), &inputs).unwrap();
        let rounds = nodes[0].total_rounds();
        (nodes, rounds)
    });
}

#[test]
fn gossip() {
    assert_hint_is_invisible("Gossip", |system| {
        let rumors: Vec<u64> = (0..system.n as u64).map(|i| 1_000 + i).collect();
        let nodes = Gossip::for_all_nodes(&system.config(), &rumors).unwrap();
        let rounds = nodes[0].total_rounds();
        (nodes, rounds)
    });
}

#[test]
fn checkpointing() {
    assert_hint_is_invisible("Checkpointing", |system| {
        let nodes = Checkpointing::for_all_nodes(&system.config()).unwrap();
        let rounds = nodes[0].total_rounds();
        (nodes, rounds)
    });
}

#[test]
fn linear_consensus_single_port() {
    for system in SYSTEMS {
        let build = || {
            let inputs = system.mixed_inputs();
            linear_consensus_for_all_nodes(&system.config(), &inputs).unwrap()
        };
        let (_, rounds) = build();
        let build = || build().0;
        let max_rounds = rounds + 4;
        for kind in 0..SINGLE_PORT_ADVERSARIES {
            let adversary = || system.adversary(kind, rounds);
            let (label, always_adversary, budget) = adversary();

            let awake = build().into_iter().map(AlwaysAwake).collect();
            let mut always =
                SinglePortRunner::with_adversary(awake, always_adversary, budget).unwrap();
            let expected = always.run(max_rounds);
            assert!(expected.metrics.messages > 0, "{label}: nothing was sent");

            let mut hinted =
                SinglePortRunner::with_adversary(build(), adversary().1, budget).unwrap();
            assert_eq!(
                hinted.run(max_rounds),
                expected,
                "{label}: SinglePortRunner"
            );
            assert_eq!(
                (hinted.buffered_messages(), hinted.ports_in_use()),
                (always.buffered_messages(), always.ports_in_use()),
                "{label}: what is left on the ports"
            );
            assert!(
                hinted.active_node_rounds() * 2 < always.active_node_rounds(),
                "{label}: the adapter's hint skipped too little ({} of {} node-rounds called)",
                hinted.active_node_rounds(),
                always.active_node_rounds()
            );

            let mut sharded =
                SpShardedRunner::in_process(build(), adversary().1, budget, SHARDS).unwrap();
            assert_eq!(
                sharded.run(max_rounds).unwrap(),
                expected,
                "{label}: SpShardedRunner"
            );
        }
    }
}
