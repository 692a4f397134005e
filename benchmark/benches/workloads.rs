//! The five workloads: how each builds its inputs from the seed, which
//! backend executes it, and the oracles every execution must pass.
//!
//! The seed feeds the overlays (through `SystemConfig::with_seed`), the
//! inputs, the key directory, the crash schedule and the choice of Byzantine
//! nodes; the program under test sees only what was generated from it.

use std::sync::Arc;
use std::time::Instant;

use dft_auth::KeyDirectory;
use dft_core::{
    linear_consensus_for_all_nodes, AbConsensus, Checkpoint, Checkpointing, ExtantSet,
    FewCrashesConsensus, Gossip, LinearConsensus, SystemConfig,
};
use dft_sim::adversary::byzantine::{ReplayByzantine, SilentByzantine};
use dft_sim::{
    CrashAdversary, CrashDirective, DeliveryFilter, FixedCrashSchedule, NoFaults, NodeId,
    Participant, RandomCrashes, SyncProtocol,
};

use crate::reference::Transcript;

/// A kernel over one leaf layer (see [`crate::kernels`]).
#[derive(Clone, Copy, PartialEq)]
pub enum Kernel {
    Overlay,
    Extant,
    Auth,
    Wire,
}

/// One workload's fixed parameters.
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub t: usize,
    /// Builds per set-up sample: where one build takes a few milliseconds
    /// the sample times this many back-to-back builds and reports the mean,
    /// so that a sample spans at least a quarter of a second.
    pub setup_repeats: usize,
    /// The kernels a traced run executes: those of the layers this workload
    /// spends time in.  The others would cost a second of the run to report
    /// values that move nothing here; their metrics read 0.
    pub kernels: &'static [Kernel],
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "crash_sparse",
        n: 4000,
        t: 799,
        setup_repeats: 1,
        kernels: &[Kernel::Overlay],
    },
    Spec {
        name: "checkpoint_dense",
        n: 1200,
        t: 150,
        setup_repeats: 1,
        kernels: &[Kernel::Overlay, Kernel::Extant],
    },
    Spec {
        name: "byzantine_auth",
        n: 1000,
        t: 31,
        setup_repeats: 96,
        kernels: &[Kernel::Auth],
    },
    Spec {
        name: "single_port",
        n: 1600,
        t: 200,
        setup_repeats: 1,
        kernels: &[Kernel::Overlay],
    },
    Spec {
        name: "gossip_sharded",
        n: 700,
        t: 10,
        setup_repeats: 48,
        kernels: &[Kernel::Extant, Kernel::Wire],
    },
];

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// nothing but the seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn draw(seed: u64, index: usize) -> u64 {
    mix(seed ^ mix(index as u64))
}

/// One execution ready to run: its state machines, adversary, fault budget,
/// round cap (the protocol's own budget plus two rounds of slack, as the
/// experiment harness runs it) and the oracle over its transcript.
pub struct Built<N, O> {
    pub nodes: N,
    pub adversary: Box<dyn CrashAdversary>,
    pub budget: usize,
    pub plan: Plan<O>,
}

/// A workload's oracle: the failures it finds in an execution's transcript.
pub type Oracle<O> = Box<dyn Fn(&Transcript<O>) -> Vec<String>>;

/// The part of a [`Built`] execution that outlives its state machines.
pub struct Plan<O> {
    pub max_rounds: u64,
    /// Seconds spent on `SystemConfig`, inputs and keys, and on the shared
    /// protocol configuration (overlays) plus the `n` state machines.
    pub config_s: f64,
    pub nodes_s: f64,
    pub check: Oracle<O>,
}

pub type MultiPortBuilt<P> = Built<Vec<Participant<P>>, <P as SyncProtocol>::Output>;

fn system(spec: &Spec, seed: u64) -> SystemConfig {
    SystemConfig::new(spec.n, spec.t)
        .expect("workload sizes are valid")
        .with_seed(seed)
}

/// Times the two halves of a build.
fn staged<A, B>(first: impl FnOnce() -> A, second: impl FnOnce(&A) -> B) -> (A, B, f64, f64) {
    let start = Instant::now();
    let a = first();
    let middle = Instant::now();
    let b = second(&a);
    let end = Instant::now();
    (
        a,
        b,
        (middle - start).as_secs_f64(),
        (end - middle).as_secs_f64(),
    )
}

fn crashes(spec: &Spec, faulty: bool, horizon: u64, seed: u64) -> (Box<dyn CrashAdversary>, usize) {
    if faulty {
        let adversary = RandomCrashes::new(spec.n, spec.t, horizon, seed);
        (Box::new(adversary), spec.t)
    } else {
        (Box::new(NoFaults), spec.t)
    }
}

/// The first round in which `Gossip` has every node's rumor out of its own
/// hands: little nodes inquire in round 0 and are answered in round 1.
const RUMORS_OUT: u64 = 2;

/// A full-budget crash schedule for `Checkpointing`, whose running time has
/// two levels that `RandomCrashes` picks between by chance: a node that
/// crashes before round [`RUMORS_OUT`] takes its rumor with it, no extant set
/// ever fills, and every `ExtantSet::merge` of the execution is a pass over
/// all `n` slots instead of the O(1) return a full set gives (7.4 s against
/// 2.9 s at n = 2000, on 8 seeds of 44).  So the schedule decides it: all
/// crashes fall uniformly into `[RUMORS_OUT, horizon)` with a random delivery
/// filter, as `RandomCrashes` draws them, except that with `lose_a_rumor` the
/// first victim crashes silently in round 0 instead.
fn staged_crashes(
    spec: &Spec,
    seed: u64,
    horizon: u64,
    lose_a_rumor: bool,
) -> Box<dyn CrashAdversary> {
    let seed = seed ^ 0xC2A5_4ED1;
    let mut victims: Vec<usize> = (0..spec.n).collect();
    let mut schedule = FixedCrashSchedule::new();
    for k in 0..spec.t {
        let pick = k + (draw(seed, 3 * k) % (spec.n - k) as u64) as usize;
        victims.swap(k, pick);
        let node = NodeId::new(victims[k]);
        let round = RUMORS_OUT + draw(seed, 3 * k + 1) % (horizon - RUMORS_OUT);
        let filter = draw(seed, 3 * k + 2);
        let deliver = match filter % 3 {
            0 => DeliveryFilter::All,
            1 => DeliveryFilter::None,
            _ => DeliveryFilter::Prefix((filter >> 8) as usize % 8),
        };
        schedule = if k == 0 && lose_a_rumor {
            schedule.crash_at(0, CrashDirective::silent(node))
        } else {
            schedule.crash_at(round, CrashDirective { node, deliver })
        };
    }
    Box::new(schedule)
}

/// The oracles every execution shares: termination within the protocol's
/// own round budget, every non-faulty node decided, and — for the agreement
/// problems — agreement among the non-faulty on a valid value.
fn common_failures<O: PartialEq>(
    t: &Transcript<O>,
    round_budget: u64,
    agreement_on: Option<&dyn Fn(&O) -> bool>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !t.all_halted {
        failures.push(format!("not terminated after {} rounds", t.rounds));
    }
    if t.rounds > round_budget {
        failures.push(format!(
            "{} rounds exceed the protocol's budget of {round_budget}",
            t.rounds
        ));
    }
    let non_faulty = || (0..t.outputs.len()).filter(|&i| t.non_faulty(i));
    if let Some(node) = non_faulty().find(|&i| t.outputs[i].is_none()) {
        failures.push(format!("non-faulty node {node} did not decide"));
    }
    if let Some(valid) = agreement_on {
        let mut decisions = non_faulty().filter_map(|i| t.outputs[i].as_ref());
        if let Some(first) = decisions.next() {
            if decisions.any(|other| other != first) {
                failures.push("non-faulty nodes disagree".to_string());
            }
            if !valid(first) {
                failures.push("the decision is not a valid value".to_string());
            }
        }
    }
    failures
}

/// `Few-Crashes-Consensus` (Theorem 7) on random boolean inputs.
pub fn few_crashes(
    spec: &Spec,
    seed: u64,
    faulty: bool,
) -> MultiPortBuilt<FewCrashesConsensus<bool>> {
    let ((_, inputs), nodes, config_s, nodes_s) = staged(
        || {
            let inputs: Vec<bool> = (0..spec.n).map(|i| draw(seed, i) & 1 == 1).collect();
            (system(spec, seed), inputs)
        },
        |(config, inputs)| {
            FewCrashesConsensus::for_all_nodes(config, inputs).expect("t < n/5 by construction")
        },
    );
    let round_budget = nodes[0].total_rounds();
    let (adversary, budget) = crashes(spec, faulty, round_budget, seed);
    Built {
        nodes: nodes.into_iter().map(Participant::Honest).collect(),
        adversary,
        budget,
        plan: Plan {
            max_rounds: round_budget + 2,
            config_s,
            nodes_s,
            check: Box::new(move |t| {
                common_failures(t, round_budget, Some(&|decision| inputs.contains(decision)))
            }),
        },
    }
}

/// `Checkpointing` (Theorem 10) under a full-budget crash schedule that
/// loses one node's rumor or none (see [`staged_crashes`]).
pub fn checkpointing(spec: &Spec, seed: u64, lose_a_rumor: bool) -> MultiPortBuilt<Checkpointing> {
    let (_, nodes, config_s, nodes_s) = staged(
        || system(spec, seed),
        |config| Checkpointing::for_all_nodes(config).expect("t < n/5 by construction"),
    );
    let round_budget = nodes[0].total_rounds();
    let adversary = staged_crashes(spec, seed, round_budget, lose_a_rumor);
    let n = spec.n;
    Built {
        nodes: nodes.into_iter().map(Participant::Honest).collect(),
        adversary,
        budget: spec.t,
        plan: Plan {
            max_rounds: round_budget + 2,
            config_s,
            nodes_s,
            check: Box::new(move |t: &Transcript<Checkpoint>| {
                // The agreed set must hold every node that never crashed, and
                // nothing that is not a node.
                let valid = |set: &Checkpoint| {
                    set.iter().all(|&i| i < n)
                        && (0..n).all(|i| t.crashed_at[i].is_some() || set.contains(&i))
                };
                common_failures(t, round_budget, Some(&valid))
            }),
        },
    }
}

/// `AB-Consensus` (Theorem 11): all honest (the theorem's cost case), or
/// with `t` Byzantine participants chosen by the seed, alternately silent
/// and replaying.
pub fn ab_consensus(spec: &Spec, seed: u64, byzantine: bool) -> MultiPortBuilt<AbConsensus> {
    let ((config, inputs, _), nodes, config_s, nodes_s) = staged(
        || {
            // Inputs are positive: 0 is the decision of an all-null set.
            let inputs: Vec<u64> = (0..spec.n).map(|i| 1 + draw(seed, i) % 1_000_000).collect();
            let directory = Arc::new(KeyDirectory::generate(spec.n, seed));
            (system(spec, seed), inputs, directory)
        },
        |(config, inputs, directory)| {
            AbConsensus::for_all_nodes(config, inputs, Arc::clone(directory))
                .expect("t < n/2 by construction")
        },
    );
    let round_budget = nodes[0].total_rounds();
    let little = config.little_count();
    let mut participants: Vec<Participant<AbConsensus>> =
        nodes.into_iter().map(Participant::Honest).collect();
    if byzantine {
        let mut chosen = 0;
        let mut attempt = 0;
        while chosen < spec.t {
            let victim = (draw(seed ^ 0xB12A, attempt) % spec.n as u64) as usize;
            attempt += 1;
            if matches!(participants[victim], Participant::Byzantine(_)) {
                continue;
            }
            participants[victim] = if chosen % 2 == 0 {
                Participant::Byzantine(Box::new(SilentByzantine))
            } else {
                let replay = ReplayByzantine::new(spec.n, 4, draw(seed, chosen));
                Participant::Byzantine(Box::new(replay))
            };
            chosen += 1;
        }
    }
    Built {
        nodes: participants,
        adversary: Box::new(NoFaults),
        budget: 0,
        plan: Plan {
            max_rounds: round_budget + 2,
            config_s,
            nodes_s,
            check: Box::new(move |t| {
                // The decision is the largest value of the authenticated common
                // set: a little node's input.  With everyone honest it is the
                // largest of them all.
                let largest = inputs[..little].iter().max().copied();
                let valid = |decision: &u64| {
                    if byzantine {
                        inputs[..little].contains(decision)
                    } else {
                        Some(*decision) == largest
                    }
                };
                common_failures(t, round_budget, Some(&valid))
            }),
        },
    }
}

/// `Gossip` (Theorem 9) under a full-budget crash schedule.
pub fn gossip(spec: &Spec, seed: u64) -> MultiPortBuilt<Gossip> {
    let ((_, rumors), nodes, config_s, nodes_s) = staged(
        || {
            let rumors: Vec<u64> = (0..spec.n).map(|i| draw(seed, i)).collect();
            (system(spec, seed), rumors)
        },
        |(config, rumors)| Gossip::for_all_nodes(config, rumors).expect("t < n/5 by construction"),
    );
    let round_budget = nodes[0].total_rounds();
    let (adversary, budget) = crashes(spec, true, round_budget, seed);
    Built {
        nodes: nodes.into_iter().map(Participant::Honest).collect(),
        adversary,
        budget,
        plan: Plan {
            max_rounds: round_budget + 2,
            config_s,
            nodes_s,
            check: Box::new(move |t: &Transcript<ExtantSet>| {
                let mut failures = common_failures(t, round_budget, None);
                let n = rumors.len();
                for (node, set) in t.outputs.iter().enumerate() {
                    let Some(set) = set.as_ref().filter(|_| t.non_faulty(node)) else {
                        continue;
                    };
                    let complete = (0..n).all(|j| !t.non_faulty(j) || set.rumor_of(j).is_some());
                    let genuine = (0..n).all(|j| set.rumor_of(j).is_none_or(|r| r == rumors[j]));
                    if !complete || !genuine {
                        failures.push(format!(
                            "node {node}: extant set complete={complete} genuine={genuine}"
                        ));
                        break;
                    }
                }
                failures
            }),
        },
    }
}

/// Single-port `Linear-Consensus` (Theorem 12) on random boolean inputs
/// under a full-budget crash schedule.
pub fn linear_consensus(spec: &Spec, seed: u64) -> Built<Vec<LinearConsensus<bool>>, bool> {
    let ((_, inputs), (nodes, round_budget), config_s, nodes_s) = staged(
        || {
            let inputs: Vec<bool> = (0..spec.n).map(|i| draw(seed, i) & 1 == 1).collect();
            (system(spec, seed), inputs)
        },
        |(config, inputs)| {
            linear_consensus_for_all_nodes(config, inputs).expect("t < n/5 by construction")
        },
    );
    let (adversary, budget) = crashes(spec, true, round_budget, seed);
    Built {
        nodes,
        adversary,
        budget,
        plan: Plan {
            // The single-port harness allows four rounds of slack.
            max_rounds: round_budget + 4,
            config_s,
            nodes_s,
            check: Box::new(move |t| {
                common_failures(t, round_budget, Some(&|decision| inputs.contains(decision)))
            }),
        },
    }
}
