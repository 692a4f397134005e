//! Paper-scale (`n = 10^3`–`10^4`) slow suite.
//!
//! Every test here is `#[ignore]`d: the regular CI job skips them, and the
//! `workflow_dispatch` / scheduled slow job runs them with
//! `cargo test --release -- --ignored`.  Locally:
//!
//! ```text
//! cargo test --release -p dft-bench --test paper_scale -- --ignored
//! ```

use dft_bench::experiments::{experiment_checkpointing, experiment_gossip, Scale, SweepConfig};
use dft_bench::{
    measure_ab_consensus, measure_few_crashes, measure_linear_consensus, measure_many_crashes,
    Table, Workload,
};
use dft_sim::{check, NodeId, Outgoing, Round, SinglePortProtocol, SinglePortRunner, Spec};

/// E8 at the paper's scale: authenticated-Byzantine consensus at `n = 1000`
/// terminates with agreement in `O(t)` rounds.
#[test]
#[ignore = "paper-scale; run with --ignored"]
fn e8_ab_consensus_at_n_1000() {
    let n = 1000;
    let t = 31; // ⌊√n⌋, Table 1's claimed boundary.
    let m = measure_ab_consensus(&Workload::fault_free(n, t, 31));
    assert_eq!(m.verdict, Ok(()));
    assert!(
        m.rounds <= 4 * t as u64,
        "O(t) rounds expected, got {}",
        m.rounds
    );
}

/// E9 at paper scale: single-port consensus at `n = 1000` on the sparse port
/// map.
#[test]
#[ignore = "paper-scale; run with --ignored"]
fn e9_single_port_consensus_at_n_1000() {
    let n = 1000;
    let t = n / 8;
    let m = measure_linear_consensus(&Workload::full_budget(n, t, 37));
    assert_eq!(m.verdict, Ok(()));
}

/// E4/E5 at paper scale: crash-fault consensus across the fault spectrum,
/// including many-crashes at `α = 0.9` — the configuration whose probing
/// threshold used to leave zero survivors before δ became α-aware (see
/// `EXPERIMENTS.md`, E5 discussion).
#[test]
#[ignore = "paper-scale; run with --ignored"]
fn crash_consensus_at_n_2000() {
    let n = 2000;
    let m = measure_few_crashes(&Workload::full_budget(n, n / 8, 17));
    assert_eq!(m.verdict, Ok(()));
    let m = measure_many_crashes(&Workload::full_budget(n, n / 2, 19));
    assert_eq!(m.verdict, Ok(()));
    // Theorem 8's spec bounds the rounds by `round_budget_for`.
    let m = measure_many_crashes(&Workload::full_budget(n, (9 * n) / 10, 19));
    assert_eq!(m.verdict, Ok(()), "alpha = 0.9 regression");
}

/// E6/E7 at `--scale paper --n 1000` with two shard workers: the
/// dense-payload experiments (extant sets, checkpoint vectors) cross the
/// wire codec at paper scale and the tables equal the serial ones.
#[test]
#[ignore = "paper-scale; run with --ignored"]
fn e6_e7_tables_at_n_1000_are_byte_identical_across_shards() {
    let cfg = |shards| SweepConfig {
        n: Some(1000),
        shards,
        ..SweepConfig::new(Scale::Paper)
    };
    type ExperimentFn = fn(&SweepConfig) -> Table;
    let experiments: [(&str, ExperimentFn); 2] =
        [("E6", experiment_gossip), ("E7", experiment_checkpointing)];
    for (id, experiment) in experiments {
        let serial = experiment(&cfg(1)).render();
        let sharded = experiment(&cfg(2)).render();
        assert_eq!(serial, sharded, "{id} tables drifted with --shards 2");
    }
}

/// A minimal single-port protocol: each node sends one message around a ring
/// and polls its predecessor, halting after a fixed number of rounds.
struct RingStep {
    me: usize,
    n: usize,
    rounds: u64,
    horizon: u64,
}

impl SinglePortProtocol for RingStep {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
        Some(Outgoing::new(NodeId::new((self.me + 1) % self.n), true))
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        Some(NodeId::new((self.me + self.n - 1) % self.n))
    }

    fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {
        self.rounds += 1;
    }

    fn output(&self) -> Option<bool> {
        (self.rounds >= self.horizon).then_some(true)
    }

    fn has_halted(&self) -> bool {
        self.rounds >= self.horizon
    }
}

/// The sparse port map keeps the single-port engine at `O(n + live
/// messages)`: at `n = 4000` the seed's dense matrix would hold 16 million
/// queues before a single message moved; the sparse engine never buffers
/// more than the in-flight traffic.
#[test]
#[ignore = "paper-scale; run with --ignored"]
fn single_port_memory_stays_sparse_at_n_4000() {
    let n = 4000;
    let nodes: Vec<RingStep> = (0..n)
        .map(|me| RingStep {
            me,
            n,
            rounds: 0,
            horizon: 10,
        })
        .collect();
    let mut runner = SinglePortRunner::new(nodes).unwrap();
    for _ in 0..5 {
        runner.step();
        // Every node polls the port it was just sent on, so nothing
        // accumulates: at most one in-flight message per node.
        assert!(runner.buffered_messages() <= n);
        assert!(runner.ports_in_use() <= n);
    }
    let report = runner.run(10);
    assert_eq!(check(&report, &Spec::decisions(|_, _, _| Ok(()))), Ok(()));
    assert_eq!(runner.buffered_messages(), 0, "all ports drained at halt");
}
