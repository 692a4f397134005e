//! Byzantine committee: `AB-Consensus` with authenticated signatures when a
//! subset of the committee equivocates or stays silent.
//!
//! Run with: `cargo run --release --example byzantine_committee`

#![expect(
    clippy::expect_used,
    reason = "a demo's helpers abort on a bad setup; nothing here is library code"
)]

use std::sync::Arc;

use linear_dft::auth::{KeyDirectory, SignedValue};
use linear_dft::core::{
    bounds, AbConfig, AbConsensus, AbMsg, AgreementMsg, DsBatch, Staged, SystemConfig,
};
use linear_dft::sim::adversary::byzantine::{ScriptedByzantine, SilentByzantine};
use linear_dft::sim::{check, Delivered, NoFaults, NodeId, Outgoing, Participant, Round, Runner};

fn main() {
    let n = 60;
    let t = 5;
    let config = SystemConfig::new(n, t).expect("t < n/2").with_seed(11);
    let directory = Arc::new(KeyDirectory::generate(n, 11));
    let shared = AbConfig::from_system(&config, directory.clone()).expect("config");
    let little = shared.little;

    // Node 0 equivocates in the Dolev-Strong phase; node 1 stays silent.
    let byz_signer = directory.signer(0);
    let equivocator = ScriptedByzantine::new(move |round: Round, _inbox: &[Delivered<AbMsg>]| {
        if round.as_u64() != 0 {
            return Vec::new();
        }
        (1..little)
            .map(|p| {
                let value = if p % 2 == 0 { 1_000_000 } else { 2_000_000 };
                let sv = SignedValue::originate(&byz_signer, value);
                let batch = AgreementMsg::Ds(Arc::new(DsBatch(vec![sv])));
                Outgoing::new(NodeId::new(p), Staged::First(batch))
            })
            .collect()
    });

    let mut participants: Vec<Participant<AbConsensus>> = Vec::new();
    participants.push(Participant::Byzantine(Box::new(equivocator)));
    participants.push(Participant::Byzantine(Box::new(SilentByzantine)));
    for me in 2..n {
        participants.push(Participant::Honest(AbConsensus::new(
            shared.clone(),
            me,
            me as u64,
        )));
    }

    let rounds = shared.total_rounds();
    let mut runner =
        Runner::with_participants(participants, Box::new(NoFaults), 0).expect("runner");
    let report = runner.run(rounds + 2);

    println!("=== AB-Consensus with Byzantine committee members (Theorem 11) ===");
    println!("nodes:              {n}   Byzantine: 2 (equivocator + silent)");
    println!("rounds:             {}", report.metrics.rounds);
    println!("non-faulty messages:{}", report.metrics.messages);
    println!(
        "Byzantine messages: {} (not charged)",
        report.metrics.byzantine_messages
    );
    println!("decision:           {:?}", report.agreed_value());

    // The forged values 1_000_000 / 2_000_000 never become the decision: the
    // equivocating source resolves to null, and the decision is an honest
    // node's input.
    let honest: Vec<u64> = (2..n as u64).collect();
    let verdict = check(&report, &bounds::ab_consensus(&config, &honest));
    println!("spec:               {verdict:?}");
    verdict.expect("Theorem 11's spec holds");
}
