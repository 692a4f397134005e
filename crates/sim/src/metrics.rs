//! Communication and runtime metrics.
//!
//! The paper measures (Section 2):
//!
//! * **running time** — the number of rounds until all non-faulty nodes have
//!   halted;
//! * **communication** — either the number of point-to-point messages or the
//!   total number of bits carried in them; for Byzantine faults, only
//!   messages sent by non-faulty nodes are counted.

/// Aggregated communication counters for one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds elapsed until the runner stopped (all non-faulty nodes halted
    /// or the round cap was hit).
    pub rounds: u64,
    /// Point-to-point messages sent by counted (non-faulty) nodes.
    pub messages: u64,
    /// Total bits in counted messages.
    pub bits: u64,
    /// The latest round a counted message was recorded in, and how many
    /// were.  Rounds are recorded in order, so this and `peak` are the whole
    /// per-round state: a round's count is final once a later round records.
    latest: (u64, u64),
    /// Largest per-round count seen so far.
    peak: u64,
    /// Number of nodes that crashed during the execution.
    pub crashes: u64,
    /// Messages sent by Byzantine nodes (informational; excluded from
    /// `messages`).
    pub byzantine_messages: u64,
}

impl Metrics {
    /// Creates an empty metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counted message of `bits` bits sent in round `round`.
    ///
    /// Rounds must be non-decreasing across calls (the runners record in
    /// round order); debug builds assert it.
    pub fn record_message(&mut self, round: u64, bits: u64) {
        self.record_messages(round, 1, bits);
    }

    /// Records `count` counted messages totalling `bits` bits, all sent in
    /// round `round`.
    ///
    /// Equivalent to `count` calls to [`Metrics::record_message`] with the
    /// same round — this is how the sharded hosts merge per-worker message
    /// counters without replaying every message.  A zero `count` is a
    /// no-op, exactly like not recording at all.
    pub fn record_messages(&mut self, round: u64, count: u64, bits: u64) {
        if count == 0 {
            return;
        }
        self.messages += count;
        self.bits += bits;
        let (latest, so_far) = self.latest;
        debug_assert!(round >= latest, "rounds are recorded monotonically");
        let in_round = if round == latest {
            so_far + count
        } else {
            count
        };
        self.latest = (round, in_round);
        self.peak = self.peak.max(in_round);
    }

    /// Records a crash.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Average messages per node, given the system size.
    pub fn messages_per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.messages as f64 / n as f64
        }
    }

    /// Peak per-round message count over the whole execution.
    pub fn peak_messages_in_a_round(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut m = Metrics::new();
        m.record_message(0, 1);
        m.record_message(0, 1);
        m.record_message(3, 8);
        m.record_crash();
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 10);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.peak_messages_in_a_round(), 2);
        assert!((m.messages_per_node(3) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn batched_recording_matches_repeated_recording() {
        let mut one_by_one = Metrics::new();
        for _ in 0..5 {
            one_by_one.record_message(2, 3);
        }
        one_by_one.record_message(4, 1);
        let mut batched = Metrics::new();
        batched.record_messages(2, 5, 15);
        batched.record_messages(3, 0, 0); // no-op, like not recording at all
        batched.record_messages(4, 1, 1);
        assert_eq!(one_by_one, batched);
        assert_eq!(batched.peak_messages_in_a_round(), 5);
    }

    #[test]
    fn messages_per_node_handles_empty_system() {
        let m = Metrics::new();
        assert_eq!(m.messages_per_node(0), 0.0);
    }

    #[test]
    fn the_peak_outlives_its_round_and_equality_sees_where_messages_fell() {
        let mut m = Metrics::new();
        // A burst of 5 messages in round 0, then one message per round, the
        // last of them a long idle stretch later: the burst stays the peak.
        for _ in 0..5 {
            m.record_message(0, 1);
        }
        for round in (1..2048).chain([1 << 40]) {
            m.record_message(round, 1);
        }
        assert_eq!(m.peak_messages_in_a_round(), 5);
        // The same totals with the last two messages in one round are a
        // different record.
        let mut bunched = Metrics::new();
        bunched.record_messages(0, 5, 5);
        for round in 1..2047 {
            bunched.record_message(round, 1);
        }
        bunched.record_messages(1 << 40, 2, 2);
        assert_eq!((bunched.messages, bunched.bits), (m.messages, m.bits));
        assert_ne!(bunched, m);
    }
}
