//! Communication and runtime metrics.
//!
//! The paper measures (Section 2):
//!
//! * **running time** — the number of rounds until all non-faulty nodes have
//!   halted;
//! * **communication** — either the number of point-to-point messages or the
//!   total number of bits carried in them; for Byzantine faults, only
//!   messages sent by non-faulty nodes are counted.

/// How many trailing rounds of the per-round message profile are retained.
///
/// Long single-port executions run tens of thousands of rounds; an unbounded
/// per-round vector would grow with the execution and get cloned into every
/// [`ExecutionReport`](crate::ExecutionReport).  The window keeps the profile
/// bounded while [`Metrics::peak_messages_in_a_round`] stays exact over the
/// whole run (the peak is tracked separately as rounds slide out).
pub const MESSAGES_PER_ROUND_WINDOW: usize = 1024;

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
    /// Bounded per-round message profile (see
    /// [`Metrics::messages_per_round`]).
    per_round: PerRoundWindow,
    /// Number of nodes that crashed during the execution.
    pub crashes: u64,
    /// Messages sent by Byzantine nodes (informational; excluded from
    /// `messages`).
    pub byzantine_messages: u64,
}

/// A sliding window over per-round message counts: the last
/// `MESSAGES_PER_ROUND_WINDOW` rounds, plus the exact all-time peak.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PerRoundWindow {
    /// `counts[i]` is the number of messages recorded in round
    /// `first_round + i`.
    counts: Vec<u64>,
    /// The round `counts[0]` refers to.
    first_round: u64,
    /// Largest per-round count ever seen, including rounds that have slid
    /// out of the window.
    peak: u64,
}

impl PerRoundWindow {
    fn record(&mut self, round: u64) {
        self.record_many(round, 1);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`counts` was resized to hold `idx` on the lines above"
    )]
    fn record_many(&mut self, round: u64, count: u64) {
        debug_assert!(
            round >= self.first_round,
            "rounds are recorded monotonically"
        );
        if round < self.first_round {
            return;
        }
        let mut idx = (round - self.first_round) as usize;
        if idx >= MESSAGES_PER_ROUND_WINDOW {
            // Slide the window so `round` lands on its last slot, without
            // materialising the (possibly huge) gap of idle rounds: `counts`
            // never grows past the window, neither in length nor capacity.
            let new_first = round - (MESSAGES_PER_ROUND_WINDOW as u64 - 1);
            let shift = new_first - self.first_round;
            if shift >= self.counts.len() as u64 {
                self.counts.clear();
            } else {
                self.counts.drain(..shift as usize);
            }
            self.first_round = new_first;
            idx = MESSAGES_PER_ROUND_WINDOW - 1;
        }
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
        self.peak = self.peak.max(self.counts[idx]);
    }
}

impl Metrics {
    /// Creates an empty metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counted message of `bits` bits sent in round `round`.
    ///
    /// Rounds must be non-decreasing across calls (the runners record in
    /// round order).  An out-of-order round still counts towards `messages`
    /// and `bits`, but its slot in the bounded per-round profile may already
    /// have slid out of the window; debug builds assert monotonicity.
    pub fn record_message(&mut self, round: u64, bits: u64) {
        self.messages += 1;
        self.bits += bits;
        self.per_round.record(round);
    }

    /// Records `count` counted messages totalling `bits` bits, all sent in
    /// round `round`.
    ///
    /// Equivalent to `count` calls to [`Metrics::record_message`] with the
    /// same round (the per-round profile, its peak and the aggregate counters
    /// end up byte-identical) — this is how the parallel round engines merge
    /// per-worker message counters without replaying every message.  A zero
    /// `count` is a no-op, exactly like not recording at all.
    pub fn record_messages(&mut self, round: u64, count: u64, bits: u64) {
        if count == 0 {
            return;
        }
        self.messages += count;
        self.bits += bits;
        self.per_round.record_many(round, count);
    }

    /// Records a message sent by a Byzantine node (not counted).
    pub fn record_byzantine_message(&mut self) {
        self.byzantine_messages += 1;
    }

    /// Records a crash.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Per-round message counts for the most recent rounds, for plotting
    /// communication profiles.
    ///
    /// Slot `i` holds the count for round [`Metrics::messages_per_round_start`]` + i`.
    /// At most `MESSAGES_PER_ROUND_WINDOW` trailing rounds are retained;
    /// executions shorter than the window keep their full profile (as the
    /// unbounded seed implementation did).  Like the seed, the profile ends
    /// at the last round in which a message was recorded.
    pub fn messages_per_round(&self) -> &[u64] {
        &self.per_round.counts
    }

    /// The round the first slot of [`Metrics::messages_per_round`] refers to
    /// (zero until the execution outgrows the retention window).
    pub fn messages_per_round_start(&self) -> u64 {
        self.per_round.first_round
    }

    /// Average messages per node, given the system size.
    pub fn messages_per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.messages as f64 / n as f64
        }
    }

    /// Peak per-round message count, exact over the whole execution (not
    /// just the retained window).
    pub fn peak_messages_in_a_round(&self) -> u64 {
        self.per_round.peak
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
        m.record_byzantine_message();
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 10);
        assert_eq!(m.messages_per_round(), &[2, 0, 0, 1]);
        assert_eq!(m.messages_per_round_start(), 0);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.byzantine_messages, 1);
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
    fn per_round_profile_is_bounded() {
        let mut m = Metrics::new();
        let window = MESSAGES_PER_ROUND_WINDOW as u64;
        for round in 0..3 * window {
            m.record_message(round, 1);
        }
        assert_eq!(m.messages, 3 * window);
        assert_eq!(m.messages_per_round().len(), MESSAGES_PER_ROUND_WINDOW);
        assert_eq!(m.messages_per_round_start(), 2 * window);
        assert!(m.messages_per_round().iter().all(|&c| c == 1));
    }

    #[test]
    fn peak_survives_window_slide() {
        let mut m = Metrics::new();
        // A burst of 5 messages in round 0, then one message per round far
        // beyond the window: the burst must still be the reported peak.
        for _ in 0..5 {
            m.record_message(0, 1);
        }
        for round in 1..2 * MESSAGES_PER_ROUND_WINDOW as u64 {
            m.record_message(round, 1);
        }
        assert_eq!(m.peak_messages_in_a_round(), 5);
        assert!(m.messages_per_round_start() > 0, "round 0 slid out");
    }

    #[test]
    fn sparse_rounds_slide_in_one_step() {
        let mut m = Metrics::new();
        m.record_message(0, 1);
        // A jump far past the window drops everything before it in one go,
        // without ever materialising the gap (a transient Vec of gap length
        // would be gigabytes for adversarially idle single-port runs).
        let far = 1_000_000 * MESSAGES_PER_ROUND_WINDOW as u64;
        m.record_message(far, 1);
        assert_eq!(m.messages_per_round().len(), MESSAGES_PER_ROUND_WINDOW);
        assert_eq!(
            m.messages_per_round_start(),
            far + 1 - MESSAGES_PER_ROUND_WINDOW as u64
        );
        assert_eq!(m.peak_messages_in_a_round(), 1);
        assert_eq!(m.messages_per_round().last(), Some(&1));
    }
}
