//! Local probing (Section 2, Proposition 1).
//!
//! Local probing is the paper's failure detector for overlay graphs: for `γ`
//! consecutive rounds every participating node sends a message to each of its
//! overlay neighbours; if, in some round, a node receives fewer than `δ`
//! messages it *pauses prematurely* and stops sending for the remainder of
//! the instance.  A node *survives* the instance if it never pauses.
//! Proposition 1 shows survival is equivalent to membership in a
//! `(γ, δ)`-dense neighbourhood, and every member of a `δ`-survival subset of
//! the operational nodes survives, which is how the algorithms identify a
//! large well-connected core of non-crashed nodes.

/// The per-node state of one local-probing instance.
///
/// The owning protocol drives it: call [`LocalProbing::should_send`] when
/// emitting the round's messages and [`LocalProbing::observe_round`] with the
/// number of probing messages received that round.
///
/// # Examples
///
/// ```
/// use dft_core::LocalProbing;
///
/// // A node with δ = 2 probing for 3 rounds.
/// let mut probe = LocalProbing::new(2, 3, true);
/// assert!(probe.should_send());
/// probe.observe_round(5);
/// probe.observe_round(2);
/// probe.observe_round(3);
/// assert!(probe.finished());
/// assert!(probe.survived());
///
/// // The same node pausing when its neighbourhood thins out.
/// let mut probe = LocalProbing::new(2, 3, true);
/// probe.observe_round(1);
/// assert!(!probe.should_send(), "paused nodes stop sending");
/// probe.observe_round(0);
/// probe.observe_round(0);
/// assert!(!probe.survived());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalProbing {
    delta: usize,
    duration: u64,
    elapsed: u64,
    paused: bool,
    active: bool,
}

impl LocalProbing {
    /// Creates a probing instance with survival threshold `delta` lasting
    /// `duration` rounds.  Inactive instances (`active = false`) never send
    /// and never survive — used by nodes that sit out an instance (e.g.
    /// non-little nodes).
    pub fn new(delta: usize, duration: u64, active: bool) -> Self {
        LocalProbing {
            delta,
            duration,
            elapsed: 0,
            paused: !active,
            active,
        }
    }

    /// Whether this node sends probing messages in the current round.
    pub fn should_send(&self) -> bool {
        self.active && !self.paused && !self.finished()
    }

    /// Records the number of probing messages received this round and
    /// advances the instance by one round.
    pub fn observe_round(&mut self, messages_received: usize) {
        if !self.active || self.finished() {
            return;
        }
        if !self.paused && messages_received < self.delta {
            self.paused = true;
        }
        self.elapsed += 1;
    }

    /// Whether all `γ` rounds have elapsed.
    pub fn finished(&self) -> bool {
        self.elapsed >= self.duration
    }

    /// Whether this node survived the instance: it participated, the
    /// instance is over, and it never paused.
    pub fn survived(&self) -> bool {
        self.active && self.finished() && !self.paused
    }

    /// Rounds executed so far.
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// The instance duration `γ`.
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Resets the instance for reuse in a later phase (same `δ`, `γ`), with a
    /// new participation flag.
    pub fn reset(&mut self, active: bool) {
        self.elapsed = 0;
        self.paused = !active;
        self.active = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_instances_never_survive() {
        let mut probe = LocalProbing::new(1, 2, false);
        assert!(!probe.should_send());
        probe.observe_round(10);
        probe.observe_round(10);
        assert!(!probe.survived());
    }

    #[test]
    fn survival_requires_every_round_above_threshold() {
        let mut probe = LocalProbing::new(3, 4, true);
        for received in [3, 4, 3, 5] {
            assert!(probe.should_send());
            probe.observe_round(received);
        }
        assert!(probe.survived());

        let mut probe = LocalProbing::new(3, 4, true);
        for received in [3, 2, 5, 5] {
            probe.observe_round(received);
        }
        assert!(probe.finished());
        assert!(!probe.survived(), "one thin round pauses the node");
    }

    #[test]
    fn observations_after_finish_are_ignored() {
        let mut probe = LocalProbing::new(1, 1, true);
        probe.observe_round(5);
        assert!(probe.survived());
        probe.observe_round(0);
        assert!(
            probe.survived(),
            "late observations do not retract survival"
        );
        assert_eq!(probe.elapsed(), 1);
        assert_eq!(probe.duration(), 1);
    }

    #[test]
    fn reset_allows_reuse_across_phases() {
        let mut probe = LocalProbing::new(2, 2, true);
        probe.observe_round(0);
        probe.observe_round(0);
        assert!(!probe.survived());
        probe.reset(true);
        probe.observe_round(2);
        probe.observe_round(2);
        assert!(probe.survived());
        probe.reset(false);
        assert!(!probe.should_send());
    }
}
