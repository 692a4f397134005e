//! Sequential composition: one protocol for its round budget, then a second
//! one built from what the first decided — the paper's "followed by"
//! (`Few-Crashes-Consensus`, Figure 3; `Checkpointing`, Figure 6;
//! `AB-Consensus`, Figure 7), written once.  A composite names its parts in a
//! [`Stages`] implementation; its message is [`Staged`], either stage's
//! message under that stage's tag.
//!
//! The hand-over contract: the first stage owns rounds `0..first_rounds`; the
//! first call at or after round `first_rounds` — a `send`, or a `receive` when
//! a message woke the node — builds the second stage ([`Stages::second`],
//! exactly once) and drops the first.  The second stage counts rounds from
//! zero.  Until it exists the composite has no output, has not halted, and
//! its activity hint stops at the hand-over round.

use dft_sim::{Delivered, Outgoing, Payload, Round, SyncProtocol};

/// What a [`Then`] is made of.
pub trait Stages: Send + 'static {
    /// The protocol of rounds `0..first_rounds`.
    type First: SyncProtocol;
    /// The protocol of the remaining rounds.
    type Second: SyncProtocol;
    /// The composite's output.
    type Output: Clone + std::fmt::Debug + Send + 'static;

    /// Builds the second stage from the finished first one.
    fn second(&self, first: &Self::First) -> Self::Second;
    /// The composite's output, from the second stage's.
    fn output(second: <Self::Second as SyncProtocol>::Output) -> Self::Output;
}

/// A message of a [`Then`]: either stage's message under its stage's tag.
/// Its size and its share key are the inner message's.
#[derive(Clone, Debug, PartialEq)]
pub enum Staged<A, B> {
    /// A message of the first stage.
    First(A),
    /// A message of the second stage.
    Second(B),
}

impl<A: Payload, B: Payload> Payload for Staged<A, B> {
    fn bit_len(&self) -> u64 {
        match self {
            Staged::First(msg) => msg.bit_len(),
            Staged::Second(msg) => msg.bit_len(),
        }
    }

    fn share_key(&self) -> Option<usize> {
        match self {
            Staged::First(msg) => msg.share_key(),
            Staged::Second(msg) => msg.share_key(),
        }
    }
}

/// A stage and the scratch its messages cross the tag through, kept across
/// rounds so relabelling never allocates at steady state.
#[derive(Clone, Debug)]
struct Lent<P: SyncProtocol> {
    node: P,
    out: Vec<Outgoing<P::Msg>>,
    inbox: Vec<Delivered<P::Msg>>,
}

impl<P: SyncProtocol> Lent<P> {
    fn new(node: P) -> Self {
        Lent {
            node,
            out: Vec::new(),
            inbox: Vec::new(),
        }
    }

    fn send<M>(&mut self, round: u64, out: &mut Vec<Outgoing<M>>, tag: impl Fn(P::Msg) -> M) {
        self.node.send(Round::new(round), &mut self.out);
        out.extend(self.out.drain(..).map(|o| Outgoing::new(o.to, tag(o.msg))));
    }

    /// Moves each message of `inbox` under this stage's tag into the
    /// stage's scratch, untagged, and hands that on; a message carrying the
    /// other stage's tag is dropped.  `inbox` is left empty.
    fn receive<M>(
        &mut self,
        round: u64,
        inbox: &mut Vec<Delivered<M>>,
        own: impl Fn(M) -> Option<P::Msg>,
    ) {
        self.inbox.extend(
            inbox
                .drain(..)
                .filter_map(|d| Some(Delivered::new(d.from, own(d.msg)?))),
        );
        self.node.receive_owned(Round::new(round), &mut self.inbox);
        self.inbox.clear();
    }
}

#[derive(Clone, Debug)]
enum Stage<A: SyncProtocol, B: SyncProtocol> {
    First(Lent<A>),
    Second(Lent<B>),
}

/// A [`Then`]'s message.
type ThenMsg<S> = Staged<
    <<S as Stages>::First as SyncProtocol>::Msg,
    <<S as Stages>::Second as SyncProtocol>::Msg,
>;

/// The two-stage sequencer: [`Stages::First`] for `first_rounds` rounds, then
/// [`Stages::Second`], as one [`SyncProtocol`].
///
/// The relabel moves each delivered message once
/// ([`SyncProtocol::receive_owned`]); the borrowed `receive` clones its
/// inbox into a reused scratch and takes the same path.
#[derive(Clone, Debug)]
pub struct Then<S: Stages> {
    stages: S,
    stage: Stage<S::First, S::Second>,
    first_rounds: u64,
    total_rounds: u64,
    /// The borrowed `receive`'s copy of its inbox (empty between calls).
    borrowed: Vec<Delivered<ThenMsg<S>>>,
}

impl<S: Stages> Then<S> {
    /// `first` for `first_rounds` rounds, then what `stages` builds from it
    /// for `second_rounds` more.
    pub fn compose(stages: S, first: S::First, first_rounds: u64, second_rounds: u64) -> Self {
        Then {
            stages,
            stage: Stage::First(Lent::new(first)),
            first_rounds,
            total_rounds: first_rounds + second_rounds,
            borrowed: Vec::new(),
        }
    }

    /// Total rounds this protocol runs for (both stages).
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// The composite's parts, as it was built with them.
    #[cfg(test)]
    pub(crate) fn stages(&self) -> &S {
        &self.stages
    }

    /// The stage that owns round `r`, after handing over if that is due.
    fn stage_at(&mut self, r: u64) -> &mut Stage<S::First, S::Second> {
        if let Stage::First(first) = &self.stage {
            if r >= self.first_rounds {
                self.stage = Stage::Second(Lent::new(self.stages.second(&first.node)));
            }
        }
        &mut self.stage
    }
}

impl<S: Stages> SyncProtocol for Then<S> {
    type Msg = ThenMsg<S>;
    type Output = S::Output;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<Self::Msg>>) {
        let (r, handover) = (round.as_u64(), self.first_rounds);
        match self.stage_at(r) {
            Stage::First(first) => first.send(r, out, Staged::First),
            Stage::Second(second) => second.send(r - handover, out, Staged::Second),
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<Self::Msg>]) {
        let mut owned = std::mem::take(&mut self.borrowed);
        owned.extend_from_slice(inbox);
        self.receive_owned(round, &mut owned);
        self.borrowed = owned;
    }

    fn receive_owned(&mut self, round: Round, inbox: &mut Vec<Delivered<Self::Msg>>) {
        let (r, handover) = (round.as_u64(), self.first_rounds);
        match self.stage_at(r) {
            Stage::First(first) => first.receive(r, inbox, |msg| match msg {
                Staged::First(msg) => Some(msg),
                Staged::Second(_) => None,
            }),
            Stage::Second(second) => second.receive(r - handover, inbox, |msg| match msg {
                Staged::Second(msg) => Some(msg),
                Staged::First(_) => None,
            }),
        }
    }

    fn output(&self) -> Option<S::Output> {
        match &self.stage {
            Stage::First(_) => None,
            Stage::Second(second) => second.node.output().map(S::output),
        }
    }

    fn has_halted(&self) -> bool {
        match &self.stage {
            Stage::First(_) => false,
            Stage::Second(second) => second.node.has_halted(),
        }
    }

    /// The running stage's hint, in this protocol's rounds; the hand-over
    /// round is never slept through.
    fn quiet_until(&self, now: Round) -> Option<Round> {
        let handover = Round::new(self.first_rounds);
        match &self.stage {
            Stage::First(_) if now >= handover => None,
            Stage::First(first) => Some(first.node.quiet_until(now)?.min(handover)),
            Stage::Second(second) => {
                let now = Round::new(now.as_u64() - self.first_rounds);
                Some(second.node.quiet_until(now)? + self.first_rounds)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_sim::NodeId;
    use std::sync::{Arc, Mutex};

    /// Every call a toy stage received, in order, e.g. `"B.receive 0 [7]"`.
    type Log = Arc<Mutex<Vec<String>>>;

    /// A stage that sends `seed` to node 0 every round, logs its calls, and
    /// decides, halts and sleeps as its fields say.
    #[derive(Clone, Debug)]
    struct Toy {
        name: char,
        seed: u8,
        log: Log,
        decided: Option<u8>,
        halted: bool,
        quiet: Option<u64>,
    }

    impl SyncProtocol for Toy {
        type Msg = u8;
        type Output = u8;

        fn send(&mut self, round: Round, out: &mut Vec<Outgoing<u8>>) {
            self.log
                .lock()
                .unwrap()
                .push(format!("{}.send {}", self.name, round.as_u64()));
            out.push(Outgoing::new(NodeId::new(0), self.seed));
        }

        fn receive(&mut self, round: Round, inbox: &[Delivered<u8>]) {
            let msgs: Vec<u8> = inbox.iter().map(|d| d.msg).collect();
            let call = format!("{}.receive {} {msgs:?}", self.name, round.as_u64());
            self.log.lock().unwrap().push(call);
        }

        fn output(&self) -> Option<u8> {
            self.decided
        }

        fn has_halted(&self) -> bool {
            self.halted
        }

        fn quiet_until(&self, _now: Round) -> Option<Round> {
            self.quiet.map(Round::new)
        }
    }

    /// The composite's message.
    type Tagged = Staged<u8, u8>;

    /// Toy `A` for three rounds, then toy `B` seeded with what `A` decided.
    struct AThenB {
        log: Log,
    }

    impl Stages for AThenB {
        type First = Toy;
        type Second = Toy;
        type Output = String;

        fn second(&self, first: &Toy) -> Toy {
            self.log.lock().unwrap().push("hand-over".to_string());
            toy('B', first.decided.unwrap_or(0), &self.log)
        }

        fn output(second: u8) -> String {
            format!("decided {second}")
        }
    }

    fn toy(name: char, seed: u8, log: &Log) -> Toy {
        Toy {
            name,
            seed,
            log: Arc::clone(log),
            decided: None,
            halted: false,
            quiet: None,
        }
    }

    /// The composite, with `A` already decided on 7.
    fn composite() -> (Then<AThenB>, Log) {
        let log = Log::default();
        let mut first = toy('A', 1, &log);
        first.decided = Some(7);
        let stages = AThenB {
            log: Arc::clone(&log),
        };
        (Then::compose(stages, first, 3, 2), log)
    }

    fn first_stage(node: &mut Then<AThenB>) -> &mut Toy {
        match &mut node.stage {
            Stage::First(first) => &mut first.node,
            Stage::Second(_) => panic!("already in the second stage"),
        }
    }

    fn second_stage(node: &mut Then<AThenB>) -> &mut Toy {
        match &mut node.stage {
            Stage::Second(second) => &mut second.node,
            Stage::First(_) => panic!("still in the first stage"),
        }
    }

    fn inbox(msgs: &[Tagged]) -> Vec<Delivered<Tagged>> {
        let from = NodeId::new(4);
        msgs.iter()
            .map(|msg| Delivered::new(from, msg.clone()))
            .collect()
    }

    #[test]
    fn the_second_stage_is_built_once_in_its_first_round() {
        let (mut node, log) = composite();
        assert_eq!(node.total_rounds(), 5);
        let mut sent = Vec::new();
        for r in 0..5 {
            let mut out = Vec::new();
            node.send(Round::new(r), &mut out);
            sent.extend(out.into_iter().map(|o| o.msg));
            node.receive(Round::new(r), &[]);
        }
        // `A` sends its own seed, `B` the 7 that `A` decided.
        let (a, b) = (Tagged::First(1), Tagged::Second(7));
        assert_eq!(sent, vec![a.clone(), a.clone(), a, b.clone(), b]);
        let calls = log.lock().unwrap().join(", ");
        assert_eq!(
            calls,
            "A.send 0, A.receive 0 [], A.send 1, A.receive 1 [], A.send 2, A.receive 2 [], \
             hand-over, B.send 0, B.receive 0 [], B.send 1, B.receive 1 []"
        );
    }

    #[test]
    fn a_node_woken_by_a_message_hands_over_in_receive() {
        let (mut node, log) = composite();
        // Asleep since round 0; a message of the second stage arrives in the
        // hand-over round, so that round's `receive` comes without its `send`.
        node.receive(Round::new(3), &inbox(&[Tagged::Second(9)]));
        let mut out = Vec::new();
        node.send(Round::new(4), &mut out);
        assert_eq!(
            log.lock().unwrap().join(", "),
            "hand-over, B.receive 0 [9], B.send 1"
        );
    }

    #[test]
    fn a_message_with_the_other_stages_tag_is_dropped() {
        let (mut node, log) = composite();
        let both = inbox(&[Tagged::Second(2), Tagged::First(3), Tagged::Second(4)]);
        node.receive(Round::new(1), &both);
        node.receive(Round::new(3), &both);
        assert_eq!(
            log.lock().unwrap().join(", "),
            "A.receive 1 [3], hand-over, B.receive 0 [2, 4]"
        );
    }

    /// Hands `inboxes` (round, messages) to a fresh composite, once through
    /// the borrowed `receive` and once through `receive_owned`, then lets it
    /// send in round `then_send`; returns both call logs.  The owned path
    /// must leave every inbox it is handed empty.
    fn through_both_paths(inboxes: &[(u64, &[Tagged])], then_send: u64) -> [String; 2] {
        [false, true].map(|owned| {
            let (mut node, log) = composite();
            for &(r, msgs) in inboxes {
                let mut inbox = inbox(msgs);
                if owned {
                    node.receive_owned(Round::new(r), &mut inbox);
                    assert!(inbox.is_empty(), "round {r}: {inbox:?} left behind");
                } else {
                    node.receive(Round::new(r), &inbox);
                }
            }
            node.send(Round::new(then_send), &mut Vec::new());
            let calls = log.lock().unwrap().join(", ");
            calls
        })
    }

    #[test]
    fn the_owned_and_the_borrowed_receive_make_the_same_calls() {
        // The cases of the two tests above.
        let both = [Tagged::Second(2), Tagged::First(3), Tagged::Second(4)];
        let [borrowed, owned] = through_both_paths(&[(1, &both), (3, &both)], 4);
        assert_eq!(
            borrowed,
            "A.receive 1 [3], hand-over, B.receive 0 [2, 4], B.send 1"
        );
        assert_eq!(owned, borrowed);
        let [borrowed, owned] = through_both_paths(&[(3, &[Tagged::Second(9)])], 4);
        assert_eq!(borrowed, "hand-over, B.receive 0 [9], B.send 1");
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn the_hint_never_reaches_past_the_hand_over() {
        let (mut node, _log) = composite();
        let hint = |node: &Then<AThenB>, now| node.quiet_until(Round::new(now)).map(Round::as_u64);
        assert_eq!(hint(&node, 0), None, "the first stage keeps the default");
        for (first_says, composite_says) in [(2, 2), (3, 3), (4, 3), (100, 3)] {
            first_stage(&mut node).quiet = Some(first_says);
            assert_eq!(hint(&node, 0), Some(composite_says));
        }
        // A first stage asked at or past the hand-over round is awake.
        assert_eq!(hint(&node, 3), None);
        // The second stage's hint is in its own rounds: shifted on the way out.
        node.receive(Round::new(3), &[]);
        assert_eq!(hint(&node, 3), None);
        second_stage(&mut node).quiet = Some(1);
        assert_eq!(hint(&node, 3), Some(4));
    }

    #[test]
    fn output_and_halt_are_the_second_stages() {
        let (mut node, _log) = composite();
        first_stage(&mut node).halted = true;
        assert_eq!(node.output(), None, "the first stage's 7 is not an output");
        assert!(!node.has_halted());
        node.send(Round::new(3), &mut Vec::new());
        assert_eq!(node.output(), None);
        assert!(!node.has_halted());
        second_stage(&mut node).decided = Some(5);
        assert_eq!(node.output(), Some("decided 5".to_string()));
        assert!(!node.has_halted());
        second_stage(&mut node).halted = true;
        assert!(node.has_halted());
    }
}
