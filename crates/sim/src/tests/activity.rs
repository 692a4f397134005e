//! The activity contract of the round cores: a node that says it is quiet
//! is not called, a message wakes it, a single-port idle poll of an empty
//! port is answered without a call, the per-node slices backends read stay
//! whole, and a hint or an idle poll that lies trips the debug-build check.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use crate::adversary::byzantine::ByzantineStrategy;
use crate::adversary::{AdversaryView, CrashAdversary, CrashDirective};
use crate::driver::{RoundCore, SinglePortCore};
use crate::message::{Delivered, Outgoing};
use crate::node::NodeId;
use crate::protocol::{IdlePolls, SinglePortProtocol, SyncProtocol};
use crate::round::Round;
use crate::runner::{Participant, Runner};
use crate::single_port::SinglePortRunner;

/// Sleeps until `speaks_at`, then tells `peer` so and halts; a message
/// makes it decide at once.  The hint is honest unless `lies` says
/// otherwise.
struct Sleeper {
    peer: usize,
    speaks_at: u64,
    lies: Option<Lie>,
    decided: Option<u64>,
    halted: bool,
    /// Rounds `send` / `receive` were called in.
    sends: Vec<u64>,
    receives: Vec<u64>,
}

/// How a [`Sleeper`] breaks the promise of its hint (only a debug build
/// has the check the liars are for).
#[derive(Clone, Copy)]
#[cfg_attr(not(debug_assertions), allow(dead_code))]
enum Lie {
    /// Sends in round 2 while claiming to be quiet.
    Sends,
    /// Decides in round 2 while claiming to be quiet.
    Decides,
}

impl Sleeper {
    fn new(peer: usize, speaks_at: u64) -> Self {
        Sleeper {
            peer,
            speaks_at,
            lies: None,
            decided: None,
            halted: false,
            sends: Vec::new(),
            receives: Vec::new(),
        }
    }

    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn lying(lie: Lie) -> Self {
        Sleeper {
            lies: Some(lie),
            ..Sleeper::new(0, 6)
        }
    }
}

impl SyncProtocol for Sleeper {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<u64>>) {
        self.sends.push(round.as_u64());
        let lying = matches!(self.lies, Some(Lie::Sends)) && round.as_u64() == 2;
        if round.as_u64() == self.speaks_at || lying {
            out.push(Outgoing::new(NodeId::new(self.peer), round.as_u64()));
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<u64>]) {
        self.receives.push(round.as_u64());
        let lying = matches!(self.lies, Some(Lie::Decides)) && round.as_u64() == 2;
        if let Some(msg) = inbox.first() {
            self.decided.get_or_insert(msg.msg);
        } else if lying {
            self.decided = Some(0);
        }
        self.halted = round.as_u64() >= self.speaks_at;
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.halted
    }

    fn quiet_until(&self, _now: Round) -> Option<Round> {
        Some(Round::new(self.speaks_at))
    }
}

fn honest<P: SyncProtocol>(nodes: Vec<P>) -> Vec<Participant<P>> {
    nodes.into_iter().map(Participant::Honest).collect()
}

/// One round of a lone core, the way a backend drives it: every staged
/// message is routed straight back in.
fn step<P: SyncProtocol>(core: &mut RoundCore<P>, round: u64) {
    step_crashing(core, round, &[]);
}

/// [`step`] with `victims` crashed in the crash phase, before delivery.
fn step_crashing<P: SyncProtocol>(core: &mut RoundCore<P>, round: u64, victims: &[usize]) {
    let round = Round::new(round);
    core.begin_round(round);
    for &victim in victims {
        core.set_crashed(victim, round);
    }
    core.deliver(&[]);
    for (dest, msg) in core.delivered().to_vec() {
        core.accept(dest, msg);
    }
    let events = core.finalize(round).events.iter();
    let halted: Vec<usize> = events.filter(|e| e.halted).map(|e| e.node).collect();
    for node in halted {
        core.set_halted(node);
    }
}

#[test]
#[expect(
    clippy::unreachable,
    reason = "the test built honest participants only"
)]
fn a_quiet_node_is_called_when_it_said_and_when_a_message_arrives() {
    // Node 0 speaks to node 1 in round 3; node 1 would sleep until round 9.
    let mut core = RoundCore::new(0, honest(vec![Sleeper::new(1, 3), Sleeper::new(0, 9)]));
    for round in 0..5 {
        step(&mut core, round);
        // The slices a backend reads stay whole.
        assert_eq!(core.send_intents().len(), 2);
    }
    assert_eq!(core.output(1), Some(&3), "the message woke node 1");
    let called = |node: usize| match &core.participants[node] {
        Participant::Honest(p) => (p.sends.clone(), p.receives.clone()),
        Participant::Byzantine(_) => unreachable!("honest nodes only"),
    };
    if cfg!(debug_assertions) {
        // The checker made every call; none of them was counted.
        assert_eq!(called(0), (vec![0, 1, 2, 3], vec![0, 1, 2, 3]));
    } else {
        assert_eq!(called(0), (vec![0, 3], vec![0, 3]));
        // Woken in round 3 by the message (no `send` that round), asked
        // again, quiet again.
        assert_eq!(called(1), (vec![0], vec![0, 3]));
    }
    // Round 0 for both, round 3 for both: node 0 by its own word, node 1 by
    // the message.
    assert_eq!(core.active_node_rounds(), 4);
}

#[test]
fn skipped_nodes_show_no_intents() {
    let mut core = RoundCore::new(0, honest(vec![Sleeper::new(1, 1), Sleeper::new(0, 9)]));
    step(&mut core, 0);
    core.begin_round(Round::new(1));
    assert_eq!(core.send_intents()[0], vec![NodeId::new(1)]);
    assert!(core.send_intents()[1].is_empty());
    core.deliver(&[]);
    core.finalize(Round::new(1));
    // Node 0 is still running as far as the core knows (nobody mirrored its
    // halt), is called again, and last round's intent must not linger.
    core.begin_round(Round::new(2));
    assert!(core.send_intents().iter().all(Vec::is_empty));
}

/// The send intents the crash adversary was shown, round by round.
type SeenSends = Rc<RefCell<Vec<Vec<Vec<NodeId>>>>>;

/// Records the send intents the crash adversary is shown, and crashes
/// nobody: the multi-port twin of [`PollWatch`].
struct SendWatch(SeenSends);

impl CrashAdversary for SendWatch {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        self.0.borrow_mut().push(view.send_intents.to_vec());
        Vec::new()
    }
}

#[test]
fn the_adversary_is_shown_the_cores_own_send_intents() {
    // Node 0 speaks to node 1 in round 3 and halts; node 1 sleeps past it.
    let seen = Rc::new(RefCell::new(Vec::new()));
    let adversary = Box::new(SendWatch(Rc::clone(&seen)));
    let nodes = vec![Sleeper::new(1, 3), Sleeper::new(0, 9)];
    let mut runner = Runner::with_adversary(nodes, adversary, 0).unwrap();
    for round in 0..5 {
        runner.step();
        assert_eq!(
            seen.borrow()[round],
            runner.host.send_intents(),
            "round {round}"
        );
    }
    let spoke = [vec![NodeId::new(1)], Vec::new()];
    assert_eq!(seen.borrow()[3], spoke, "node 0 speaks in round 3");
    for round in [0, 1, 2, 4] {
        let shown = &seen.borrow()[round];
        assert!(shown.iter().all(Vec::is_empty), "round {round}: {shown:?}");
    }
}

#[test]
fn the_runner_reports_the_same_execution_and_fewer_calls() {
    let nodes = || vec![Sleeper::new(1, 3), Sleeper::new(0, 40)];
    let mut runner = Runner::new(nodes()).unwrap();
    let report = runner.run(50);
    assert_eq!(report.outputs, vec![None, Some(3)]);
    assert_eq!(report.halted_at[0], Some(Round::new(3)));
    assert_eq!(report.halted_at[1], Some(Round::new(40)));
    assert_eq!(report.metrics.messages, 2);
    // Node 0: rounds 0 and 3.  Node 1: round 0, round 3 (woken), round 40.
    assert_eq!(runner.active_node_rounds(), 5);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "claimed to be quiet until round 6 but sends in round 2")]
fn a_quiet_node_that_sends_trips_the_check() {
    let mut core = RoundCore::new(0, honest(vec![Sleeper::lying(Lie::Sends)]));
    for round in 0..4 {
        step(&mut core, round);
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "claimed to be quiet through round 2 but changed state")]
fn a_quiet_node_whose_output_changes_trips_the_check() {
    let mut core = RoundCore::new(0, honest(vec![Sleeper::lying(Lie::Decides)]));
    for round in 0..4 {
        step(&mut core, round);
    }
}

/// A multi-port node on a script: in each round of `speaks` it sends its
/// own index to every one of `peers`, it decides on the first message it
/// receives, and at the end of round `now` it asks to be woken at
/// `hint(now, decided)`.
struct Scripted {
    me: u64,
    peers: Vec<usize>,
    speaks: Vec<u64>,
    hint: fn(u64, bool) -> Option<u64>,
    decided: Option<u64>,
    /// Rounds `send` / `receive` were called in.
    sends: Vec<u64>,
    receives: Vec<u64>,
}

impl Scripted {
    fn new(me: u64, hint: fn(u64, bool) -> Option<u64>) -> Self {
        Scripted {
            me,
            peers: Vec::new(),
            speaks: Vec::new(),
            hint,
            decided: None,
            sends: Vec::new(),
            receives: Vec::new(),
        }
    }

    /// Also speaks to `peers` in each round of `speaks`.
    fn speaking(self, peers: &[usize], speaks: &[u64]) -> Self {
        Scripted {
            peers: peers.to_vec(),
            speaks: speaks.to_vec(),
            ..self
        }
    }
}

impl SyncProtocol for Scripted {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<u64>>) {
        let r = round.as_u64();
        self.sends.push(r);
        if self.speaks.contains(&r) {
            out.extend(
                self.peers
                    .iter()
                    .map(|&peer| Outgoing::new(NodeId::new(peer), self.me)),
            );
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<u64>]) {
        self.receives.push(round.as_u64());
        if let Some(msg) = inbox.first() {
            self.decided.get_or_insert(msg.msg);
        }
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        false
    }

    fn quiet_until(&self, now: Round) -> Option<Round> {
        (self.hint)(now.as_u64(), self.decided.is_some()).map(Round::new)
    }
}

/// The rounds `send` and `receive` were called in, for an honest node.
#[expect(
    clippy::unreachable,
    reason = "the tests ask only about honest participants"
)]
fn calls(core: &RoundCore<Scripted>, node: usize) -> (Vec<u64>, Vec<u64>) {
    match &core.participants[node] {
        Participant::Honest(p) => (p.sends.clone(), p.receives.clone()),
        Participant::Byzantine(_) => unreachable!("honest nodes only"),
    }
}

#[test]
fn a_woken_node_that_hints_later_is_not_called_at_its_old_wake_round() {
    // Node 1 asks for round 6, is woken by node 0's message in round 2 and
    // then asks for round 10: its round-6 calendar entry is stale.
    let talker = Scripted::new(0, |now, _| Some(if now < 2 { 2 } else { 50 }));
    let sleeper = Scripted::new(1, |_, decided| Some(if decided { 10 } else { 6 }));
    let mut core = RoundCore::new(0, honest(vec![talker.speaking(&[1], &[2]), sleeper]));
    for round in 0..=10 {
        step(&mut core, round);
    }
    assert_eq!(core.output(1), Some(&0));
    // Round 0 for both, round 2 for both, round 10 for node 1.
    assert_eq!(core.active_node_rounds(), 5);
    if !cfg!(debug_assertions) {
        assert_eq!(calls(&core, 1), (vec![0, 10], vec![0, 2, 10]));
    }
}

#[test]
fn a_hint_naming_this_round_a_past_round_or_the_next_means_next_round() {
    let mut core = RoundCore::new(
        0,
        honest(vec![
            Scripted::new(0, |now, _| Some(now)),
            Scripted::new(1, |_, _| Some(0)),
            Scripted::new(2, |now, _| Some(now + 1)),
            Scripted::new(3, |_, _| Some(100)),
        ]),
    );
    for round in 0..5 {
        step(&mut core, round);
    }
    // The first three are called in every round, the last in round 0 only.
    assert_eq!(core.active_node_rounds(), 3 * 5 + 1);
    for node in 0..3 {
        assert_eq!(
            calls(&core, node),
            (vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3, 4])
        );
    }
}

/// A Byzantine participant that sends nothing and logs, per round, how many
/// messages last round's inbox held.
struct Counting(Arc<Mutex<Vec<(u64, usize)>>>);

impl ByzantineStrategy<u64> for Counting {
    fn act(&mut self, round: Round, inbox: &[Delivered<u64>]) -> Vec<Outgoing<u64>> {
        self.0.lock().unwrap().push((round.as_u64(), inbox.len()));
        Vec::new()
    }
}

#[test]
fn a_byzantine_participant_among_sleepers_is_called_every_round() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let talker = Scripted::new(0, |now, _| Some(if now < 2 { 2 } else { 50 }));
    let participants = vec![
        Participant::Honest(talker.speaking(&[1], &[2])),
        Participant::Byzantine(Box::new(Counting(Arc::clone(&log)))),
        Participant::Honest(Scripted::new(2, |_, _| Some(50))),
    ];
    let mut core = RoundCore::new(0, participants);
    for round in 0..6 {
        step(&mut core, round);
    }
    // Node 1 in every round, node 0 in rounds 0 and 2, node 2 in round 0.
    assert_eq!(core.active_node_rounds(), 6 + 2 + 1);
    // It acts on last round's inbox, and that inbox was emptied after.
    let seen = log.lock().unwrap().clone();
    assert_eq!(seen, vec![(0, 0), (1, 0), (2, 0), (3, 1), (4, 0), (5, 0)]);
}

#[test]
fn a_node_crashed_while_asleep_is_never_called_again() {
    // Node 0 would wake in round 5 to speak to node 1; it crashes in round 2.
    let sleeper = Scripted::new(0, |_, _| Some(5)).speaking(&[1], &[5]);
    let mut core = RoundCore::new(0, honest(vec![sleeper, Scripted::new(1, |_, _| Some(50))]));
    step(&mut core, 0);
    step(&mut core, 1);
    step_crashing(&mut core, 2, &[0]);
    for round in 3..9 {
        step(&mut core, round);
    }
    assert_eq!(core.active_node_rounds(), 2, "round 0 only, for both");
    assert_eq!(core.output(1), None);
    // Not even the debug build's check calls a node that is not running:
    // its last call is round 2's `send`, made before the crash.
    let (sends, receives) = calls(&core, 0);
    let last = if cfg!(debug_assertions) {
        (2, 1)
    } else {
        (0, 0)
    };
    assert_eq!(
        (sends.last(), receives.last()),
        (Some(&last.0), Some(&last.1))
    );
}

#[test]
fn woken_and_due_nodes_interleave_in_sender_and_node_order() {
    // Nodes 1 and 3 are due in round 3 and speak; nodes 0 and 2 sleep and
    // are woken by them, so `accept` appends 2, then 0.
    let at_3 = |now: u64, _| Some(if now < 3 { 3 } else { 50 });
    let mut core = RoundCore::new(
        0,
        honest(vec![
            Scripted::new(0, |_, _| Some(50)),
            Scripted::new(1, at_3).speaking(&[2, 0], &[3]),
            Scripted::new(2, |_, _| Some(50)),
            Scripted::new(3, at_3).speaking(&[0, 1], &[3]),
        ]),
    );
    for round in 0..3 {
        step(&mut core, round);
    }
    let round = Round::new(3);
    core.begin_round(round);
    assert_eq!(core.called, [1, 3]);
    core.deliver(&[]);
    let staged: Vec<(usize, u64)> = core
        .delivered()
        .iter()
        .map(|(dest, msg)| (*dest, msg.from.index() as u64))
        .collect();
    assert_eq!(staged, [(2, 1), (0, 1), (0, 3), (1, 3)], "sender order");
    for (dest, msg) in core.delivered().to_vec() {
        core.accept(dest, msg);
    }
    assert_eq!(core.called, [1, 3, 2, 0]);
    let events: Vec<usize> = core.finalize(round).events.iter().map(|e| e.node).collect();
    assert_eq!(events, [0, 1, 2], "node order");
    // Node 0's inbox held node 1's message before node 3's.
    let outputs: Vec<Option<&u64>> = (0..4).map(|node| core.output(node)).collect();
    assert_eq!(outputs, [Some(&1), Some(&3), Some(&1), None]);
    assert_eq!(core.active_node_rounds(), 4 + 4);
    assert!(
        core.inboxes.iter().all(Vec::is_empty),
        "emptied after receive"
    );
}

#[test]
fn a_sleeper_woken_every_round_keeps_the_calendar_small() {
    // Node 0 speaks to node 1 in every round; node 1 always asks for round
    // 1000, so each round leaves a duplicate entry behind.
    let talker = Scripted::new(0, |_, _| None).speaking(&[1], &(0..60).collect::<Vec<_>>());
    let mut core = RoundCore::new(0, honest(vec![talker, Scripted::new(1, |_, _| Some(1000))]));
    for round in 0..60 {
        step(&mut core, round);
        assert!(core.calendar.len() <= 2 * core.len(), "round {round}");
    }
    assert_eq!(core.active_node_rounds(), 2 * 60);
    if !cfg!(debug_assertions) {
        assert_eq!(calls(&core, 1).0, [0]);
    }
}

/// The single-port sleeper: polls `peer` in round `polls_at` and decides on
/// what it finds (or on 0), sends `peer` its index in round 0.
struct SpSleeper {
    me: usize,
    peer: usize,
    polls_at: u64,
    lies: bool,
    decided: Option<u64>,
    calls: u64,
}

impl SinglePortProtocol for SpSleeper {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, round: Round) -> Option<Outgoing<u64>> {
        self.calls += 1;
        (round.as_u64() == 0).then(|| Outgoing::new(NodeId::new(self.peer), self.me as u64))
    }

    fn poll(&mut self, round: Round) -> Option<NodeId> {
        let lying = self.lies && round.as_u64() == 2;
        (round.as_u64() == self.polls_at || lying).then(|| NodeId::new(self.peer))
    }

    fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<u64>) {
        self.decided = Some(msgs.first().copied().unwrap_or(0));
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }

    fn quiet_until(&self, _now: Round) -> Option<Round> {
        Some(Round::new(self.polls_at))
    }
}

fn sp_sleepers(lies: bool) -> Vec<SpSleeper> {
    [(0, 1, 5), (1, 0, 30)]
        .into_iter()
        .map(|(me, peer, polls_at)| SpSleeper {
            me,
            peer,
            polls_at,
            lies,
            decided: None,
            calls: 0,
        })
        .collect()
}

#[test]
fn single_port_nodes_are_called_only_when_they_said() {
    let mut runner = SinglePortRunner::new(sp_sleepers(false)).unwrap();
    let report = runner.run(40);
    assert_eq!(report.outputs, vec![Some(1), Some(0)]);
    assert_eq!(report.halted_at[0], Some(Round::new(5)));
    assert_eq!(report.halted_at[1], Some(Round::new(30)));
    // Round 0 and the polling round, for each.
    assert_eq!(runner.active_node_rounds(), 4);
    if !cfg!(debug_assertions) {
        assert!(runner.host.nodes.iter().all(|node| node.calls == 2));
    }
}

#[test]
fn single_port_slices_keep_their_length_and_skipped_slots_are_empty() {
    let mut core = SinglePortCore::new(0, sp_sleepers(false));
    core.begin_round(Round::ZERO);
    assert!(core.sends().iter().all(Option::is_some));
    core.finalize(Round::ZERO);
    // The sends of round 0 were never taken; nobody is called in round 1.
    core.begin_round(Round::new(1));
    assert_eq!((core.sends().len(), core.polls().len()), (2, 2));
    assert!(core.sends().iter().all(Option::is_none));
    assert!(core.polls().iter().all(Option::is_none));
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "claimed to be quiet until round 5 but in round 2")]
fn a_quiet_single_port_node_that_polls_trips_the_check() {
    let mut runner = SinglePortRunner::new(sp_sleepers(true)).unwrap();
    runner.run(10);
}

/// A single-port node that polls `peer` idly in rounds `1..=run` (and
/// says so), is called again in `run + 1` and every round after, sends
/// `peer` a message in round `sends_at` if it has one, and decides on the
/// first message it finds.
struct Prober {
    peer: usize,
    sends_at: Option<u64>,
    /// `peer` once per round of the run: the ports its idle polls lend.
    ports: Vec<NodeId>,
    lies: Option<Lie>,
    decided: Option<u64>,
    /// Rounds `send` was called in.
    calls: Vec<u64>,
}

impl Prober {
    /// Polls `peer` idly in rounds `1..=run` and sends nothing.
    fn listener(peer: usize, run: u64) -> Self {
        Prober {
            peer,
            sends_at: None,
            ports: vec![NodeId::new(peer); run as usize],
            lies: None,
            decided: None,
            calls: Vec::new(),
        }
    }

    /// Sends `peer` a message in round `sends_at` and never polls.
    fn talker(peer: usize, sends_at: u64) -> Self {
        Prober {
            sends_at: Some(sends_at),
            ..Prober::listener(peer, 0)
        }
    }

    fn run(&self) -> u64 {
        self.ports.len() as u64
    }
}

impl SinglePortProtocol for Prober {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, round: Round) -> Option<Outgoing<u64>> {
        let r = round.as_u64();
        self.calls.push(r);
        let lying = matches!(self.lies, Some(Lie::Sends)) && r == 2;
        (self.sends_at == Some(r) || lying).then(|| Outgoing::new(NodeId::new(self.peer), 100 + r))
    }

    fn poll(&mut self, round: Round) -> Option<NodeId> {
        (1..=self.run())
            .contains(&round.as_u64())
            .then(|| NodeId::new(self.peer))
    }

    fn receive(&mut self, round: Round, _from: NodeId, msgs: &mut Vec<u64>) {
        let lying = matches!(self.lies, Some(Lie::Decides)) && round.as_u64() == 2;
        if let Some(&msg) = msgs.first() {
            self.decided.get_or_insert(msg);
        } else if lying {
            self.decided = Some(0);
        }
    }

    fn output(&self) -> Option<u64> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        false
    }

    fn quiet_until(&self, now: Round) -> Option<Round> {
        let sends_at = self.sends_at?;
        (now.as_u64() < sends_at).then_some(Round::new(sends_at))
    }

    fn idle_polls(&self, now: Round) -> Option<IdlePolls<'_>> {
        let ports = self.ports.get(now.as_u64() as usize..)?;
        let resume = Round::new(self.run() + 1);
        (!ports.is_empty()).then_some(IdlePolls { ports, resume })
    }
}

/// The poll intents the crash adversary was shown, round by round.
type Seen = Rc<RefCell<Vec<Vec<Option<NodeId>>>>>;

/// Records what the crash adversary is shown, and crashes nobody.
struct PollWatch(Seen);

impl CrashAdversary for PollWatch {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        self.0.borrow_mut().push(view.poll_intents.to_vec());
        Vec::new()
    }
}

/// A runner over `nodes` whose adversary records what it is shown.
fn watched(nodes: Vec<Prober>) -> (SinglePortRunner<Prober>, Seen) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let runner = SinglePortRunner::with_adversary(nodes, Box::new(PollWatch(Rc::clone(&seen))), 0);
    (runner.unwrap(), seen)
}

#[test]
fn an_idle_poll_of_an_empty_port_is_not_a_call() {
    // Node 1 polls node 0 idly in rounds 1..=4; node 0 never sends.
    let (mut runner, seen) = watched(vec![Prober::listener(1, 0), Prober::listener(0, 4)]);
    runner.step();
    assert_eq!(runner.active_node_rounds(), 2, "round 0 calls both");
    for round in 1..=4 {
        runner.step();
        // Node 0 states no hint and is called every round; node 1 is not.
        assert_eq!(runner.active_node_rounds(), 2 + round, "round {round}");
        // The planned port shows where every backend reads it.
        let planned = [None, Some(NodeId::new(0))];
        assert_eq!(runner.host.polls(), planned, "round {round}: polls()");
        assert_eq!(
            seen.borrow()[round as usize],
            planned,
            "round {round}: poll_intents"
        );
    }
    runner.step();
    assert_eq!(
        runner.active_node_rounds(),
        8,
        "the run is over: round 5 calls both"
    );
    assert_eq!(runner.host.polls(), [None, None]);
    assert_eq!(runner.host.output(1), None);
    if !cfg!(debug_assertions) {
        assert_eq!(runner.host.nodes[1].calls, vec![0, 5]);
    }
}

#[test]
fn a_message_on_an_idle_port_gets_its_node_called_that_round() {
    // Node 0 sends in round 3 (its hint wakes it then); node 1 polls it
    // idly in rounds 1..=6.
    let (mut runner, _) = watched(vec![Prober::talker(1, 3), Prober::listener(0, 6)]);
    for _ in 0..3 {
        runner.step();
    }
    assert_eq!(runner.active_node_rounds(), 2, "rounds 1 and 2 call nobody");
    runner.step();
    assert_eq!(runner.active_node_rounds(), 4, "round 3 calls both");
    assert_eq!(
        runner.host.output(1),
        Some(&103),
        "found and decided in round 3"
    );
    assert_eq!(runner.ports_in_use(), 0);
    for _ in 4..=7 {
        runner.step();
    }
    // Node 0 is awake from round 4 on; node 1 polls idly again until it
    // resumes in round 7.
    assert_eq!(runner.active_node_rounds(), 4 + 4 + 1);
    if !cfg!(debug_assertions) {
        assert_eq!(runner.host.nodes[1].calls, vec![0, 3, 7]);
    }
}

#[test]
fn a_message_buffered_before_an_idle_run_is_found_by_its_planned_poll() {
    // Node 0 sends in round 0 and is called every round after; node 1
    // polls nothing in round 0, so the message waits on its port while
    // node 1 states its idle polls of node 0 for rounds 1..=5.
    let (mut runner, _) = watched(vec![Prober::talker(1, 0), Prober::listener(0, 5)]);
    runner.step();
    assert_eq!(runner.active_node_rounds(), 2, "round 0 calls both");
    assert_eq!(runner.buffered_messages(), 1, "nobody polled the port");
    assert_eq!(runner.ports_in_use(), 1);
    assert_eq!(runner.host.output(1), None);
    runner.step();
    assert_eq!(runner.active_node_rounds(), 4, "round 1 calls both");
    assert_eq!(
        runner.host.output(1),
        Some(&100),
        "the run's first planned poll found it"
    );
    assert_eq!(runner.buffered_messages(), 0);
    assert_eq!(runner.ports_in_use(), 0);
    assert_eq!(runner.full_ports_drained(), 1);
    assert_eq!(runner.answered_idle_polls(), 0);
    for _ in 2..=6 {
        runner.step();
    }
    // Node 1 restated its run when it was called: rounds 2..=5 are
    // answered for it, and it resumes in round 6.
    assert_eq!(runner.active_node_rounds(), 4 + 5 + 1);
    assert_eq!(runner.answered_idle_polls(), 4);
    assert_eq!(runner.full_ports_drained(), 1);
    if !cfg!(debug_assertions) {
        assert_eq!(runner.host.nodes[1].calls, vec![0, 1, 6]);
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "stated an idle poll in round 2 but changed state on an empty port")]
fn an_idle_poll_that_decides_on_an_empty_port_trips_the_check() {
    let liar = Prober {
        lies: Some(Lie::Decides),
        ..Prober::listener(0, 4)
    };
    let (mut runner, _) = watched(vec![Prober::listener(1, 0), liar]);
    runner.run(6);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "stated an idle poll of port n0 in round 2 but sends: true")]
fn a_node_that_sends_in_an_idle_poll_round_trips_the_check() {
    let liar = Prober {
        lies: Some(Lie::Sends),
        ..Prober::listener(0, 4)
    };
    let (mut runner, _) = watched(vec![Prober::listener(1, 0), liar]);
    runner.run(6);
}
