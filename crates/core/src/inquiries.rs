//! The inquiry phases of Lemma 5, written once: undecided nodes inquire
//! along the doubling-degree graphs `G_i`, or straight to the little nodes,
//! and decided nodes answer in the next round.  SCV Part 2 (which
//! Many-Crashes Part 3 and AB-Consensus Part 4 run as) and Gossip Part 1
//! each drive one [`Inquiries`] with their own messages, decision and filter.

use std::sync::Arc;

use dft_overlay::{InquiryFamily, Neighbors};
use dft_sim::{Delivered, NodeId, Outgoing};

/// Whom an inquiring node asks.
#[derive(Clone, Debug)]
pub(crate) enum Targets {
    /// The little nodes `0..k`.
    Little(usize),
    /// In phase `i`, the node's neighbours in `G_i`.
    Family(Arc<InquiryFamily>),
}

/// Where a round falls within its phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// The first round: undecided nodes inquire.
    Inquiry,
    /// The second: decided nodes answer the previous round's inquirers.
    Response,
    /// A later round of a longer phase (Gossip's probing window).
    Other,
}

/// One node's inquiry phases: `phases` phases of `stride` rounds from round
/// `start`, whom it asks, and whom it owes an answer.  Like `LocalProbing`
/// it is state plus its rule, not a protocol.  Only [`Inquiries::targets`]
/// reads a phase's graph, so a phase nobody inquires in is never built.
#[derive(Clone, Debug)]
pub(crate) struct Inquiries {
    start: u64,
    stride: u64,
    phases: u64,
    targets: Targets,
    inquirers: Vec<usize>,
}

impl Inquiries {
    pub(crate) fn new(start: u64, stride: u64, phases: u64, targets: Targets) -> Self {
        let inquirers = Vec::new();
        Inquiries {
            start,
            stride,
            phases,
            targets,
            inquirers,
        }
    }

    /// Two-round phases from `start`: one per graph of the family, or one
    /// to the little nodes.
    pub(crate) fn two_round(start: u64, targets: Targets) -> Self {
        let phases = match &targets {
            Targets::Little(_) => 1,
            Targets::Family(family) => family.phases() as u64,
        };
        Self::new(start, 2, phases, targets)
    }

    pub(crate) fn start(&self) -> u64 {
        self.start
    }

    /// The round after the last phase.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.stride * self.phases
    }

    pub(crate) fn phases(&self) -> u64 {
        self.phases
    }

    /// The phase (1-based) round `r` falls in, and its step there.
    pub(crate) fn at(&self, r: u64) -> Option<(u64, Step)> {
        let offset = r.checked_sub(self.start)?;
        let step = match offset % self.stride {
            0 => Step::Inquiry,
            1 => Step::Response,
            _ => Step::Other,
        };
        let phase = offset / self.stride + 1;
        (phase <= self.phases).then_some((phase, step))
    }

    /// Whom `me` asks in `phase`: never itself, since a graph has no
    /// self-loops.  `G_phase` is built here on its first read.
    pub(crate) fn targets(&self, me: usize, phase: u64) -> impl Iterator<Item = usize> + '_ {
        let (little, neighbours) = match &self.targets {
            Targets::Little(k) => (*k, Neighbors::default()),
            Targets::Family(family) => (0, family.graph(phase as usize).neighbors(me)),
        };
        let little = (0..me.min(little)).chain(me + 1..little);
        little.chain(neighbours)
    }

    /// Records the senders of the inquiries in an inquiry round's inbox.
    pub(crate) fn record<M>(
        &mut self,
        inbox: &[Delivered<M>],
        inquiry: impl Fn(&Delivered<M>) -> bool,
    ) {
        let inquirers = inbox.iter().filter(|d| inquiry(d)).map(|d| d.from.index());
        self.inquirers = inquirers.collect();
    }

    /// In a response round: answers each recorded inquirer with `reply()`,
    /// or forgets them all when there is no reply to give.
    pub(crate) fn answer<M>(&mut self, reply: Option<impl Fn() -> M>, out: &mut Vec<Outgoing<M>>) {
        let inquirers = self.inquirers.drain(..);
        if let Some(reply) = reply {
            out.extend(inquirers.map(|v| Outgoing::new(NodeId::new(v), reply())));
        }
    }

    /// Whether someone is owed an answer (a node that owes nobody may sleep
    /// until an inquiry wakes it).
    pub(crate) fn owed(&self) -> bool {
        !self.inquirers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(n: usize, t: usize) -> Arc<InquiryFamily> {
        Arc::new(InquiryFamily::spread_common_value(n, t, 3))
    }

    /// An inbox of inquiries (`true`) from `inquirers` and a message of
    /// another kind from node 5.
    fn inbox(inquirers: &[usize]) -> Vec<Delivered<bool>> {
        let inquiries = inquirers
            .iter()
            .map(|&v| Delivered::new(NodeId::new(v), true));
        inquiries
            .chain([Delivered::new(NodeId::new(5), false)])
            .collect()
    }

    fn record(inquiries: &mut Inquiries, inquirers: &[usize]) {
        inquiries.record(&inbox(inquirers), |d| d.msg);
    }

    #[test]
    fn rounds_map_to_phase_and_step_for_stride_two() {
        let inquiries = Inquiries::new(10, 2, 3, Targets::Little(5));
        assert_eq!(inquiries.at(9), None, "before the start");
        assert_eq!(inquiries.at(10), Some((1, Step::Inquiry)));
        assert_eq!(inquiries.at(11), Some((1, Step::Response)));
        assert_eq!(inquiries.at(14), Some((3, Step::Inquiry)));
        assert_eq!(inquiries.at(15), Some((3, Step::Response)));
        assert_eq!(inquiries.end(), 16);
        assert_eq!(inquiries.at(16), None, "past the end");
    }

    #[test]
    fn rounds_map_to_phase_and_step_for_a_probing_stride() {
        let gamma = 4;
        let inquiries = Inquiries::new(0, 2 + gamma, 3, Targets::Little(5));
        assert_eq!(inquiries.at(0), Some((1, Step::Inquiry)));
        assert_eq!(inquiries.at(1), Some((1, Step::Response)));
        assert_eq!(inquiries.at(2), Some((1, Step::Other)));
        assert_eq!(inquiries.at(5), Some((1, Step::Other)));
        assert_eq!(inquiries.at(6), Some((2, Step::Inquiry)));
        assert_eq!(inquiries.at(12), Some((3, Step::Inquiry)));
        assert_eq!(inquiries.at(17), Some((3, Step::Other)));
        assert_eq!(inquiries.end(), 18);
        assert_eq!(inquiries.at(18), None, "past the end");
    }

    #[test]
    fn two_round_phases_follow_the_targets() {
        assert_eq!(Inquiries::two_round(4, Targets::Little(9)).phases(), 1);
        let family = family(200, 30);
        let phases = family.phases() as u64;
        let inquiries = Inquiries::two_round(4, Targets::Family(family));
        assert_eq!(inquiries.phases(), phases);
        assert_eq!(inquiries.end(), 4 + 2 * phases);
    }

    #[test]
    fn targets_never_include_the_inquirer() {
        let little = Inquiries::two_round(0, Targets::Little(6));
        assert_eq!(
            little.targets(2, 1).collect::<Vec<_>>(),
            vec![0, 1, 3, 4, 5]
        );
        assert_eq!(
            little.targets(0, 1).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(
            little.targets(5, 1).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(little.targets(8, 1).count(), 6, "a node that is not little");
        let family = family(60, 8);
        let inquiries = Inquiries::two_round(0, Targets::Family(Arc::clone(&family)));
        for phase in 1..=inquiries.phases() {
            for me in [0, 17, 59] {
                let targets: Vec<_> = inquiries.targets(me, phase).collect();
                assert!(!targets.contains(&me));
                let neighbours = family.graph(phase as usize).neighbors(me);
                assert_eq!(targets, neighbours.collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_node_that_never_inquires_builds_no_phase() {
        let family = family(200, 30);
        let mut inquiries = Inquiries::two_round(3, Targets::Family(Arc::clone(&family)));
        for r in 0..inquiries.end() {
            match inquiries.at(r) {
                Some((_, Step::Inquiry)) => record(&mut inquiries, &[7, 9]),
                Some((_, Step::Response)) => {
                    let mut out = Vec::new();
                    inquiries.answer(Some(|| "reply"), &mut out);
                    assert_eq!(out.len(), 2);
                }
                _ => {}
            }
        }
        assert_eq!(family.built_phases(), 0);
    }

    #[test]
    fn nobody_is_owed_once_answered_or_forgotten() {
        let mut inquiries = Inquiries::two_round(0, Targets::Little(4));
        assert!(!inquiries.owed());
        record(&mut inquiries, &[2, 3]);
        assert!(inquiries.owed());
        let mut out = Vec::new();
        inquiries.answer(Some(|| 'r'), &mut out);
        let answered: Vec<_> = out.iter().map(|o| (o.to.index(), o.msg)).collect();
        assert_eq!(answered, vec![(2, 'r'), (3, 'r')], "node 5 sent no inquiry");
        assert!(!inquiries.owed());
        record(&mut inquiries, &[1]);
        inquiries.answer(None::<fn() -> char>, &mut out);
        assert!(!inquiries.owed(), "no reply forgets");
        assert_eq!(out.len(), 2, "and sends nothing");
        record(&mut inquiries, &[]);
        assert!(!inquiries.owed());
    }
}
