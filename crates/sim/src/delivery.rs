//! The sparse single-port in-ports.
//!
//! [`PortMap`] is the sparse replacement for the single-port engine's dense
//! `n × n` port matrix, kept by the single-port core for the nodes it owns:
//! it stores only ports that currently buffer messages, so memory stays
//! `O(n + live messages)` at paper-scale `n`.

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

/// A sparse map of buffered single-port message queues, keyed by
/// `(destination, sender)`: the in-ports of the nodes a
/// [`crate::SinglePortCore`] owns.
///
/// The seed engine kept a dense `n × n` matrix of [`std::collections::VecDeque`]s —
/// `O(n²)` memory before a single message moved, which is what ruled out
/// paper-scale `n`.  Only ports that currently hold at least one undelivered
/// message occupy an entry here; draining a port removes its entry, and a
/// destination's queues are dropped wholesale when it crashes or halts, so
/// memory stays proportional to live traffic.
///
/// The destinations that hold anything are also kept in a list, so a round
/// drains polled ports by walking the few occupied destinations
/// ([`PortMap::drain_polled`]), not every poller: most pollers poll an
/// empty port, and those cost nothing.
pub(crate) struct PortMap<M> {
    /// Indexed by destination (grown on first use), then keyed by sender.
    /// Dropping a destination's queues when it crashes or halts clears one
    /// inner map, not a scan of every occupied port.  The hasher is the
    /// same in every process, so where entries land, and with it when a
    /// map grows and what it allocates, repeats from run to run.
    queues: Vec<HashMap<usize, Vec<M>, BuildHasherDefault<DefaultHasher>>>,
    /// The destinations whose inner map is not empty, in the order their
    /// first buffered message arrived.
    occupied: Vec<usize>,
    buffered: usize,
    /// Emptied queue buffers waiting for reuse.  Drained queues leave the
    /// map (that is what keeps it sparse), so without recycling every
    /// drain/push cycle of a port would drop one `Vec` and construct
    /// another; the core returns each finished poll buffer here
    /// ([`PortMap::recycle`]) and `push` takes from the pool first.
    spares: Vec<Vec<M>>,
    /// Buffers the last drain handed out that have not come back yet.
    lent: usize,
}

impl<M> PortMap<M> {
    /// Creates an empty port map.
    pub fn new() -> Self {
        PortMap {
            queues: Vec::new(),
            occupied: Vec::new(),
            buffered: 0,
            spares: Vec::new(),
            lent: 0,
        }
    }

    /// Buffers `msg` on destination `to`'s in-port from `from`.
    pub fn push(&mut self, to: usize, from: usize, msg: M) {
        if to >= self.queues.len() {
            self.queues.resize_with(to + 1, HashMap::default);
        }
        let spares = &mut self.spares;
        if let Some(ports) = self.queues.get_mut(to) {
            if ports.is_empty() {
                self.occupied.push(to);
            }
            ports
                .entry(from)
                .or_insert_with(|| spares.pop().unwrap_or_default())
                .push(msg);
            self.buffered += 1;
        }
    }

    /// Drains the polled port of every occupied destination, in the order
    /// the destinations became occupied: `port_of(to)` names the port `to`
    /// polls this round (`None`: it does not poll, or is not running), and
    /// each port that holds messages is handed to `hand` in arrival order.
    /// A destination left with nothing buffered leaves the occupied list.
    pub fn drain_polled(
        &mut self,
        mut port_of: impl FnMut(usize) -> Option<usize>,
        mut hand: impl FnMut(usize, Vec<M>),
    ) {
        let (queues, buffered, lent) = (&mut self.queues, &mut self.buffered, &mut self.lent);
        *lent = 0;
        self.occupied.retain(|&to| {
            let Some(ports) = queues.get_mut(to) else {
                return false;
            };
            if let Some(msgs) = port_of(to).and_then(|from| ports.remove(&from)) {
                *buffered -= msgs.len();
                *lent += 1;
                hand(to, msgs);
            }
            !ports.is_empty()
        });
    }

    /// Keeps a finished poll buffer for a later `push`, emptied, unless it
    /// never held anything.  The pool takes back as many buffers as the
    /// last drain handed out, and `cap` others at most: a caller that hands
    /// the core buffers of its own, and never takes them back, is held to
    /// `cap`.
    pub fn recycle(&mut self, mut buf: Vec<M>, cap: usize) {
        if buf.capacity() == 0 {
            return;
        }
        if self.lent > 0 {
            self.lent -= 1;
        } else if self.spares.len() >= cap {
            return;
        }
        buf.clear();
        self.spares.push(buf);
    }

    /// Moves the pooled buffers into `out`.
    pub fn take_spares(&mut self, out: &mut Vec<Vec<M>>) {
        out.append(&mut self.spares);
    }

    /// Drops every queue addressed to `to` (the node crashed or halted and
    /// will never poll again).
    #[expect(
        clippy::disallowed_methods,
        reason = "the drained queues are only counted (a sum of lengths), so hash order cannot show"
    )]
    pub fn drop_destination(&mut self, to: usize) {
        if let Some(ports) = self.queues.get_mut(to).filter(|ports| !ports.is_empty()) {
            self.buffered -= ports.drain().map(|(_, msgs)| msgs.len()).sum::<usize>();
            self.occupied.retain(|&dest| dest != to);
        }
    }

    /// Total number of buffered (sent but not yet polled) messages.
    pub fn buffered_messages(&self) -> usize {
        self.buffered
    }

    /// Number of ports currently holding at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.queues.iter().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `to`'s in-port from `from`, as a round in which `to` is the
    /// only poller.
    fn drain<M>(ports: &mut PortMap<M>, to: usize, from: usize) -> Option<Vec<M>> {
        let mut got = None;
        ports.drain_polled(
            |dest| (dest == to).then_some(from),
            |_, msgs| got = Some(msgs),
        );
        got
    }

    #[test]
    fn port_map_buffers_and_drains_sparsely() {
        let mut ports: PortMap<u32> = PortMap::new();
        assert_eq!(ports.buffered_messages(), 0);
        assert_eq!(ports.ports_in_use(), 0);
        ports.push(1, 0, 10);
        ports.push(1, 0, 11);
        ports.push(2, 0, 20);
        assert_eq!(ports.buffered_messages(), 3);
        assert_eq!(ports.ports_in_use(), 2);
        assert_eq!(drain(&mut ports, 1, 0), Some(vec![10, 11]));
        assert_eq!(drain(&mut ports, 1, 0), None, "drained port empty");
        assert_eq!(
            drain(&mut ports, 3, 0),
            None,
            "a destination never pushed to"
        );
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
    }

    #[test]
    fn port_map_drops_destinations() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(0, 1, 1);
        ports.push(0, 2, 2);
        ports.push(1, 0, 3);
        ports.drop_destination(0);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
        assert_eq!(drain(&mut ports, 1, 0), Some(vec![3]));
        assert_eq!(
            drain(&mut ports, 0, 1),
            None,
            "dropped with its destination"
        );
    }

    #[test]
    fn port_map_lists_occupied_destinations_in_first_push_order() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(3, 0, 1);
        ports.push(1, 0, 2);
        ports.push(3, 2, 3);
        ports.push(5, 4, 4);
        ports.push(1, 0, 5);
        assert_eq!(ports.occupied, [3, 1, 5]);
        // Everybody polls: the ports are handed over in the list's order.
        let mut handed = Vec::new();
        ports.drain_polled(|_| Some(0), |to, msgs| handed.push((to, msgs)));
        assert_eq!(handed, [(3, vec![1]), (1, vec![2, 5])]);
        // Node 3 still holds the port from node 2, and keeps its place.
        assert_eq!(ports.occupied, [3, 5]);
        ports.push(1, 0, 6);
        assert_eq!(ports.occupied, [3, 5, 1], "re-occupied: at the end");
    }

    #[test]
    fn emptied_crashed_and_halted_destinations_leave_the_occupied_list() {
        let mut ports: PortMap<u8> = PortMap::new();
        for to in 0..4 {
            ports.push(to, 9, to as u8);
        }
        assert_eq!(drain(&mut ports, 2, 9), Some(vec![2]), "emptied");
        // A crash and a halt look the same to the port map.
        ports.drop_destination(0);
        ports.drop_destination(3);
        ports.drop_destination(3);
        ports.drop_destination(7);
        assert_eq!(ports.occupied, [1]);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
    }

    #[test]
    fn an_unpolled_port_stays_buffered_and_counted() {
        let mut ports: PortMap<u8> = PortMap::new();
        ports.push(2, 0, 7);
        // Node 2 does not poll, then polls another port: nothing is handed.
        let mut handed = 0;
        ports.drain_polled(|_| None, |_, _| handed += 1);
        ports.drain_polled(|_| Some(1), |_, _| handed += 1);
        assert_eq!(handed, 0);
        assert_eq!(ports.occupied, [2]);
        assert_eq!(ports.buffered_messages(), 1);
        assert_eq!(ports.ports_in_use(), 1);
        assert_eq!(drain(&mut ports, 2, 0), Some(vec![7]), "found when polled");
        assert_eq!(ports.buffered_messages(), 0);
        assert!(ports.occupied.is_empty());
    }
}
