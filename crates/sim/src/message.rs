//! Message payloads, outgoing/delivered envelopes and bit accounting.
//!
//! The paper measures communication either by the *number of point-to-point
//! messages* or by the *total number of bits* carried in those messages
//! (Section 2).  Every payload type therefore reports its own size in bits
//! through [`Payload::bit_len`]; the runners aggregate both counters.

use std::fmt;

use crate::node::NodeId;

/// A message payload exchanged by a protocol.
///
/// Implementors report their own wire size in bits so the simulator can
/// reproduce the paper's bit-communication accounting (e.g. the consensus
/// algorithms of Section 4 send one-bit messages).
///
/// Payloads are `Send + Sync + 'static` so a sharded runner may hand a
/// round's messages to its shard workers, threads that outlive any single
/// borrow (see the threading-model notes in `DESIGN.md`); every payload in
/// this repository is plain owned data, so the bounds are auto-derived.
///
/// # Examples
///
/// ```
/// use dft_sim::Payload;
///
/// #[derive(Clone, Debug)]
/// struct Rumor(bool);
///
/// impl Payload for Rumor {
///     fn bit_len(&self) -> u64 {
///         1
///     }
/// }
///
/// assert_eq!(Rumor(true).bit_len(), 1);
/// ```
pub trait Payload: Clone + fmt::Debug + Send + Sync + 'static {
    /// Number of bits this payload occupies on the wire.
    fn bit_len(&self) -> u64;

    /// The address of the shared allocation this message points at, when
    /// it is an `Arc`-shared copy of a payload other messages of the round
    /// may carry too; `None` (the default) for a message that owns its
    /// data.
    ///
    /// The shard layer uses it to write each distinct payload once per
    /// block (see `crate::shard::intern`); serial runs never call it.
    /// Contract: two messages of one round that return the same key are
    /// equal — identity stands in for equality, so an override returns the
    /// address only when the whole message is determined by that
    /// allocation (an enum variant wrapping one `Arc`, say).
    fn share_key(&self) -> Option<usize> {
        None
    }
}

impl Payload for bool {
    fn bit_len(&self) -> u64 {
        1
    }
}

impl Payload for u8 {
    fn bit_len(&self) -> u64 {
        8
    }
}

impl Payload for u32 {
    fn bit_len(&self) -> u64 {
        32
    }
}

impl Payload for u64 {
    fn bit_len(&self) -> u64 {
        64
    }
}

impl Payload for () {
    /// An empty "ping" still occupies one bit on the wire: the paper never
    /// counts a message as free.
    fn bit_len(&self) -> u64 {
        1
    }
}

impl<T: Payload> Payload for Option<T> {
    fn bit_len(&self) -> u64 {
        1 + self.as_ref().map_or(0, Payload::bit_len)
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn bit_len(&self) -> u64 {
        // Length prefix (64 bits) plus the elements.
        64 + self.iter().map(Payload::bit_len).sum::<u64>()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn bit_len(&self) -> u64 {
        self.0.bit_len() + self.1.bit_len()
    }
}

impl<T: Payload> Payload for std::sync::Arc<T> {
    /// An `Arc` is a zero-cost sharing wrapper: the wire size is the inner
    /// payload's.  Protocols that broadcast one (potentially large) value to
    /// many destinations can wrap it in an `Arc` so the runner's per-copy
    /// cost is a reference-count bump instead of a deep clone, without
    /// changing the bit accounting.
    fn bit_len(&self) -> u64 {
        self.as_ref().bit_len()
    }

    fn share_key(&self) -> Option<usize> {
        Some(std::sync::Arc::as_ptr(self).addr())
    }
}

/// A message a node asks the runner to transmit this round.  The shard
/// layer's codec ([`crate::shard::Wire`]) is what moves envelopes between
/// processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Destination node.
    pub to: NodeId,
    /// Payload to deliver.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor.
    pub fn new(to: NodeId, msg: M) -> Self {
        Outgoing { to, msg }
    }
}

/// A message delivered to a node, tagged with its sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered<M> {
    /// The node that sent the message.
    pub from: NodeId,
    /// Payload received.
    pub msg: M,
}

impl<M> Delivered<M> {
    /// Convenience constructor.
    pub fn new(from: NodeId, msg: M) -> Self {
        Delivered { from, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_bit_lengths() {
        assert_eq!(true.bit_len(), 1);
        assert_eq!(7u8.bit_len(), 8);
        assert_eq!(7u32.bit_len(), 32);
        assert_eq!(7u64.bit_len(), 64);
        assert_eq!(().bit_len(), 1);
    }

    #[test]
    fn composite_bit_lengths() {
        assert_eq!(Some(true).bit_len(), 2);
        assert_eq!(None::<bool>.bit_len(), 1);
        assert_eq!(vec![true, false, true].bit_len(), 64 + 3);
        assert_eq!((true, 5u8).bit_len(), 9);
    }

    #[test]
    fn envelopes_carry_endpoints() {
        let out = Outgoing::new(NodeId::new(3), true);
        assert_eq!(out.to, NodeId::new(3));
        let del = Delivered::new(NodeId::new(1), false);
        assert_eq!(del.from, NodeId::new(1));
        assert!(!del.msg);
    }
}
