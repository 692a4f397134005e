//! Per-block payload interning for the bulk shard frames.
//!
//! The protocols of §5–§7 push one extant set (or one signed batch) to every
//! overlay neighbour in a round and `Arc`-share it among the copies.  A
//! [`Block`] writes the first message that points at a given shared
//! allocation in full ([`Slot::Inline`]), every further one as the list
//! position of that first copy ([`Slot::Shared`]); decoding one clones the
//! message already decoded there — an `Arc` bump.  No back-reference leaves
//! its block, so the coordinator forwards a block as it arrived.
//!
//! # The identity contract
//!
//! Sharing is detected by **allocation identity**, never by comparing
//! values: [`Payload::share_key`] returns the address of the shared
//! allocation a message points at (`None` for messages that own their
//! data), and equal keys within one round must imply equal messages.  The
//! table is keyed by address and looked up per message, so payloads
//! interleaved across destinations (A, B, A, B) are caught as well as runs
//! of one payload.  The block being encoded holds every first copy, so no
//! address can be freed and reused while it is written.  A list with
//! nothing shared costs its length prefix and one tag byte per message.

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

use super::schema::Schema;
use super::wire::{Wire, WireError, WireReader, WireResult};
use crate::message::{Delivered, Payload};
use crate::node::NodeId;

/// The message of one position of a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Slot<M> {
    /// The message itself: the first copy of a shared payload, or a message
    /// that shares nothing.
    Inline(M),
    /// The same message as the one at this (earlier) position of the list.
    Shared(usize),
}

crate::wire_enum!(Slot<M: Wire> { 0 = Inline(M), 1 = Shared(usize) });

/// A block's list as it is laid out after the length prefix: per entry the
/// destination's index within its chunk, the sender, and the message slot.
pub type Slots<M> = Vec<(usize, NodeId, Slot<M>)>;

/// What a shard worker delivers to one destination chunk, in sender order,
/// keyed by chunk-local index.  On the wire: the length in bytes, which
/// lets a reader pass the block on untouched ([`WireReader::block`]), then
/// the list as [`Slots`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block<M>(pub Vec<(usize, Delivered<M>)>);

impl<M: Payload + Wire> Wire for Block<M> {
    /// The first message with a given [`Payload::share_key`] is written
    /// inline, every further one as a back-reference to that position.
    fn encode(&self, out: &mut Vec<u8>) {
        let at = out.len();
        0u64.encode(out);
        self.0.len().encode(out);
        // A hasher seeded the same in every process: the table grows, and
        // allocates, the same way on every run.
        let mut first_at: HashMap<usize, usize, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        for (position, (local, Delivered { from, msg })) in self.0.iter().enumerate() {
            local.encode(out);
            from.encode(out);
            // `Slot<()>` writes a slot's tag, and a back-reference's
            // position, as `Slot<M>` does; an inline message follows its tag.
            let first = msg
                .share_key()
                .map(|key| *first_at.entry(key).or_insert(position));
            match first {
                Some(first) if first != position => Slot::<()>::Shared(first).encode(out),
                _ => {
                    Slot::Inline(()).encode(out);
                    msg.encode(out);
                }
            }
        }
        let len = (out.len() - at - 8) as u64;
        if let Some(prefix) = out.get_mut(at..at + 8) {
            prefix.copy_from_slice(&len.to_le_bytes());
        }
    }

    /// A back-reference becomes a clone of the message already decoded at
    /// the position it names.  The frame is untrusted: one to its own or a
    /// later position, or bytes left over inside the prefix, is an error.
    #[expect(
        clippy::disallowed_methods,
        reason = "a block is a span of a frame whose version open_frame checked; its own reader \
                  only keeps the slots inside the block's length"
    )]
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let mut inner = WireReader::new(r.block()?);
        let slots = Slots::<M>::decode(&mut inner)?;
        if !inner.is_empty() {
            let left = inner.remaining();
            return Err(WireError::new(format!("{left} bytes left over in a block")));
        }
        let mut list: Vec<(usize, Delivered<M>)> = Vec::with_capacity(slots.len());
        for (local, from, slot) in slots {
            let msg = match slot {
                Slot::Inline(msg) => msg,
                Slot::Shared(position) => match list.get(position) {
                    Some((_, first)) => first.msg.clone(),
                    None => Err(WireError::new(format!(
                        "slot {} shares slot {position}, which is not defined yet",
                        list.len()
                    )))?,
                },
            };
            list.push((local, Delivered::new(from, msg)));
        }
        Ok(Block(list))
    }

    fn describe(schema: &mut Schema) {
        schema.record(
            "Block",
            "Block<M: Wire> { byte_len: u64, slots: Vec<(usize, NodeId, Slot<M>)> }",
        );
        schema.declare::<u64>();
        schema.declare::<Slots<M>>();
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "codec tests round-trip bare values; there is no frame, so no version to check"
    )]
    use std::sync::Arc;

    use super::super::wire::{decode_error_path_violations, from_bytes, to_bytes};
    use super::*;

    type Msg = Arc<Vec<u64>>;

    fn entry(node: usize, from: usize, msg: &Msg) -> (usize, Delivered<Msg>) {
        (node, Delivered::new(NodeId::new(from), Arc::clone(msg)))
    }

    /// Two senders' payloads interleaved across destinations (A, B, A, B),
    /// plus an equal-valued payload in an allocation of its own.
    fn interleaved() -> Vec<(usize, Delivered<Msg>)> {
        let a: Msg = Arc::new(vec![1, 2, 3]);
        let b: Msg = Arc::new(vec![4; 40]);
        let twin_of_a: Msg = Arc::new(vec![1, 2, 3]);
        vec![
            entry(0, 7, &a),
            entry(0, 8, &b),
            entry(1, 7, &a),
            entry(1, 8, &b),
            entry(2, 9, &twin_of_a),
            entry(2, 7, &a),
        ]
    }

    /// `slots` as a block on the wire: the length prefix, then the slots.
    fn block_bytes<M: Wire>(slots: &Slots<M>) -> Vec<u8> {
        let body = to_bytes(slots);
        [to_bytes(&body.len()), body].concat()
    }

    #[test]
    fn interleaved_payloads_are_written_once_and_shared_after_decode() {
        let input = interleaved();
        let bytes = to_bytes(&Block(input.clone()));
        let slots: Slots<Msg> = from_bytes(&bytes[8..]).expect("the slots after the prefix");
        let shape: Vec<Option<usize>> = slots
            .iter()
            .map(|(_, _, slot)| match slot {
                Slot::Inline(_) => None,
                Slot::Shared(position) => Some(*position),
            })
            .collect();
        // Identity, not value: the twin of A is a payload of its own.
        assert_eq!(shape, [None, None, Some(0), Some(1), None, Some(0)]);

        let per_copy: usize = input.iter().map(|e| to_bytes(e).len()).sum();
        assert!(bytes.len() < per_copy, "{} vs {per_copy}", bytes.len());

        let Block(decoded) = from_bytes::<Block<Msg>>(&bytes).expect("decodes and resolves");
        assert_eq!(decoded, input);
        let msg = |i: usize| &decoded[i].1.msg;
        assert!(Arc::ptr_eq(msg(0), msg(2)) && Arc::ptr_eq(msg(0), msg(5)));
        assert!(Arc::ptr_eq(msg(1), msg(3)));
        assert!(!Arc::ptr_eq(msg(0), msg(1)));
        assert!(!Arc::ptr_eq(msg(0), msg(4)), "equal values stay apart");
        assert_eq!(Arc::strong_count(msg(0)), 3);
    }

    #[test]
    fn unshared_messages_cost_one_tag_byte_each() {
        let list: Vec<(usize, Delivered<bool>)> = (0..5)
            .map(|i| (i, Delivered::new(NodeId::new(i + 1), i % 2 == 0)))
            .collect();
        let plain = to_bytes(&list).len();
        let bytes = to_bytes(&Block(list));
        let slots: Slots<bool> = from_bytes(&bytes[8..]).expect("the slots after the prefix");
        assert!(slots.iter().all(|(_, _, s)| matches!(s, Slot::Inline(_))));
        assert_eq!(
            bytes.len(),
            8 + plain + 5,
            "the prefix and a tag per message"
        );
    }

    #[test]
    fn slot_golden_bytes() {
        assert_eq!(crate::shard::WIRE_VERSION, 14);
        assert_eq!(to_bytes(&Slot::Inline(0xBEEFu16)), b"\0\xef\xbe");
        assert_eq!(to_bytes(&Slot::<u16>::Shared(3)), b"\x01\x03\0\0\0\0\0\0\0");
        // The byte length (27), then the slots: one entry of local node 1,
        // sender 2, inline `true`; a second copy of an `Arc` is a
        // back-reference to position 0.
        let block = Block(vec![(1, Delivered::new(NodeId::new(2), true))]);
        assert_eq!(
            to_bytes(&block),
            b"\x1a\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\0\x01"
        );
        let shared = Arc::new(0xBEEFu64);
        let copy = |local| (local, Delivered::new(NodeId::new(2), Arc::clone(&shared)));
        let bytes = to_bytes(&Block(vec![copy(0), copy(1)]));
        assert_eq!(bytes.len(), 8 + 8 + (17 + 8) + (17 + 8));
        assert_eq!(bytes[bytes.len() - 9..], *b"\x01\0\0\0\0\0\0\0\0");
    }

    #[test]
    fn slot_round_trips_and_rejects_every_truncation() {
        for slot in [Slot::Inline(0xAB_u64), Slot::Shared(3)] {
            assert_eq!(from_bytes::<Slot<u64>>(&to_bytes(&slot)), Ok(slot.clone()));
            assert_eq!(decode_error_path_violations(&slot), Vec::<usize>::new());
        }
        let block = Block(interleaved());
        assert_eq!(
            from_bytes::<Block<Msg>>(&to_bytes(&block)),
            Ok(block.clone())
        );
        assert_eq!(decode_error_path_violations(&block), Vec::<usize>::new());
    }

    #[test]
    fn hostile_slots_are_errors_not_panics() {
        assert!(from_bytes::<Slot<u64>>(&[2]).is_err(), "unknown slot tag");
        let from = NodeId::new(0);
        let later: Slots<u64> = vec![(0, from, Slot::Shared(1)), (1, from, Slot::Inline(5))];
        let own: Slots<u64> = vec![(0, from, Slot::Inline(5)), (1, from, Slot::Shared(1))];
        let undefined: Slots<u64> = vec![(0, from, Slot::Shared(usize::MAX))];
        for hostile in [later, own, undefined] {
            // The slots themselves are well-formed; the block refuses them.
            let err = from_bytes::<Block<u64>>(&block_bytes(&hostile))
                .expect_err("an undefined slot must be refused");
            assert!(err.to_string().contains("not defined yet"), "{err}");
        }
        // A chain of back-references only ever reaches defined slots.
        let chain: Slots<u64> = vec![
            (0, from, Slot::Inline(5)),
            (1, from, Slot::Shared(0)),
            (2, from, Slot::Shared(1)),
        ];
        let Block(resolved) =
            from_bytes::<Block<u64>>(&block_bytes(&chain)).expect("defined slots resolve");
        assert!(resolved.iter().all(|(_, delivered)| delivered.msg == 5));
    }
}
