//! Per-frame payload interning for the two bulk shard frames.
//!
//! The protocols of §5–§7 push one extant set (or one signed batch) to every
//! overlay neighbour in a round and `Arc`-share it among the copies, so a
//! `RESP_DELIVERED` or `REQ_RECEIVE` message list names the same allocation
//! many times.  A frame carries such a list as [`Slots`]: the first message
//! that points at a given shared allocation is written in full
//! ([`Slot::Inline`]), every further one as the list position of that first
//! copy ([`Slot::Shared`]).  Decoding a back-reference clones the message
//! already decoded at that position — an `Arc` bump — so sender, coordinator
//! and receiver each hold one allocation per distinct payload per frame.
//!
//! # The identity contract
//!
//! Sharing is detected by **allocation identity**, never by comparing
//! values: [`Payload::share_key`] returns the address of the shared
//! allocation a message points at (`None` for messages that own their
//! data), and equal keys within one round must imply equal messages.  The
//! table is keyed by address and looked up per message, so payloads
//! interleaved across destinations (a round emitting A, B, A, B) are caught
//! as well as runs of one payload.  [`intern`] keeps every first copy alive
//! in the list it returns, so no address can be freed and reused while a
//! frame is being built.
//!
//! A list with nothing shared costs one tag byte per message over the plain
//! list encoding, and nothing else.

use std::collections::hash_map::{DefaultHasher, Entry, HashMap};
use std::hash::BuildHasherDefault;

use super::wire::{Wire, WireError, WireResult};
use crate::message::{Delivered, Payload};
use crate::node::NodeId;

/// The message of one position of an interned frame list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Slot<M> {
    /// The message itself: the first copy of a shared payload, or a message
    /// that shares nothing.
    Inline(M),
    /// The same message as the one at this (earlier) position of the list.
    Shared(usize),
}

crate::wire_enum!(Slot<M: Wire> { 0 = Inline(M), 1 = Shared(usize) });

/// A message list in frame form: per entry the node index the list is keyed
/// by (global destination in `RESP_DELIVERED`, chunk-local destination in
/// `REQ_RECEIVE`), the sender, and the message slot.
pub type Slots<M> = Vec<(usize, NodeId, Slot<M>)>;

/// Moves `list` into frame form, leaving it empty (capacity kept): the
/// first message with a given [`Payload::share_key`] stays inline, every
/// further one becomes a back-reference to that position.
pub fn intern<M: Payload>(list: &mut Vec<(usize, Delivered<M>)>) -> Slots<M> {
    // A hasher seeded the same in every process: the table grows, and
    // allocates, the same way on every run.
    let mut first_at: HashMap<usize, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut slots = Vec::with_capacity(list.len());
    for (position, (node, Delivered { from, msg })) in list.drain(..).enumerate() {
        let slot = match msg.share_key() {
            None => Slot::Inline(msg),
            Some(key) => match first_at.entry(key) {
                Entry::Occupied(first) => Slot::Shared(*first.get()),
                Entry::Vacant(unseen) => {
                    unseen.insert(position);
                    Slot::Inline(msg)
                }
            },
        };
        slots.push((node, from, slot));
    }
    slots
}

/// Turns a decoded frame list back into messages; a back-reference becomes
/// a clone of the message already resolved at the position it names.
///
/// # Errors
///
/// Returns a [`WireError`] for a back-reference to its own or a later
/// position: the frame is untrusted, and only what is already defined can
/// be shared.
pub fn resolve<M: Clone>(slots: Slots<M>) -> WireResult<Vec<(usize, Delivered<M>)>> {
    let mut list: Vec<(usize, Delivered<M>)> = Vec::with_capacity(slots.len());
    for (node, from, slot) in slots {
        let msg = match slot {
            Slot::Inline(msg) => msg,
            Slot::Shared(position) => match list.get(position) {
                Some((_, first)) => first.msg.clone(),
                None => {
                    return Err(WireError::new(format!(
                        "slot {} shares slot {position}, which is not defined yet",
                        list.len()
                    )));
                }
            },
        };
        list.push((node, Delivered::new(from, msg)));
    }
    Ok(list)
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

    #[test]
    fn interleaved_payloads_are_written_once_and_shared_after_decode() {
        let input = interleaved();
        let mut list = input.clone();
        let slots = intern(&mut list);
        assert!(list.is_empty(), "the list is moved into the frame");
        let shape: Vec<Option<usize>> = slots
            .iter()
            .map(|(_, _, slot)| match slot {
                Slot::Inline(_) => None,
                Slot::Shared(position) => Some(*position),
            })
            .collect();
        // Identity, not value: the twin of A is a payload of its own.
        assert_eq!(shape, [None, None, Some(0), Some(1), None, Some(0)]);

        let bytes = to_bytes(&slots);
        let per_copy: usize = input.iter().map(|e| to_bytes(e).len()).sum();
        assert!(bytes.len() < per_copy, "{} vs {per_copy}", bytes.len());

        let decoded =
            resolve(from_bytes::<Slots<Msg>>(&bytes).expect("decodes")).expect("resolves");
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
        let mut list: Vec<(usize, Delivered<bool>)> = (0..5)
            .map(|i| (i, Delivered::new(NodeId::new(i + 1), i % 2 == 0)))
            .collect();
        let plain = to_bytes(&list).len();
        let slots = intern(&mut list);
        assert!(slots.iter().all(|(_, _, s)| matches!(s, Slot::Inline(_))));
        assert_eq!(to_bytes(&slots).len(), plain + 5);
    }

    #[test]
    fn slot_golden_bytes() {
        assert_eq!(crate::shard::WIRE_VERSION, 9);
        assert_eq!(to_bytes(&Slot::Inline(0xBEEFu16)), b"\0\xef\xbe");
        assert_eq!(to_bytes(&Slot::<u16>::Shared(3)), b"\x01\x03\0\0\0\0\0\0\0");
    }

    #[test]
    fn slot_round_trips_and_rejects_every_truncation() {
        for slot in [Slot::Inline(0xAB_u64), Slot::Shared(3)] {
            assert_eq!(from_bytes::<Slot<u64>>(&to_bytes(&slot)), Ok(slot.clone()));
            assert_eq!(decode_error_path_violations(&slot), Vec::<usize>::new());
        }
        let mut list = interleaved();
        let slots = intern(&mut list);
        assert_eq!(decode_error_path_violations(&slots), Vec::<usize>::new());
    }

    #[test]
    fn hostile_slots_are_errors_not_panics() {
        assert!(from_bytes::<Slot<u64>>(&[2]).is_err(), "unknown slot tag");
        let from = NodeId::new(0);
        let later: Slots<u64> = vec![(0, from, Slot::Shared(1)), (1, from, Slot::Inline(5))];
        let own: Slots<u64> = vec![(0, from, Slot::Inline(5)), (1, from, Slot::Shared(1))];
        let undefined: Slots<u64> = vec![(0, from, Slot::Shared(usize::MAX))];
        for hostile in [later, own, undefined] {
            // The frame itself is well-formed; the resolve pass refuses it.
            let decoded: Slots<u64> = from_bytes(&to_bytes(&hostile)).expect("decodes");
            let err = resolve(decoded).expect_err("an undefined slot must be refused");
            assert!(err.to_string().contains("not defined yet"), "{err}");
        }
        // A chain of back-references only ever reaches defined slots.
        let chain: Slots<u64> = vec![
            (0, from, Slot::Inline(5)),
            (1, from, Slot::Shared(0)),
            (2, from, Slot::Shared(1)),
        ];
        let resolved = resolve(chain).expect("defined slots resolve");
        assert!(resolved.iter().all(|(_, delivered)| delivered.msg == 5));
    }
}
