//! Shard wire codecs ([`dft_sim::shard::Wire`]) for the protocol message
//! and output types, so any of the paper's executions can be partitioned
//! across `run_experiments --shard-worker` processes.
//!
//! Encodings are tag-per-variant and little-endian throughout (the codec's
//! house style); each type's encoding is the natural transcription of its
//! fields.  The types also carry `serde` derives for the day the real
//! crates.io `serde` replaces the vendored stand-in — at which point these
//! impls become a thin adapter over a generic format.

use std::sync::Arc;

use dft_sim::shard::{Wire, WireError, WireReader, WireResult, MAX_FRAME_LEN};

use crate::ab_consensus::{AbMsg, CommonSet};
use crate::aea::AeaMsg;
use crate::checkpointing::CheckpointMsg;
use crate::dolev_strong::DsBatch;
use crate::few_crashes::FcMsg;
use crate::gossip::GossipMsg;
use crate::many_crashes::McMsg;
use crate::scv::ScvMsg;
use crate::values::{BitVector, ExtantSet, JoinValue};

fn bad_tag(what: &str, tag: u8) -> WireError {
    WireError::new(format!("invalid {what} tag {tag}"))
}

impl<V: JoinValue + Wire> Wire for AeaMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AeaMsg::Rumor(v) => {
                out.push(0);
                v.encode(out);
            }
            AeaMsg::Decision(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(AeaMsg::Rumor(V::decode(r)?)),
            1 => Ok(AeaMsg::Decision(V::decode(r)?)),
            tag => Err(bad_tag("AeaMsg", tag)),
        }
    }
}

impl<V: JoinValue + Wire> Wire for ScvMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ScvMsg::Value(v) => {
                out.push(0);
                v.encode(out);
            }
            ScvMsg::Inquiry => out.push(1),
            ScvMsg::Response(v) => {
                out.push(2);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(ScvMsg::Value(V::decode(r)?)),
            1 => Ok(ScvMsg::Inquiry),
            2 => Ok(ScvMsg::Response(V::decode(r)?)),
            tag => Err(bad_tag("ScvMsg", tag)),
        }
    }
}

impl<V: JoinValue + Wire> Wire for FcMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FcMsg::Aea(m) => {
                out.push(0);
                m.encode(out);
            }
            FcMsg::Scv(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(FcMsg::Aea(AeaMsg::decode(r)?)),
            1 => Ok(FcMsg::Scv(ScvMsg::decode(r)?)),
            tag => Err(bad_tag("FcMsg", tag)),
        }
    }
}

impl Wire for McMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            McMsg::Rumor(v) => {
                out.push(0);
                v.encode(out);
            }
            McMsg::Inquiry => out.push(1),
            McMsg::Response(v) => {
                out.push(2);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(McMsg::Rumor(bool::decode(r)?)),
            1 => Ok(McMsg::Inquiry),
            2 => Ok(McMsg::Response(bool::decode(r)?)),
            tag => Err(bad_tag("McMsg", tag)),
        }
    }
}

/// The bit length, then the backing words as a sequence (word count, words).
impl Wire for BitVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        self.raw_words().len().encode(out);
        for word in self.raw_words() {
            word.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = usize::decode(r)?;
        let count = r.len()?;
        // The words must still be in the frame: a corrupt prefix allocates
        // nothing.  (`from_raw_words` checks the count against `len`.)
        if count > r.remaining() / 8 {
            return Err(WireError::new(format!(
                "BitVector of {count} words with {} bytes left",
                r.remaining()
            )));
        }
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            words.push(r.u64()?);
        }
        BitVector::from_raw_words(len, words)
            .ok_or_else(|| WireError::new("BitVector word count does not match its length"))
    }
}

/// The slot count, then the proper pairs as a sequence (pair count, then
/// `(index, rumor)` in strictly ascending index order — the one encoding of
/// a set, so an accepted frame re-encodes to the same bytes).
impl Wire for ExtantSet {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(16 + 16 * self.present_count());
        self.len().encode(out);
        self.present_count().encode(out);
        for (idx, rumor) in self.pairs() {
            idx.encode(out);
            rumor.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = usize::decode(r)?;
        let count = r.len()?;
        // A decoded set holds 16 bytes per slot whatever the frame carried,
        // so — unlike a `Vec` prefix — the slot count is not bounded by the
        // bytes that follow it.  Cap it where the allocation reaches what a
        // maximal frame could make any decoder allocate; the pairs
        // themselves must still be in the frame.
        if len > MAX_FRAME_LEN as usize / 16 {
            return Err(WireError::new(format!(
                "ExtantSet of {len} slots exceeds the maximum frame size"
            )));
        }
        if count > len || count > r.remaining() / 16 {
            return Err(WireError::new(format!(
                "ExtantSet of {len} slots with {count} pairs ({} bytes left)",
                r.remaining()
            )));
        }
        let mut set = ExtantSet::nil(len);
        let mut floor = 0;
        for _ in 0..count {
            let idx = r.len()?;
            let rumor = r.u64()?;
            if idx < floor || idx >= len {
                return Err(WireError::new(format!(
                    "ExtantSet pair index {idx} outside {floor}..{len} (indices ascend strictly)"
                )));
            }
            set.update(idx, rumor);
            floor = idx + 1;
        }
        Ok(set)
    }
}

impl Wire for GossipMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GossipMsg::Inquiry => out.push(0),
            GossipMsg::Pair { node, rumor } => {
                out.push(1);
                node.encode(out);
                rumor.encode(out);
            }
            GossipMsg::Extant(set) => {
                out.push(2);
                set.encode(out);
            }
            GossipMsg::Completion(bits) => {
                out.push(3);
                bits.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(GossipMsg::Inquiry),
            1 => Ok(GossipMsg::Pair {
                node: u64::decode(r)?,
                rumor: u64::decode(r)?,
            }),
            2 => Ok(GossipMsg::Extant(Arc::decode(r)?)),
            3 => Ok(GossipMsg::Completion(Arc::decode(r)?)),
            tag => Err(bad_tag("GossipMsg", tag)),
        }
    }
}

impl Wire for CheckpointMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CheckpointMsg::Gossip(m) => {
                out.push(0);
                m.encode(out);
            }
            CheckpointMsg::Consensus(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(CheckpointMsg::Gossip(GossipMsg::decode(r)?)),
            1 => Ok(CheckpointMsg::Consensus(FcMsg::decode(r)?)),
            tag => Err(bad_tag("CheckpointMsg", tag)),
        }
    }
}

impl Wire for DsBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(DsBatch(Vec::decode(r)?))
    }
}

impl Wire for CommonSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(CommonSet {
            entries: Vec::decode(r)?,
        })
    }
}

impl Wire for AbMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AbMsg::Ds(batch) => {
                out.push(0);
                batch.encode(out);
            }
            AbMsg::Endorse(entries) => {
                out.push(1);
                entries.encode(out);
            }
            AbMsg::CommonSet(set) => {
                out.push(2);
                set.encode(out);
            }
            AbMsg::Inquiry(signature) => {
                out.push(3);
                signature.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(AbMsg::Ds(Arc::decode(r)?)),
            1 => Ok(AbMsg::Endorse(Arc::decode(r)?)),
            2 => Ok(AbMsg::CommonSet(Arc::decode(r)?)),
            3 => Ok(AbMsg::Inquiry(dft_auth::Signature::decode(r)?)),
            tag => Err(bad_tag("AbMsg", tag)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_auth::{KeyDirectory, SignedValue};
    use dft_sim::shard::{decode_error_path_violations, from_bytes, to_bytes};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).expect("round trip"), value);
        assert_eq!(
            decode_error_path_violations(&value),
            Vec::<usize>::new(),
            "every truncated or oversized frame must fail to decode"
        );
    }

    #[test]
    fn consensus_messages_round_trip() {
        round_trip(AeaMsg::Rumor(true));
        round_trip(AeaMsg::Decision(false));
        round_trip(ScvMsg::<bool>::Inquiry);
        round_trip(ScvMsg::Value(true));
        round_trip(FcMsg::Aea(AeaMsg::Rumor(true)));
        round_trip(FcMsg::<bool>::Scv(ScvMsg::Response(false)));
        round_trip(McMsg::Rumor(true));
        round_trip(McMsg::Inquiry);
        round_trip(McMsg::Response(false));
    }

    #[test]
    fn value_types_round_trip() {
        round_trip(BitVector::from_set_bits(130, [0, 64, 129]));
        round_trip(BitVector::zeros(0));
        let mut set = ExtantSet::nil(5);
        set.update(1, 77);
        set.update(4, 99);
        round_trip(set);
        round_trip(ExtantSet::nil(0));
    }

    #[test]
    fn decoded_bit_vectors_are_canonical() {
        // A wire peer could claim set bits beyond `len`; decoding must mask
        // them so equality and joins behave.
        let mut bytes = Vec::new();
        70usize.encode(&mut bytes);
        vec![u64::MAX, u64::MAX].encode(&mut bytes);
        let decoded: BitVector = from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.count_ones(), 70);
        // Wrong word count is rejected outright.
        let mut bad = Vec::new();
        70usize.encode(&mut bad);
        vec![u64::MAX].encode(&mut bad);
        assert!(from_bytes::<BitVector>(&bad).is_err());
    }

    /// The sibling of `malformed_input_is_an_error_not_a_panic` in the
    /// simulator's codec: a corrupt slot count must not size an allocation.
    #[test]
    fn malformed_extant_set_is_an_error_not_an_allocation() {
        let frame = |len: u64, pairs: &[(u64, u64)]| {
            let mut bytes = to_bytes(&len);
            (pairs.len() as u64).encode(&mut bytes);
            for pair in pairs {
                pair.encode(&mut bytes);
            }
            bytes
        };
        // A slot count straight off a corrupt prefix: 16 * len bytes would
        // abort the process, not fail the frame.
        for len in [u64::MAX, 1 << 40, u64::from(MAX_FRAME_LEN)] {
            assert!(from_bytes::<ExtantSet>(&frame(len, &[])).is_err(), "{len}");
        }
        // More pairs than slots, or than the frame still holds.
        assert!(from_bytes::<ExtantSet>(&frame(1, &[(0, 5), (0, 6)])).is_err());
        let mut short = frame(8, &[]);
        short[8..16].copy_from_slice(&3u64.to_le_bytes());
        assert!(from_bytes::<ExtantSet>(&short).is_err());
        // Indices out of range, repeated or descending.
        assert!(from_bytes::<ExtantSet>(&frame(4, &[(4, 5)])).is_err());
        assert!(from_bytes::<ExtantSet>(&frame(4, &[(2, 5), (2, 6)])).is_err());
        assert!(from_bytes::<ExtantSet>(&frame(4, &[(3, 5), (1, 6)])).is_err());
        // What is accepted re-encodes to the bytes it came from.
        let accepted = frame(4, &[(1, 6), (3, 5)]);
        let set: ExtantSet = from_bytes(&accepted).expect("ascending pairs decode");
        assert_eq!(to_bytes(&set), accepted);
        // The bit vector's word count is pinned by its length.
        let mut bits = to_bytes(&(1u64 << 50));
        (1u64 << 44).encode(&mut bits);
        assert!(from_bytes::<BitVector>(&bits).is_err());
    }

    #[test]
    fn gossip_and_checkpoint_messages_round_trip() {
        round_trip(GossipMsg::Inquiry);
        round_trip(GossipMsg::Pair {
            node: 3,
            rumor: 1003,
        });
        let mut set = ExtantSet::nil(4);
        set.update(2, 5);
        round_trip(GossipMsg::Extant(Arc::new(set)));
        round_trip(GossipMsg::Completion(Arc::new(BitVector::from_set_bits(
            10,
            [1, 9],
        ))));
        round_trip(CheckpointMsg::Gossip(GossipMsg::Inquiry));
        round_trip(CheckpointMsg::Consensus(FcMsg::Aea(AeaMsg::Rumor(
            BitVector::from_set_bits(8, [0, 7]),
        ))));
    }

    #[test]
    fn authenticated_messages_round_trip() {
        let directory = KeyDirectory::generate(4, 7);
        let mut value = SignedValue::originate(&directory.signer(0), 42);
        value.countersign(&directory.signer(2));
        round_trip(DsBatch(vec![value.clone()]));
        round_trip(CommonSet {
            entries: vec![value.clone()],
        });
        round_trip(AbMsg::Ds(Arc::new(DsBatch(vec![value.clone()]))));
        round_trip(AbMsg::Endorse(Arc::new(vec![value.clone()])));
        round_trip(AbMsg::CommonSet(Arc::new(CommonSet {
            entries: vec![value],
        })));
        round_trip(AbMsg::Inquiry(directory.signer(1).sign_digest(9)));
    }

    #[test]
    fn decoded_signatures_still_verify() {
        let directory = KeyDirectory::generate(3, 11);
        let signature = directory.signer(1).sign_digest(1234);
        let decoded: dft_auth::Signature = from_bytes(&to_bytes(&signature)).unwrap();
        assert!(directory.verify_digest(&decoded, 1234));
        assert!(!directory.verify_digest(&decoded, 1235));
    }
}
