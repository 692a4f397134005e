//! Shard wire codecs ([`dft_sim::shard::Wire`]) for the protocol message
//! and output types, so any of the paper's executions can be partitioned
//! across shard workers (`run_experiments --shards`) or `dft-node` peers.
//!
//! Each message type declares its layout once (tag per variant, fields in
//! order) and gets both directions generated from it; [`CommonSet`] and
//! [`Endorsements`] do so in their own module, where their private fields
//! are in reach.  A composite's
//! message is [`Staged`], declared here once for all of them.  [`BitVector`]
//! and [`ExtantSet`] are written by hand ([`LEAVES`]): their decoders bound
//! what a corrupt prefix can allocate and accept only the canonical form of
//! a value.

use std::sync::Arc;

use dft_auth::SignedValue;
use dft_sim::shard::{
    wire_enum, wire_struct, Schema, Wire, WireError, WireReader, WireResult, MAX_FRAME_LEN,
};

use crate::ab_consensus::{AgreementMsg, CommonSet, Endorsements};
use crate::aea::AeaMsg;
use crate::dolev_strong::DsBatch;
use crate::gossip::GossipMsg;
use crate::scv::ScvMsg;
use crate::then::Staged;
use crate::values::{BitVector, ExtantSet, JoinValue};

/// The hand-written codecs of this module, by schema name.
pub const LEAVES: &[&str] = &["BitVector", "ExtantSet"];

wire_enum!(Staged<A: Wire, B: Wire> { 0 = First(A), 1 = Second(B) });
wire_enum!(AeaMsg<V: JoinValue + Wire> { 0 = Rumor(V), 1 = Decision(V) });
wire_enum!(ScvMsg<V: Wire, I: Wire> { 0 = Value(V), 1 = Inquiry(I), 2 = Response(V) });
wire_enum!(GossipMsg {
    0 = Inquiry,
    1 = Pair { node: u64, rumor: u64 },
    2 = Extant(Arc<ExtantSet>),
    3 = Completion(Arc<BitVector>),
});
wire_struct!(DsBatch(Vec<SignedValue>));
wire_enum!(AgreementMsg {
    0 = Ds(Arc<DsBatch>),
    1 = Endorse(Arc<Endorsements>),
    2 = Notify(Arc<CommonSet>),
});

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

    fn describe(schema: &mut Schema) {
        schema.leaf("BitVector");
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
        // A pair is its index then its rumor, both `u64` little-endian: one
        // 16-byte write, so one capacity check per pair.
        for (idx, rumor) in self.pairs() {
            let pair = u128::from(rumor) << 64 | idx as u128;
            out.extend_from_slice(&pair.to_le_bytes());
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = usize::decode(r)?;
        let count = r.len()?;
        // A decoded set holds about 8⅛ bytes per slot (a rumor word and a
        // presence bit) whatever the frame carried, so — unlike a `Vec`
        // prefix — the slot count is not bounded by the bytes that follow
        // it.  Cap it at a sixteenth of a maximal frame, which keeps the
        // allocation below what such a frame could make any decoder
        // allocate; the pairs themselves must still be in the frame.
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

    fn describe(schema: &mut Schema) {
        schema.leaf("ExtantSet");
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "codec tests round-trip bare values; there is no frame, so no version to check"
    )]
    use super::*;
    use crate::ab_consensus::AbMsg;
    use crate::checkpointing::CheckpointMsg;
    use crate::few_crashes::FcMsg;
    use dft_auth::KeyDirectory;
    use dft_sim::shard::{decode_error_path_violations, from_bytes, to_bytes};

    /// The crash model's `Spread-Common-Value` message.
    type Scv = ScvMsg<bool>;

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
        round_trip(Scv::Inquiry(()));
        round_trip(Scv::Value(true));
        round_trip(FcMsg::First(AeaMsg::Rumor(true)));
        round_trip(FcMsg::<bool>::Second(Scv::Response(false)));
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
        round_trip(CheckpointMsg::First(GossipMsg::Inquiry));
        round_trip(CheckpointMsg::Second(Staged::First(AeaMsg::Rumor(
            BitVector::from_set_bits(8, [0, 7]),
        ))));
    }

    #[test]
    fn authenticated_messages_round_trip() {
        let directory = KeyDirectory::generate(4, 7);
        let mut value = SignedValue::originate(&directory.signer(0), 42);
        value.countersign(&directory.signer(2));
        round_trip(DsBatch(vec![value.clone()]));
        round_trip(CommonSet::new(vec![value.clone()]));
        round_trip(Endorsements::new(vec![value.clone()]));
        let common = Arc::new(CommonSet::new(vec![value.clone()]));
        let batch = Arc::new(DsBatch(vec![value.clone()]));
        round_trip(AbMsg::First(AgreementMsg::Ds(batch)));
        round_trip(AbMsg::First(AgreementMsg::Endorse(Arc::new(
            Endorsements::new(vec![value]),
        ))));
        round_trip(AbMsg::First(AgreementMsg::Notify(Arc::clone(&common))));
        round_trip(AbMsg::Second(ScvMsg::Value(Arc::clone(&common))));
        let signature = directory.signer(1).sign_digest(9);
        round_trip(AbMsg::Second(ScvMsg::Inquiry(signature)));
        round_trip(AbMsg::Second(ScvMsg::Response(common)));
    }

    /// One sample value per codec of this module and the bytes it must
    /// encode to.  A layout edit changes a line here and needs the version
    /// bump asserted beside it.
    #[test]
    fn golden_bytes() {
        assert_eq!(dft_sim::shard::WIRE_VERSION, 9);
        let tagged = |tag: u8, body: &[u8]| [&[tag], body].concat();

        assert_eq!(to_bytes(&AeaMsg::Rumor(true)), b"\0\x01");
        assert_eq!(to_bytes(&AeaMsg::Decision(false)), b"\x01\0");
        assert_eq!(to_bytes(&Scv::Value(true)), b"\0\x01");
        assert_eq!(to_bytes(&Scv::Inquiry(())), b"\x01");
        assert_eq!(to_bytes(&Scv::Response(false)), b"\x02\0");
        assert_eq!(to_bytes(&FcMsg::First(AeaMsg::Rumor(true))), b"\0\0\x01");
        assert_eq!(
            to_bytes(&FcMsg::<bool>::Second(Scv::Inquiry(()))),
            b"\x01\x01"
        );

        let bits = BitVector::from_set_bits(70, [0, 64, 69]);
        let bits_bytes = b"\x46\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\
                           \x01\0\0\0\0\0\0\0\x21\0\0\0\0\0\0\0";
        assert_eq!(to_bytes(&bits), bits_bytes);
        let mut set = ExtantSet::nil(5);
        set.update(1, 77);
        set.update(4, 99);
        let set_bytes = b"\x05\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\
                          \x01\0\0\0\0\0\0\0\x4d\0\0\0\0\0\0\0\
                          \x04\0\0\0\0\0\0\0\x63\0\0\0\0\0\0\0";
        assert_eq!(to_bytes(&set), set_bytes);

        assert_eq!(to_bytes(&GossipMsg::Inquiry), b"\0");
        assert_eq!(
            to_bytes(&GossipMsg::Pair {
                node: 3,
                rumor: 1003
            }),
            b"\x01\x03\0\0\0\0\0\0\0\xeb\x03\0\0\0\0\0\0"
        );
        assert_eq!(
            to_bytes(&GossipMsg::Extant(Arc::new(set))),
            tagged(2, set_bytes)
        );
        assert_eq!(
            to_bytes(&GossipMsg::Completion(Arc::new(bits))),
            tagged(3, bits_bytes)
        );
        assert_eq!(to_bytes(&CheckpointMsg::First(GossipMsg::Inquiry)), b"\0\0");
        assert_eq!(
            to_bytes(&CheckpointMsg::Second(Staged::First(AeaMsg::Rumor(
                BitVector::from_set_bits(8, [0, 7])
            )))),
            b"\x01\0\0\x08\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x81\0\0\0\0\0\0\0"
        );

        let signature = dft_auth::Signature {
            signer: 1,
            tag: 0x0102_0304_0506_0708,
        };
        let signature_bytes = b"\x01\0\0\0\0\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01";
        let chain = vec![SignedValue {
            source: 1,
            value: 42,
            signatures: vec![signature],
        }];
        // One value, its source and payload, one signature.
        let chain_bytes = [
            b"\x01\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0".as_slice(),
            b"\x2a\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0",
            signature_bytes,
        ]
        .concat();
        let batch = DsBatch(chain.clone());
        let common = Arc::new(CommonSet::new(chain.clone()));
        assert_eq!(to_bytes(&batch), chain_bytes);
        assert_eq!(to_bytes(&*common), chain_bytes);
        // Parts 1–2 under the first tag, `Spread-Common-Value` under the
        // second.
        let part = |stage: u8, tag: u8, body: &[u8]| tagged(stage, &tagged(tag, body));
        assert_eq!(
            to_bytes(&AbMsg::First(AgreementMsg::Ds(Arc::new(batch)))),
            part(0, 0, &chain_bytes)
        );
        assert_eq!(
            to_bytes(&AbMsg::First(AgreementMsg::Endorse(Arc::new(
                Endorsements::new(chain)
            )))),
            part(0, 1, &chain_bytes)
        );
        assert_eq!(
            to_bytes(&AbMsg::First(AgreementMsg::Notify(Arc::clone(&common)))),
            part(0, 2, &chain_bytes)
        );
        assert_eq!(
            to_bytes(&AbMsg::Second(ScvMsg::Value(Arc::clone(&common)))),
            part(1, 0, &chain_bytes)
        );
        assert_eq!(
            to_bytes(&AbMsg::Second(ScvMsg::Inquiry(signature))),
            part(1, 1, signature_bytes)
        );
        assert_eq!(
            to_bytes(&AbMsg::Second(ScvMsg::Response(common))),
            part(1, 2, &chain_bytes)
        );
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
