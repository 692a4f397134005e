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
    put_u64s, wire_enum, wire_struct, Schema, Wire, WireError, WireReader, WireResult,
    MAX_FRAME_LEN,
};

use crate::ab_consensus::{AgreementMsg, CommonSet, Endorsements};
use crate::aea::AeaMsg;
use crate::dolev_strong::DsBatch;
use crate::gossip::GossipMsg;
use crate::scv::ScvMsg;
use crate::then::Staged;
use crate::values::{set_bits, BitVector, ExtantSet, JoinValue};

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
        put_u64s(out, self.raw_words());
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
        let mut words = vec![0; count];
        r.u64s(&mut words)?;
        BitVector::from_raw_words(len, words).ok_or_else(|| {
            WireError::new(format!(
                "BitVector of {len} bits in {count} words, or with a bit set past the last"
            ))
        })
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("BitVector");
    }
}

/// The slot count, then the set as it is stored: the ⌈len/64⌉ presence
/// words, then the rumor of each present slot in ascending slot order.
/// That is `wire_bits` rounded up to whole words, plus the count: between
/// 64 and 127 bits more.  No presence bit past the last slot is set, so an
/// accepted frame re-encodes to the same bytes.
impl Wire for ExtantSet {
    fn encode(&self, out: &mut Vec<u8>) {
        let (mask, rumors) = self.raw_parts();
        out.reserve(8 * (1 + mask.len() + self.present_count()));
        self.len().encode(out);
        put_u64s(out, mask);
        // A full block of 64 slots is one copy, as in `merge`; any other
        // gathers its present rumors first and writes them as one run.
        for (&word, block) in mask.iter().zip(rumors.chunks(64)) {
            if word == u64::MAX {
                put_u64s(out, block);
            } else {
                let mut run = [0; 64];
                for (dst, bit) in run.iter_mut().zip(set_bits(word)) {
                    *dst = block.get(bit).copied().unwrap_or_default();
                }
                let present = word.count_ones() as usize;
                put_u64s(out, run.get(..present).unwrap_or_default());
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = usize::decode(r)?;
        // A decoded set holds 8⅛ bytes per slot (a rumor word and a
        // presence bit) however few rumors the frame carries, which spends
        // only ⅛ byte per slot on presence.  So the slot count is capped at
        // a sixteenth of a maximal frame, which keeps the allocation below
        // what such a frame could make any decoder allocate, and the
        // presence words must be in the frame before anything is allocated.
        let words = len.div_ceil(64);
        if len > MAX_FRAME_LEN as usize / 16 || words > r.remaining() / 8 {
            return Err(WireError::new(format!(
                "ExtantSet of {len} slots with {} bytes left (at most {} slots)",
                r.remaining(),
                MAX_FRAME_LEN / 16
            )));
        }
        let mut mask = vec![0; words];
        r.u64s(&mut mask)?;
        let present: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
        if present > r.remaining() / 8 {
            return Err(WireError::new(format!(
                "ExtantSet with {present} present slots and {} bytes left",
                r.remaining()
            )));
        }
        let mut rumors = vec![0; len];
        for (&word, block) in mask.iter().zip(rumors.chunks_mut(64)) {
            if word == u64::MAX {
                r.u64s(block)?;
            } else {
                let mut run = [0; 64];
                let present = word.count_ones() as usize;
                let run = run.get_mut(..present).unwrap_or_default();
                r.u64s(run)?;
                // A bit past the last slot has no slot; `from_raw_parts`
                // refuses the set below.
                for (bit, &rumor) in set_bits(word).zip(&*run) {
                    if let Some(slot) = block.get_mut(bit) {
                        *slot = rumor;
                    }
                }
            }
        }
        ExtantSet::from_raw_parts(mask, rumors).ok_or_else(|| {
            WireError::new(format!(
                "ExtantSet of {len} slots with a presence bit past the last"
            ))
        })
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
        // A wire peer could claim set bits beyond `len`: masking them would
        // accept a frame that re-encodes to other bytes, so it is refused.
        let mut bytes = Vec::new();
        70usize.encode(&mut bytes);
        vec![u64::MAX, u64::MAX].encode(&mut bytes);
        assert!(from_bytes::<BitVector>(&bytes).is_err());
        // The same words with the spare bits clear decode and re-encode.
        let mut clear = Vec::new();
        70usize.encode(&mut clear);
        vec![u64::MAX, (1 << 6) - 1].encode(&mut clear);
        let decoded: BitVector = from_bytes(&clear).expect("canonical words decode");
        assert_eq!(decoded.count_ones(), 70);
        assert_eq!(to_bytes(&decoded), clear);
        // Wrong word count is rejected outright.
        let mut bad = Vec::new();
        70usize.encode(&mut bad);
        vec![u64::MAX].encode(&mut bad);
        assert!(from_bytes::<BitVector>(&bad).is_err());
    }

    /// The slot count, the presence words and the rumors as `u64`s: an
    /// extant set's frame, well formed or not.
    fn extant_frame(len: u64, words: &[u64]) -> Vec<u8> {
        let mut bytes = to_bytes(&len);
        for word in words {
            word.encode(&mut bytes);
        }
        bytes
    }

    /// The sibling of `malformed_input_is_an_error_not_a_panic` in the
    /// simulator's codec: a corrupt slot count must not size an allocation,
    /// and what is accepted is the one encoding of its set.
    #[test]
    fn malformed_extant_set_is_an_error_not_an_allocation() {
        // A slot count straight off a corrupt prefix: 8 * len bytes would
        // abort the process, not fail the frame.
        for len in [u64::MAX, 1 << 40, u64::from(MAX_FRAME_LEN)] {
            assert!(
                from_bytes::<ExtantSet>(&extant_frame(len, &[])).is_err(),
                "{len}"
            );
        }
        // 130 slots take three presence words; two are there.
        assert!(from_bytes::<ExtantSet>(&extant_frame(130, &[0, 0])).is_err());
        // A presence bit past the last of 4 slots, with a rumor for it.
        assert!(from_bytes::<ExtantSet>(&extant_frame(4, &[0b1_0010, 6, 5])).is_err());
        // One rumor fewer than the presence bits.
        assert!(from_bytes::<ExtantSet>(&extant_frame(4, &[0b1010, 6])).is_err());
        // A full block of 64 with its last rumor missing.
        let mut full = vec![u64::MAX];
        full.extend(1..64);
        assert!(from_bytes::<ExtantSet>(&extant_frame(64, &full)).is_err());
        // What is accepted re-encodes to the bytes it came from...
        let accepted = extant_frame(4, &[0b1010, 6, 5]);
        let set: ExtantSet = from_bytes(&accepted).expect("a canonical set decodes");
        assert_eq!(set.pairs().collect::<Vec<_>>(), [(1, 6), (3, 5)]);
        assert_eq!(to_bytes(&set), accepted);
        full.push(64);
        let set: ExtantSet = from_bytes(&extant_frame(64, &full)).expect("a full block decodes");
        assert_eq!(set.present_count(), 64);
        assert_eq!(to_bytes(&set), extant_frame(64, &full));
        // ...and one trailing byte is an error.
        let mut trailing = accepted;
        trailing.push(0);
        assert!(from_bytes::<ExtantSet>(&trailing).is_err());
        // The bit vector's word count is pinned by its length.
        let mut bits = to_bytes(&(1u64 << 50));
        (1u64 << 44).encode(&mut bits);
        assert!(from_bytes::<BitVector>(&bits).is_err());
    }

    /// A set of `n` slots whose 64-slot blocks are each, by two bits of
    /// `kinds`, empty, full or every third slot present, with rumors from
    /// `seed`.
    fn blocky_set(n: usize, kinds: u64, seed: u64) -> ExtantSet {
        let mut set = ExtantSet::nil(n);
        for idx in 0..n {
            let present = match (kinds >> (2 * (idx / 64) % 64)) & 3 {
                0 => false,
                1 => true,
                _ => idx % 3 == 0,
            };
            if present {
                set.update(idx, seed.rotate_left(idx as u32) ^ idx as u64);
            }
        }
        set
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Sizes at and around the 64-slot word, and the benchmark's 700,
        /// with blocks empty, full and mixed: the set round-trips, its bytes
        /// are the only encoding of it, and they carry `wire_bits` rounded
        /// up to words plus the slot count.
        #[test]
        fn extant_set_bytes_are_its_wire_bits_in_words(
            size in 0usize..8,
            kinds in proptest::any::<u64>(),
            seed in proptest::any::<u64>(),
        ) {
            let n = [0, 1, 63, 64, 65, 127, 128, 700][size];
            let set = blocky_set(n, kinds, seed);
            let bytes = to_bytes(&set);
            let decoded: ExtantSet = from_bytes(&bytes).expect("round trip");
            proptest::prop_assert_eq!(&decoded, &set);
            proptest::prop_assert_eq!(to_bytes(&decoded), bytes.clone());
            let spare = 8 * bytes.len() as u64 - set.wire_bits();
            proptest::prop_assert!((64..128).contains(&spare), "n={} spare={}", n, spare);
        }
    }

    #[test]
    fn extant_sets_at_benchmark_size_fail_on_every_cut() {
        let full = blocky_set(700, 0x5555_5555_5555_5555, 7);
        assert_eq!(full.present_count(), 700);
        let sparse = blocky_set(700, 0x2a19, 7);
        assert!((1..700).contains(&sparse.present_count()));
        for set in [full, sparse] {
            assert_eq!(decode_error_path_violations(&set), Vec::<usize>::new());
        }
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
        assert_eq!(dft_sim::shard::WIRE_VERSION, 14);
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
        // Five slots, presence word 0b1_0010, the rumors of slots 1 and 4.
        let set_bytes = b"\x05\0\0\0\0\0\0\0\x12\0\0\0\0\0\0\0\
                          \x4d\0\0\0\0\0\0\0\x63\0\0\0\0\0\0\0";
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
