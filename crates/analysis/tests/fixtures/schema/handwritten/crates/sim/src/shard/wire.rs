//! A struct of fields with `encode` and `decode` written by hand — here
//! with the two directions disagreeing on the field order, which is exactly
//! what a declaration cannot do.  `Frame` is not a leaf codec, so the impl
//! itself is the finding.

use crate::shard::{Wire, WireReader, WireResult};

pub struct Frame {
    pub seq: u64,
    pub ack: u16,
}

impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.ack.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Frame {
            ack: u16::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}
