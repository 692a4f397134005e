//! A minimal declared codec: the committed `WIRE_SCHEMA.json` next to this
//! tree matches what the extractor reads from it.

use crate::shard::wire_struct;

pub struct Frame {
    pub seq: u64,
    pub ack: u16,
}

wire_struct!(Frame { seq: u64, ack: u16 });
