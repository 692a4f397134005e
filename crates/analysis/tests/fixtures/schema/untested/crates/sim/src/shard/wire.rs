//! The `ok` tree without its test file: the declaration matches the
//! committed `WIRE_SCHEMA.json`, but no test anywhere names `Frame`, so
//! nothing pins the bytes it puts on the wire.

use crate::shard::wire_struct;

pub struct Frame {
    pub seq: u64,
    pub ack: u16,
}

wire_struct!(Frame { seq: u64, ack: u16 });
