//! The committed schema records `Frame { seq: u64, ack: u16 }`; this
//! declaration swapped the fields (both directions move together, so it
//! still round-trips) without bumping `WIRE_VERSION` — an unversioned wire
//! break.

use crate::shard::wire_struct;

pub struct Frame {
    pub seq: u64,
    pub ack: u16,
}

wire_struct!(Frame { ack: u16, seq: u64 });
