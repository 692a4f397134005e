//! The committed schema records `1 = Body(Arc<Words>)`; this declaration
//! carries `Arc<Bits>` under the same tag and variant name without bumping
//! `WIRE_VERSION`.  A schema that kept only `Arc` could not tell the two
//! apart; the bytes behind them can differ entirely.

use std::sync::Arc;

use crate::shard::wire_enum;

pub struct Words(pub Vec<u64>);
pub struct Bits(pub Vec<bool>);

pub enum Frame {
    Ack(u16),
    Body(Arc<Bits>),
}

wire_enum!(Frame { 0 = Ack(u16), 1 = Body(Arc<Bits>) });
