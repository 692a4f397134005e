//! Generic-argument drift fixture: same `WIRE_VERSION` as the committed
//! schema, but a payload type changed inside `Arc<…>` — the ratchet must
//! fail.

pub mod wire;

pub const WIRE_VERSION: u16 = 3;
