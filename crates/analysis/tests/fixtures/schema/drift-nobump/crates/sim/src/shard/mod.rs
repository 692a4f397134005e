//! Drift fixture: same `WIRE_VERSION` as the committed schema, but the
//! declaration below reordered its fields — the ratchet must fail.

pub mod wire;

pub const WIRE_VERSION: u16 = 3;
