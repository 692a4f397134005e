//! Untested-codec fixture: the version constant the extractor reads.

pub mod wire;

pub const WIRE_VERSION: u16 = 3;
