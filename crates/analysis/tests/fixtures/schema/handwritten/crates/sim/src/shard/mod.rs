//! Hand-written-codec fixture: a composite `impl Wire for T` outside the
//! leaf list fails the `schema` subcommand before any comparison.

pub mod wire;

pub const WIRE_VERSION: u16 = 3;
