//! Seeded violations: panic hygiene, unchecked frame decodes, an untested
//! wire impl, randomness, and an unjustified lint suppression.

use crate::wire::{Wire, WireReader, WireResult};

pub struct Unpinned {
    pub id: u64,
}

// wire-untested: no test anywhere names `Unpinned`.
wire_struct!(Unpinned { id: u64 });

#[allow(dead_code)]
pub fn decode_raw(buf: &[u8]) -> u64 {
    // wire-version: a reader built outside `open_frame` skips the check.
    let mut r = WireReader::new(buf);
    // panic-unwrap: library code must return the error.
    r.u64().unwrap()
}

pub fn head(frames: &[Vec<u8>]) -> &Vec<u8> {
    // index-slicing + panic-expect.
    let first = &frames[0];
    frames.first().expect("at least one frame");
    first
}

pub fn pick(n: usize) -> usize {
    // nondet-rand: ambient randomness instead of the seeded streams.
    let roll = rand::thread_rng();
    let _ = roll;
    // panic-macro.
    panic!("unreachable pick of {n}")
}

pub struct Skewed {
    pub a: u16,
    pub b: u64,
}

impl Wire for Skewed {
    // wire-handwritten: a struct of fields must be declared; written by
    // hand, nothing stops decode from reading the fields in the opposite
    // order, as here.
    fn encode(&self, out: &mut Vec<u8>) {
        self.a.encode(out);
        self.b.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Skewed {
            b: u64::decode(r)?,
            a: u16::decode(r)?,
        })
    }
}
