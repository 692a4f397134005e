//! Clean twin of the codec module: `WireReader::new` is allowed *here* —
//! `shard/wire.rs` is the one module that implements the version check, so
//! the wire-version rule exempts it.

pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        match self.buf.get(self.pos..self.pos + 2).map(TryInto::try_into) {
            Some(Ok(bytes)) => {
                self.pos += 2;
                Ok(u16::from_le_bytes(bytes))
            }
            _ => Err("truncated".to_string()),
        }
    }
}

pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, String>;
}

pub struct Pinned {
    pub id: u16,
}

// Declared, not hand-written; covered: `tests/roundtrip.rs` names `Pinned`.
wire_struct!(Pinned { id: u16 });

// The dead-code allowance is justified by an adjacent prose comment, which
// is exactly what the allow-unjustified rule checks for.
#[allow(dead_code)]
fn future_frame_tag() -> u8 {
    7
}
