//! The compact binary wire codec used by the sharding layer.
//!
//! The vendored `serde` is an offline stand-in whose derives generate no
//! code, so the shard protocol defines its own explicit codec: the [`Wire`]
//! trait encodes a value into a byte buffer and decodes it back through a
//! bounds-checked [`WireReader`].  The format is deliberately boring —
//! little-endian fixed-width integers, `u8` tags for enums, 64-bit length
//! prefixes for sequences — because both endpoints are always the same
//! binary; versioning happens at the frame level (see
//! [`WIRE_VERSION`](super::WIRE_VERSION)), not per value.  When the real
//! `serde` lands, payload types already carry `Serialize`/`Deserialize`
//! derives and this module becomes a thin adapter.
//!
//! Every decode error is a [`WireError`] naming what was expected; nothing
//! here panics on malformed input (a truncated frame from a dying worker
//! process must surface as an error, not a parent crash).

use std::sync::Arc;

use crate::adversary::DeliveryFilter;
use crate::message::{Delivered, Outgoing};
use crate::node::NodeId;
use crate::round::Round;

/// A decoding failure: what the reader expected and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the malformed field.
    pub message: String,
}

impl WireError {
    /// Creates an error with the given description (downstream `Wire` impls
    /// use this for their own malformed-field reports).
    pub fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = Result<T, WireError>;

/// A bounds-checked cursor over an encoded frame.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (frames must decode exactly).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, len: usize, what: &str) -> WireResult<&'a [u8]> {
        if self.remaining() < len {
            return Err(WireError::new(format!(
                "truncated {what}: needed {len} bytes, had {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn len(&mut self) -> WireResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| WireError::new("length does not fit in usize"))
    }
}

/// A value with an explicit binary encoding for the shard protocol.
///
/// Implementations must round-trip: `decode(encode(v)) == v`.  Protocol
/// crates implement this for their message and output types; the simulator
/// provides the primitive, container and envelope impls.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformed field.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;
}

/// Encodes a value into a fresh buffer (convenience for tests and frames).
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a complete buffer, requiring every byte to be
/// consumed.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed or trailing bytes.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> WireResult<T> {
    let mut reader = WireReader::new(buf);
    let value = T::decode(&mut reader)?;
    if !reader.is_empty() {
        return Err(WireError::new(format!(
            "{} trailing bytes after value",
            reader.remaining()
        )));
    }
    Ok(value)
}

/// Exercises every decode error path for `value`'s encoding and returns
/// the lengths that were wrongly accepted.
///
/// Every *strict* prefix of a well-formed encoding is a truncated frame
/// and must fail [`from_bytes`] (without panicking or looping); a frame
/// with one trailing byte appended must fail too.  An empty return means
/// the codec rejects all of them; tests assert exactly that.  Offending
/// lengths come back so the failing test names the bad cut point.
pub fn decode_error_path_violations<T: Wire>(value: &T) -> Vec<usize> {
    let bytes = to_bytes(value);
    let mut violations = Vec::new();
    for cut in 0..bytes.len() {
        if let Some(prefix) = bytes.get(..cut) {
            if from_bytes::<T>(prefix).is_ok() {
                violations.push(cut);
            }
        }
    }
    let mut extended = bytes.clone();
    extended.push(0);
    if from_bytes::<T>(&extended).is_ok() {
        violations.push(extended.len());
    }
    violations
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::new(format!("invalid bool byte {other}"))),
        }
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u8()
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u16()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let b = r.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u64()
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(WireError::new(format!("invalid Option tag {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = r.len()?;
        // Guard against a corrupt length prefix: no legitimate sequence has
        // more elements than a maximal frame has bytes (this also bounds
        // the loop itself for zero-size element types like `()`, which
        // would otherwise spin for up to 2^64 iterations)...
        if len as u64 > u64::from(super::transport::MAX_FRAME_LEN) {
            return Err(WireError::new(format!(
                "sequence length {len} exceeds the maximum frame size"
            )));
        }
        // ...and against a gigantic allocation: each element of non-zero
        // size costs at least one byte on the wire.
        let mut items = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    /// The per-value codec is the inner value's: one `Arc` encodes in full
    /// and decodes into a fresh allocation.  Sharing *between* the copies
    /// of a round is the frame's business, not the value's: the bulk
    /// message lists write each distinct allocation once and every further
    /// copy as a back-reference, by address (see [`super::intern`] and
    /// [`Payload::share_key`](crate::message::Payload::share_key)), so this
    /// impl runs once per distinct payload per frame.
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(NodeId::new(r.len()?))
    }
}

impl Wire for Round {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u64().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Round::new(r.u64()?))
    }
}

impl Wire for DeliveryFilter {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DeliveryFilter::All => out.push(0),
            DeliveryFilter::None => out.push(1),
            DeliveryFilter::Prefix(k) => {
                out.push(2);
                k.encode(out);
            }
            DeliveryFilter::Only(dests) => {
                out.push(3);
                dests.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(DeliveryFilter::All),
            1 => Ok(DeliveryFilter::None),
            2 => Ok(DeliveryFilter::Prefix(r.len()?)),
            3 => Ok(DeliveryFilter::Only(Vec::decode(r)?)),
            other => Err(WireError::new(format!(
                "invalid DeliveryFilter tag {other}"
            ))),
        }
    }
}

impl<M: Wire> Wire for Outgoing<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to.encode(out);
        self.msg.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Outgoing {
            to: NodeId::decode(r)?,
            msg: M::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for Delivered<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.msg.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Delivered {
            from: NodeId::decode(r)?,
            msg: M::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The analyzer names tuple impls canonically (`Unit`, `Tuple2`, …);
    // these aliases let the coverage corpus see those names while the
    // tests exercise the real tuple impls.
    type Unit = ();
    type Tuple2 = (bool, u64);
    type Tuple3 = (u8, u16, u32);

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).expect("round trip"), value);
        assert_eq!(
            decode_error_path_violations(&value),
            Vec::<usize>::new(),
            "every truncated or oversized frame must fail to decode"
        );
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(0xABu8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        // Width extremes, spelling out each type: the analyzer's
        // wire-untested rule requires every `impl Wire for T` to be *named*
        // by a test, and a suffixed literal like `0xBEEFu16` is not a name.
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MIN);
        round_trip(usize::MIN);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Some(7u64));
        round_trip(None::<u64>);
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<bool>::new());
        round_trip((true, 9u64));
        round_trip((1u8, 2u64, vec![false, true]));
        round_trip(Arc::new(17u64));
        round_trip(vec![Some((NodeId::new(3), 4u64)), None]);
    }

    #[test]
    fn tuple_aliases_round_trip() {
        let unit: Unit = ();
        let pair: Tuple2 = (false, 0x0102_0304_0506_0708);
        let triple: Tuple3 = (9, 0xBEEF, 0xDEAD_BEEF);
        round_trip(unit);
        round_trip(pair);
        round_trip(triple);
    }

    #[test]
    fn sim_types_round_trip() {
        round_trip(NodeId::new(12));
        round_trip(Round::new(99));
        round_trip(DeliveryFilter::All);
        round_trip(DeliveryFilter::None);
        round_trip(DeliveryFilter::Prefix(5));
        round_trip(DeliveryFilter::Only(vec![NodeId::new(1), NodeId::new(4)]));
        round_trip(Outgoing::new(NodeId::new(2), true));
        round_trip(Delivered::new(NodeId::new(3), 8u64));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(from_bytes::<u64>(&[1, 2]).is_err(), "truncated");
        assert!(from_bytes::<bool>(&[7]).is_err(), "bad bool byte");
        assert!(from_bytes::<Option<u8>>(&[9, 0]).is_err(), "bad option tag");
        assert!(from_bytes::<u8>(&[1, 2]).is_err(), "trailing bytes");
        // A corrupt huge length prefix must error out, not try to allocate.
        let mut huge = Vec::new();
        u64::MAX.encode(&mut huge);
        assert!(from_bytes::<Vec<u64>>(&huge).is_err());
        // ... including for zero-size element types, where the decode loop
        // itself (not the allocation) is what must be bounded.
        assert!(from_bytes::<Vec<()>>(&huge).is_err());
    }

    #[test]
    fn errors_render_a_description() {
        let err = from_bytes::<u64>(&[]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }
}
