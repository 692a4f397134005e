//! The compact binary wire codec used by the sharding layer.
//!
//! The [`Wire`] trait encodes a value into a byte buffer and decodes it back
//! through a bounds-checked [`WireReader`].  The format is deliberately
//! boring — little-endian fixed-width integers, `u8` tags for enums, 64-bit
//! length prefixes for sequences — because both endpoints are always the
//! same binary; versioning happens at the frame level (see
//! [`WIRE_VERSION`](super::WIRE_VERSION)), not per value.
//!
//! A type made of fields or of tagged variants does not write `encode` and
//! `decode`: it declares its layout once with [`wire_struct!`](crate::wire_struct)
//! or [`wire_enum!`](crate::wire_enum), and both directions are generated
//! from that one list, so they cannot disagree.  The impls written by hand
//! in this module are the leaves the declarations bottom out in ([`LEAVES`]).
//!
//! Every decode error is a [`WireError`] naming what was expected; nothing
//! here panics on malformed input (a truncated frame from a dying worker
//! process must surface as an error, not a parent crash).

use std::sync::{Arc, OnceLock};

use super::schema::Schema;
use crate::adversary::DeliveryFilter;
use crate::message::Delivered;
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

#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "`take(len)` refuses a short buffer before slicing and returns exactly `len` bytes, \
              which is what each fixed-width reader indexes or converts"
)]
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

    /// Reads a length-prefixed run of bytes (a `u64` byte count, then the
    /// bytes) without looking inside it.
    pub fn block(&mut self) -> WireResult<&'a [u8]> {
        let len = self.len()?;
        self.take(len, "block")
    }

    /// Fills `words` with a run of little-endian `u64`s (what [`put_u64s`]
    /// writes): one bounds check for the whole run.
    pub fn u64s(&mut self, words: &mut [u64]) -> WireResult<()> {
        let bytes = self.take(8 * words.len(), "u64 run")?;
        for (word, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        Ok(())
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

    /// Describes this type to the wire schema: a declared type records its
    /// declaration and declares its field types; a leaf codec records
    /// [`Schema::leaf`] and declares its element types.  Only tests call it
    /// (see [`super::schema`]).
    fn describe(schema: &mut Schema);
}

/// Encodes a value into a fresh buffer (convenience for tests and frames).
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Appends `words` as a run of little-endian `u64`s, the bytes of encoding
/// each in turn, with one capacity check for the whole run (read back by
/// [`WireReader::u64s`]).
pub fn put_u64s(out: &mut Vec<u8>, words: &[u64]) {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    if let Some(run) = out.get_mut(start..) {
        for (b, word) in run.chunks_exact_mut(8).zip(words) {
            b.copy_from_slice(&word.to_le_bytes());
        }
    }
}

/// Decodes a value from a complete buffer, requiring every byte to be
/// consumed.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed or trailing bytes.
#[expect(
    clippy::disallowed_methods,
    reason = "from_bytes is the bare-value decode the lint fences: frames go through open_frame, \
              bare values through here"
)]
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
#[expect(
    clippy::disallowed_methods,
    reason = "the truncation sweep decodes bare values by design; it is test support"
)]
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

/// Declares the [`Wire`] codec of a struct from one field list: fields are
/// written and read in the order declared, each through its own type's
/// codec.
///
/// ```
/// use dft_sim::shard::{from_bytes, to_bytes, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Ack<T> {
///     seq: u64,
///     body: T,
/// }
/// dft_sim::shard::wire_struct!(Ack<T: Wire> { seq: u64, body: T });
///
/// #[derive(Debug, PartialEq)]
/// struct Batch(Vec<u16>);
/// dft_sim::shard::wire_struct!(Batch(Vec<u16>));
///
/// let ack = Ack { seq: 7, body: Batch(vec![1, 2]) };
/// assert_eq!(from_bytes::<Ack<Batch>>(&to_bytes(&ack)), Ok(ack));
/// ```
///
/// The list is checked against the struct by the compiler.  A field the
/// declaration leaves out does not build:
///
/// ```compile_fail,E0027
/// struct Ack {
///     seq: u64,
///     ack: u16,
/// }
/// dft_sim::shard::wire_struct!(Ack { seq: u64 });
/// ```
///
/// Nor does a field declared with another type than the struct's:
///
/// ```compile_fail,E0308
/// struct Ack {
///     seq: u64,
/// }
/// dft_sim::shard::wire_struct!(Ack { seq: u16 });
/// ```
///
/// Reordering the list reorders both directions together.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$($g:ident : $b0:ident $(+ $bn:ident)*),+>)? { $($field:ident : $ty:ty),+ $(,)? }) => {
        impl $(<$($g: $b0 $(+ $bn)*),+>)? $crate::shard::Wire for $name $(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                let Self { $($field),+ } = self;
                $($crate::shard::Wire::encode($field, out);)+
            }

            fn decode(r: &mut $crate::shard::WireReader<'_>) -> $crate::shard::WireResult<Self> {
                Ok(Self { $($field: <$ty as $crate::shard::Wire>::decode(r)?),+ })
            }

            fn describe(schema: &mut $crate::shard::Schema) {
                schema.record(
                    stringify!($name),
                    stringify!($name $(<$($g: $b0 $(+ $bn)*),+>)? { $($field: $ty),+ }),
                );
                $(schema.declare::<$ty>();)+
            }
        }
    };
    ($name:ident $(<$($g:ident : $b0:ident $(+ $bn:ident)*),+>)? ($ty:ty)) => {
        impl $(<$($g: $b0 $(+ $bn)*),+>)? $crate::shard::Wire for $name $(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                let Self(inner) = self;
                $crate::shard::Wire::encode(inner, out);
            }

            fn decode(r: &mut $crate::shard::WireReader<'_>) -> $crate::shard::WireResult<Self> {
                Ok(Self(<$ty as $crate::shard::Wire>::decode(r)?))
            }

            fn describe(schema: &mut $crate::shard::Schema) {
                schema.record(stringify!($name), stringify!($name $(<$($g: $b0 $(+ $bn)*),+>)? ($ty)));
                schema.declare::<$ty>();
            }
        }
    };
}

/// Declares the [`Wire`] codec of an enum from one variant list: a `u8` tag
/// per variant, then the variant's fields in the order declared.  A variant
/// carries nothing, one unnamed field, or named fields; an unknown tag
/// decodes to an error naming the enum.
///
/// ```
/// use dft_sim::shard::{from_bytes, to_bytes, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Probe<V> {
///     Ping,
///     Value(V),
///     Pair { node: u64, rumor: u64 },
/// }
/// dft_sim::shard::wire_enum!(Probe<V: Wire> {
///     0 = Ping,
///     1 = Value(V),
///     2 = Pair { node: u64, rumor: u64 },
/// });
///
/// assert_eq!(to_bytes(&Probe::Value(true)), [1, 1]);
/// let err = from_bytes::<Probe<bool>>(&[9]).unwrap_err();
/// assert!(err.to_string().contains("invalid Probe tag 9"));
/// ```
///
/// The list is checked against the enum by the compiler.  A variant the
/// declaration leaves out does not build:
///
/// ```compile_fail,E0004
/// enum Probe {
///     Ping,
///     Pong,
/// }
/// dft_sim::shard::wire_enum!(Probe { 0 = Ping });
/// ```
///
/// Nor do two variants under one tag (the second could never be decoded):
///
/// ```compile_fail
/// enum Probe {
///     Ping,
///     Pong,
/// }
/// dft_sim::shard::wire_enum!(Probe { 0 = Ping, 0 = Pong });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident $(<$($g:ident : $b0:ident $(+ $bn:ident)*),+>)? { $($variants:tt)+ }) => {
        $crate::wire_enum!(@variant ($name $(<$($g : $b0 $(+ $bn)*),+>)?)
            (stringify!($name $(<$($g: $b0 $(+ $bn)*),+>)? { $($variants)+ })) () $($variants)+);
    };
    // Each step moves one variant into the list in the one shape the last
    // rule reads: `(tag Variant { field: binding: Type, .. })`, where the
    // unnamed field of `Variant(Type)` is field `0`.  The declaration's text
    // rides along for `describe`.
    (@variant $head:tt $decl:tt ($($done:tt)*) $tag:literal = $v:ident ($ty:ty) $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variant $head $decl ($($done)* ($tag $v { 0: inner: $ty })) $($($rest)*)?);
    };
    (@variant $head:tt $decl:tt ($($done:tt)*)
        $tag:literal = $v:ident { $($f:ident : $ty:ty),+ $(,)? } $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variant $head $decl ($($done)* ($tag $v { $($f: $f: $ty),+ })) $($($rest)*)?);
    };
    (@variant $head:tt $decl:tt ($($done:tt)*) $tag:literal = $v:ident $(, $($rest:tt)*)?) => {
        $crate::wire_enum!(@variant $head $decl ($($done)* ($tag $v {})) $($($rest)*)?);
    };
    (@variant ($name:ident $(<$($g:ident : $b0:ident $(+ $bn:ident)*),+>)?) $decl:tt
        ($(($tag:literal $v:ident { $($f:tt : $b:ident : $ty:ty),* }))+)) => {
        impl $(<$($g: $b0 $(+ $bn)*),+>)? $crate::shard::Wire for $name $(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v { $($f: $b),* } => {
                        out.push($tag);
                        $($crate::shard::Wire::encode($b, out);)*
                    })+
                }
            }

            // A tag declared twice would make its second variant unreachable.
            #[deny(unreachable_patterns)]
            fn decode(r: &mut $crate::shard::WireReader<'_>) -> $crate::shard::WireResult<Self> {
                match r.u8()? {
                    $($tag => Ok(Self::$v {
                        $($f: <$ty as $crate::shard::Wire>::decode(r)?),*
                    }),)+
                    other => Err($crate::shard::WireError::new(format!(
                        concat!("invalid ", stringify!($name), " tag {}"),
                        other
                    ))),
                }
            }

            fn describe(schema: &mut $crate::shard::Schema) {
                schema.record(stringify!($name), $decl);
                $($(schema.declare::<$ty>();)*)+
            }
        }
    };
}

/// The hand-written codecs of this module, by schema name (`()` is
/// `Unit`): primitives and containers, the memo cell that is deliberately
/// not on the wire, and the two identifier newtypes whose fields are
/// private to their modules.  Everything else is declared, the tuples too
/// (as `Tuple2` / `Tuple3`, by their element types).
pub const LEAVES: &[&str] = &[
    "Unit", "bool", "u8", "u16", "u64", "usize", "Vec", "Arc", "OnceLock", "NodeId", "Round",
];

/// A field that carries nothing writes nothing.
impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(())
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("Unit");
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

    fn describe(schema: &mut Schema) {
        schema.leaf("bool");
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u8()
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("u8");
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u16()
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("u16");
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.u64()
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("u64");
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        r.len()
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("usize");
    }
}

wire_enum!(Option<T: Wire> { 0 = None, 1 = Some(T) });

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
        // the loop itself for zero-size element types like `OnceLock`,
        // which would otherwise spin for up to 2^64 iterations)...
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

    fn describe(schema: &mut Schema) {
        schema.leaf("Vec");
        schema.declare::<T>();
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

    fn describe(schema: &mut Schema) {
        schema.record("Tuple2", "Tuple2<A: Wire, B: Wire>(A, B)");
        schema.declare::<A>();
        schema.declare::<B>();
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

    fn describe(schema: &mut Schema) {
        schema.record("Tuple3", "Tuple3<A: Wire, B: Wire, C: Wire>(A, B, C)");
        schema.declare::<A>();
        schema.declare::<B>();
        schema.declare::<C>();
    }
}

impl<T: Wire> Wire for Arc<T> {
    /// The per-value codec is the inner value's: one `Arc` encodes in full
    /// and decodes into a fresh allocation.  Sharing *between* the copies
    /// of a round is the frame's business, not the value's: a message
    /// block writes each distinct allocation once and every further copy
    /// as a back-reference, by address (see [`super::intern`] and
    /// [`Payload::share_key`](crate::message::Payload::share_key)), so this
    /// impl runs once per distinct payload per block.
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Arc::new(T::decode(r)?))
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("Arc");
        schema.declare::<T>();
    }
}

impl<T> Wire for OnceLock<T> {
    /// A memo cell is no part of the value that carries it: nothing is
    /// written, and a decoded value starts with the cell unset — whatever
    /// the sender had worked out, the receiver works out for itself.
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(OnceLock::new())
    }

    fn describe(schema: &mut Schema) {
        // What the cell holds never reaches the wire, so it is not walked.
        schema.leaf("OnceLock");
    }
}

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(NodeId::new(r.len()?))
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("NodeId");
    }
}

impl Wire for Round {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u64().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Round::new(r.u64()?))
    }

    fn describe(schema: &mut Schema) {
        schema.leaf("Round");
    }
}

wire_enum!(DeliveryFilter {
    0 = All,
    1 = None,
    2 = Prefix(usize),
    3 = Only(Vec<NodeId>),
});
wire_struct!(Delivered<M: Wire> { from: NodeId, msg: M });

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "codec tests round-trip bare values; there is no frame, so no version to check"
    )]
    use super::*;

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
        round_trip(true);
        round_trip(false);
        round_trip(0xABu8);
        round_trip(0xBEEFu16);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
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

    /// The pair and triple codecs, which the schema names `Tuple2` and
    /// `Tuple3`, on the element types the protocols put in them.
    #[test]
    fn tuple_aliases_round_trip() {
        round_trip((false, 0x0102_0304_0506_0708u64));
        round_trip((9u8, 0xBEEFu16, 0xDEAD_BEEFu64));
        round_trip((9u8, 0xBEEFu16, u64::MAX));
    }

    #[test]
    fn memo_cells_stay_off_the_wire() {
        assert_eq!(to_bytes(&OnceLock::from(7u64)), b"");
        assert_eq!(from_bytes::<OnceLock<u64>>(b""), Ok(OnceLock::new()));
        assert!(from_bytes::<OnceLock<u64>>(&[0]).is_err(), "trailing byte");
        // Beside a field that is on the wire, the cell costs nothing and
        // comes back unset.
        let decoded: (u8, OnceLock<u64>) =
            from_bytes(&to_bytes(&(5u8, OnceLock::from(7u64)))).expect("the pair is one byte long");
        assert_eq!(decoded, (5, OnceLock::new()));
    }

    #[test]
    fn sim_types_round_trip() {
        round_trip(NodeId::new(12));
        round_trip(Round::new(99));
        round_trip(DeliveryFilter::All);
        round_trip(DeliveryFilter::None);
        round_trip(DeliveryFilter::Prefix(5));
        round_trip(DeliveryFilter::Only(vec![NodeId::new(1), NodeId::new(4)]));
        round_trip(Delivered::new(NodeId::new(3), 8u64));
    }

    /// One sample value per codec of this module and the bytes it must
    /// encode to.  A layout edit changes a line here and needs the version
    /// bump asserted beside it.
    #[test]
    fn golden_bytes() {
        assert_eq!(crate::shard::WIRE_VERSION, 14);
        assert_eq!(to_bytes(&true), b"\x01");
        assert_eq!(to_bytes(&0xABu8), b"\xab");
        assert_eq!(to_bytes(&0xBEEFu16), b"\xef\xbe");
        assert_eq!(
            to_bytes(&0x0102_0304_0506_0708u64),
            b"\x08\x07\x06\x05\x04\x03\x02\x01"
        );
        assert_eq!(to_bytes(&258usize), b"\x02\x01\0\0\0\0\0\0");
        assert_eq!(to_bytes(&None::<u8>), b"\0");
        assert_eq!(to_bytes(&Some(7u8)), b"\x01\x07");
        assert_eq!(
            to_bytes(&vec![1u8, 2, 3]),
            b"\x03\0\0\0\0\0\0\0\x01\x02\x03"
        );
        assert_eq!(to_bytes(&(true, 9u64)), b"\x01\x09\0\0\0\0\0\0\0");
        assert_eq!(
            to_bytes(&(7u8, 0xBEEFu16, (0xBEEFu16, 0xDEADu16))),
            b"\x07\xef\xbe\xef\xbe\xad\xde"
        );
        assert_eq!(to_bytes(&Arc::new(0xBEEFu16)), b"\xef\xbe");
        assert_eq!(to_bytes(&OnceLock::from(0xBEEFu16)), b"");
        assert_eq!(to_bytes(&NodeId::new(12)), b"\x0c\0\0\0\0\0\0\0");
        assert_eq!(to_bytes(&Round::new(99)), b"\x63\0\0\0\0\0\0\0");
        assert_eq!(to_bytes(&DeliveryFilter::All), b"\0");
        assert_eq!(to_bytes(&DeliveryFilter::None), b"\x01");
        assert_eq!(
            to_bytes(&DeliveryFilter::Prefix(5)),
            b"\x02\x05\0\0\0\0\0\0\0"
        );
        assert_eq!(
            to_bytes(&DeliveryFilter::Only(vec![NodeId::new(4)])),
            b"\x03\x01\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0"
        );
        assert_eq!(
            to_bytes(&Delivered::new(NodeId::new(3), 0xABu8)),
            b"\x03\0\0\0\0\0\0\0\xab"
        );
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
        assert!(from_bytes::<Vec<OnceLock<u64>>>(&huge).is_err());
    }

    /// A run of words is the bytes of its words one after another, and
    /// reads back only whole.
    #[test]
    fn word_runs_are_their_words_in_turn() {
        let words = [1u64, u64::MAX, 0x0102_0304_0506_0708];
        let mut out = vec![9u8];
        put_u64s(&mut out, &words);
        let each: Vec<u8> = words.iter().flat_map(to_bytes).collect();
        assert_eq!(out, [&[9u8][..], &each].concat());
        let mut reader = WireReader::new(&each);
        let mut back = [0u64; 3];
        reader.u64s(&mut back).expect("three whole words");
        assert_eq!(back, words);
        assert!(reader.is_empty());
        let mut short = WireReader::new(&each[..23]);
        assert!(short.u64s(&mut back).is_err(), "a word cut short");
        assert_eq!(short.remaining(), 23, "a failed run consumes nothing");
    }

    #[test]
    fn errors_render_a_description() {
        let err = from_bytes::<u64>(&[]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }
}
