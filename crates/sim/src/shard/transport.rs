//! Frame transports for the sharding layer.
//!
//! A [`ShardTransport`] moves opaque byte frames between the coordinator
//! and one shard worker.  Two backends are provided:
//!
//! * [`ChannelTransport`] — in-process `mpsc` channel pairs, used when shard
//!   workers run as threads the runner spawns itself: every
//!   sharded run of `run_experiments --shards` and every in-process test.
//! * [`StreamTransport`] — length-prefixed frames over any `Read`/`Write`
//!   pair; [`read_frame`] / [`write_frame`] are also the framing of
//!   `dft-node`'s TCP links.

use std::io::{self, Read, Write};
use std::sync::mpsc::{Receiver, Sender};

/// Maximum accepted frame length (1 GiB).  A corrupt length prefix must
/// not make the receiver allocate unbounded memory, so the cap exists as a
/// sanity bound, not a workload limit.  One `Delivered` response carries a
/// chunk's whole round of surviving messages, but an `Arc`-shared payload
/// is written once per destination chunk and every further copy as a
/// back-reference (`super::intern`), so a frame grows with the *distinct*
/// payloads of a round per chunk plus 17 bytes per message.  Protocols that deep-copy a large
/// payload per destination still pay per copy; the cap is sized to clear
/// them at paper-scale `n` rather than reject them.
pub const MAX_FRAME_LEN: u32 = 1024 * 1024 * 1024;

/// A bidirectional, ordered, reliable frame pipe to one shard worker.
///
/// Implementations must preserve frame boundaries and order; the shard
/// protocol is strictly request/response per worker, so no concurrency is
/// required of a single transport.
pub trait ShardTransport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the peer is gone or the underlying stream
    /// fails.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Receives the next frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] when the peer closed the
    /// connection.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

/// In-process transport: a pair of unbounded `mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }
}

impl ShardTransport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "shard peer hung up"))
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "shard peer hung up"))
    }
}

/// Stream transport: `[u32 little-endian length][bytes]` frames over any
/// reader/writer pair.
pub struct StreamTransport<R, W> {
    reader: R,
    writer: W,
}

impl<R: Read + Send, W: Write + Send> StreamTransport<R, W> {
    /// Wraps a reader/writer pair.
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport { reader, writer }
    }
}

impl<R: Read + Send, W: Write + Send> ShardTransport for StreamTransport<R, W> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.reader)
    }
}

/// Writes one `[u32 little-endian length][bytes]` frame and flushes.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when the frame exceeds
/// [`MAX_FRAME_LEN`], or the underlying write/flush error.
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard frame exceeds u32 length",
        )
    })?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard frame of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN} bytes)"),
        ));
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(frame)?;
    writer.flush()
}

/// Reads one `[u32 little-endian length][bytes]` frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a length prefix above
/// [`MAX_FRAME_LEN`], [`io::ErrorKind::UnexpectedEof`] on a stream that ends
/// mid-frame, or the underlying read error.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    read_full(reader, &mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN} bytes)"),
        ));
    }
    let mut frame = Vec::new();
    read_body(reader, len as usize, &mut frame)?;
    Ok(frame)
}

/// The most that is set aside for a frame before any of it has arrived.
const FIRST_RESERVE: usize = 64 * 1024;

/// Appends the `len` body bytes the prefix announced to `frame`.  The prefix
/// is four bytes from the peer, so at most [`FIRST_RESERVE`] is set aside up
/// front and the buffer then grows with what actually arrives (`read_to_end`
/// retries short and interrupted reads, as [`read_full`] does): a corrupt or
/// hostile prefix costs one reserve, not [`MAX_FRAME_LEN`].
fn read_body(reader: &mut impl Read, len: usize, frame: &mut Vec<u8>) -> io::Result<()> {
    frame.reserve(len.min(FIRST_RESERVE));
    // The prefix has arrived, so a deadline here is one mid-frame.
    let arrived = reader.by_ref().take(len as u64).read_to_end(frame);
    let arrived = arrived.map_err(mid_frame)?;
    if arrived < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard stream closed mid-frame",
        ));
    }
    Ok(())
}

/// A read deadline that fires once part of a frame has arrived leaves the
/// rest in the stream, where the next read would take it for a length
/// prefix: the link is out of step for good, so the deadline becomes
/// [`io::ErrorKind::ConnectionAborted`], which no caller retries.
fn mid_frame(err: io::Error) -> io::Error {
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("read deadline fired mid-frame ({err}); the stream is out of step"),
        ),
        _ => err,
    }
}

/// Fills `buf` completely from `reader` — `read_exact` semantics, written
/// out so the frame layer's behaviour on real sockets is guaranteed locally
/// rather than inherited: short reads are retried until the buffer is full
/// (a TCP `read` returns whatever one segment delivered, routinely less
/// than a frame), `ErrorKind::Interrupted` is transparently retried (a
/// signal landing mid-`read(2)` must not kill a cluster node), EOF
/// before the buffer fills maps to [`io::ErrorKind::UnexpectedEof`] (how
/// the serve loops recognise a cleanly departed peer), and a read deadline
/// after the first byte is [`mid_frame`]'s.
#[expect(
    clippy::indexing_slicing,
    reason = "`read` returns n <= buf.len(), so the tail slice is in range"
)]
fn read_full(reader: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    let want = buf.len();
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "shard stream closed mid-frame",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if buf.len() < want => return Err(mid_frame(err)),
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_is_bidirectional_and_ordered() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap(), b"two");
        b.send(b"ack").unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }

    #[test]
    fn channel_reports_hangup() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert_eq!(a.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(a.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn stream_frames_round_trip() {
        // Half-duplex simulation: encode into a buffer, then read it back.
        let mut written: Vec<u8> = Vec::new();
        {
            let mut tx = StreamTransport::new(io::empty(), &mut written);
            tx.send(b"hello").unwrap();
            tx.send(b"").unwrap();
            tx.send(&[7u8; 300]).unwrap();
        }
        let mut rx = StreamTransport::new(written.as_slice(), io::sink());
        assert_eq!(rx.recv().unwrap(), b"hello");
        assert_eq!(rx.recv().unwrap(), b"");
        assert_eq!(rx.recv().unwrap(), vec![7u8; 300]);
        assert_eq!(
            rx.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "stream exhausted"
        );
    }

    #[test]
    fn stream_rejects_oversized_length_prefix() {
        let len = MAX_FRAME_LEN + 1;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        let mut rx = StreamTransport::new(bytes.as_slice(), io::sink());
        let err = rx.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&len.to_string()),
            "error names the offending length: {msg}"
        );
        assert!(
            msg.contains(&MAX_FRAME_LEN.to_string()),
            "error names the cap: {msg}"
        );
    }

    #[test]
    fn oversized_send_error_names_length_and_cap() {
        // A zeroed vec this large is untouched virtual memory: `send`
        // rejects it on length alone, before reading a single byte.
        let len = MAX_FRAME_LEN as usize + 1;
        let huge = vec![0u8; len];
        let mut tx = StreamTransport::new(io::empty(), io::sink());
        let err = tx.send(&huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(
            msg.contains(&len.to_string()),
            "error names the offending length: {msg}"
        );
        assert!(
            msg.contains(&MAX_FRAME_LEN.to_string()),
            "error names the cap: {msg}"
        );
    }

    /// A reader that delivers one byte at a time and injects a spurious
    /// `ErrorKind::Interrupted` before every byte — the worst-case behaviour
    /// a signal-heavy socket read can exhibit.  Frames must still round-trip
    /// byte-identically.
    struct InterruptingReader<'a> {
        data: &'a [u8],
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for InterruptingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.interrupt_next = true;
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn short_and_interrupted_reads_still_assemble_frames() {
        let mut written: Vec<u8> = Vec::new();
        {
            let mut tx = StreamTransport::new(io::empty(), &mut written);
            tx.send(b"hello").unwrap();
            tx.send(&[42u8; 97]).unwrap();
            tx.send(b"").unwrap();
        }
        let reader = InterruptingReader {
            data: &written,
            pos: 0,
            interrupt_next: true,
        };
        let mut rx = StreamTransport::new(reader, io::sink());
        assert_eq!(rx.recv().unwrap(), b"hello");
        assert_eq!(rx.recv().unwrap(), vec![42u8; 97]);
        assert_eq!(rx.recv().unwrap(), b"");
        assert_eq!(rx.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Four hostile bytes announce the largest frame there is and ten bytes
    /// follow: an error after one reserve's worth of buffer, not a 1 GiB
    /// allocation.
    #[test]
    fn hostile_length_prefix_is_an_error_not_an_allocation() {
        let mut bytes = MAX_FRAME_LEN.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut frame = Vec::new();
        let err = read_body(&mut &bytes[4..], MAX_FRAME_LEN as usize, &mut frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(frame.capacity() <= 10 + FIRST_RESERVE);
    }

    /// A body longer than the first reserve grows the buffer as it arrives.
    #[test]
    fn frames_longer_than_the_first_reserve_round_trip() {
        let body: Vec<u8> = (0..2 * FIRST_RESERVE + 5).map(|i| i as u8).collect();
        let mut written = Vec::new();
        write_frame(&mut written, &body).unwrap();
        assert_eq!(read_frame(&mut written.as_slice()).unwrap(), body);
    }

    /// Hands out its script one step per `read`: bytes (as many as fit), or
    /// a read deadline.
    struct ScriptedReader(Vec<Option<Vec<u8>>>);

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            match self.0.remove(0) {
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline")),
                Some(mut bytes) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.insert(0, Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// A deadline before a frame's first byte is a plain miss, and the
    /// frame still arrives whole; one after it, in the prefix or in the
    /// body, is an error no caller retries, so no later read can take the
    /// rest of the frame for a length prefix.
    #[test]
    fn a_deadline_mid_frame_is_not_a_retryable_miss() {
        let mut written = Vec::new();
        write_frame(&mut written, b"hello").unwrap();
        let (prefix, body) = written.split_at(4);

        let mut clean = ScriptedReader(vec![None, Some(written.clone())]);
        let err = read_frame(&mut clean).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(read_frame(&mut clean).unwrap(), b"hello");

        let mut in_prefix = ScriptedReader(vec![
            Some(prefix[..2].to_vec()),
            None,
            Some(written[2..].to_vec()),
        ]);
        let err = read_frame(&mut in_prefix).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted, "{err}");

        let mut in_body = ScriptedReader(vec![
            Some(prefix.to_vec()),
            Some(body[..1].to_vec()),
            None,
            Some(body[1..].to_vec()),
        ]);
        let err = read_frame(&mut in_body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted, "{err}");
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let mut written: Vec<u8> = Vec::new();
        {
            let mut tx = StreamTransport::new(io::empty(), &mut written);
            tx.send(&[9u8; 50]).unwrap();
        }
        // Truncate inside the payload: header promises 50 bytes, stream
        // delivers 10.
        written.truncate(4 + 10);
        let mut rx = StreamTransport::new(written.as_slice(), io::sink());
        let err = rx.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
