//! Length-prefixed transport framing for the cross-process executor.
//!
//! Every unit crossing a worker link is one *frame*:
//!
//! ```text
//! [kind: u8][len: u32 LE][body: len bytes]
//! ```
//!
//! `kind` names the protocol step (see [`FrameKind`]); `len` bounds the
//! body so a corrupted or hostile peer can never make the reader
//! allocate unboundedly ([`MAX_BODY`]). A payload-bearing [`FrameKind::Msg`]
//! frame carries one engine message on the codec seam:
//!
//! ```text
//! body = [receiver: u32 LE][port: u32 LE][ctx: u16 LE]
//!        [bit_len: u32 LE][payload: ceil(bit_len/8) bytes]
//! ```
//!
//! `receiver`/`port` address the delivery (the receiver-side local
//! port, exactly the label the engine's inbox packets carry); `ctx`
//! ships the receiver-side codec state of the
//! [`crate::message::ContextCodec`] handshake (for `CkCodec`, the
//! Phase-2 sequence length); `bit_len` is the message's exact
//! [`crate::message::WireMessage::wire_bits`] size, and the payload is
//! that bit string padded to a byte boundary with zero bits — the
//! same MSB-first layout [`crate::message::BitWriter`] produces, so
//! the frame's payload *is* the canonical CONGEST wire encoding and
//! the per-round bit counters price precisely what travels.
//!
//! Reads are **total**: any prefix of a valid byte stream decodes to a
//! typed [`FrameError`] (`Truncated`, never a panic and never an
//! over-read past `len`), which the fault-injection suite proves for
//! every prefix length.

use std::io::{Read, Write};

use crate::clock::Deadline;
use crate::message::CodecError;

/// Hard cap on a frame body — larger announced lengths are rejected
/// before any allocation.
pub const MAX_BODY: u32 = 1 << 26;

/// Protocol step carried by a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → coordinator: magic + protocol version.
    Hello = 1,
    /// Coordinator → worker: the serialized job (graph, config,
    /// partition assignment, fault plan).
    Spec = 2,
    /// Worker → coordinator: spec parsed, partition built.
    Ready = 3,
    /// Coordinator → worker: execute one round.
    Go = 4,
    /// Either direction: one cross-partition engine message.
    Msg = 5,
    /// Worker → coordinator: round finished; body is the round digest.
    Done = 6,
    /// Coordinator → worker: all deliveries for the round are out —
    /// commit inboxes and await the next `Go`.
    Barrier = 7,
    /// Worker → coordinator: liveness beacon between frames.
    Heartbeat = 8,
    /// Coordinator → worker: run complete, report verdicts.
    Finish = 9,
    /// Worker → coordinator: serialized per-node verdicts.
    Verdicts = 10,
    /// Coordinator → worker: abandon the run (bandwidth violation or a
    /// peer failure); exit cleanly.
    Abort = 11,
    /// Worker → coordinator: typed failure description.
    Error = 12,
    /// Either direction of a probe-service link: one `ServeMsg` RPC
    /// (submit / result / stats / shutdown) as a plain byte body. The
    /// frame layer stays the one transport in the repo; the service's
    /// RPC grammar lives entirely in the body.
    Serve = 13,
}

impl FrameKind {
    /// Decodes a wire byte; `None` marks a protocol violation.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::Spec,
            3 => FrameKind::Ready,
            4 => FrameKind::Go,
            5 => FrameKind::Msg,
            6 => FrameKind::Done,
            7 => FrameKind::Barrier,
            8 => FrameKind::Heartbeat,
            9 => FrameKind::Finish,
            10 => FrameKind::Verdicts,
            11 => FrameKind::Abort,
            12 => FrameKind::Error,
            13 => FrameKind::Serve,
            _ => return None,
        })
    }
}

/// A frame read off the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub body: Vec<u8>,
}

/// Typed failure of the frame layer — every malformed, truncated, or
/// overdue byte stream lands here; nothing panics and nothing hangs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-frame (header or body).
    Truncated,
    /// The announced body length exceeds [`MAX_BODY`].
    Oversized { len: u32 },
    /// An unknown frame kind byte.
    BadKind(u8),
    /// A structurally malformed frame body.
    BadBody(&'static str),
    /// The payload failed the message codec.
    Codec(CodecError),
    /// The deadline passed before a full frame arrived.
    TimedOut,
    /// Any other transport error (connection reset, broken pipe, …).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len } => write!(f, "frame body of {len} bytes exceeds cap"),
            FrameError::BadKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            FrameError::BadBody(what) => write!(f, "malformed frame body: {what}"),
            FrameError::Codec(e) => write!(f, "payload codec failure: {e}"),
            FrameError::TimedOut => write!(f, "deadline passed mid-frame"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e.to_string()),
        }
    }
}

/// Writes one frame. The caller flushes, so frames written into a
/// buffered writer leave together: a worker's round `Msg`s with its
/// `Done`, the coordinator's routed `Msg`s with `Barrier` and the next
/// `Go`. A body over [`MAX_BODY`] is
/// [`std::io::ErrorKind::InvalidInput`] and writes nothing.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
    if body.len() as u64 > u64::from(MAX_BODY) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_BODY", body.len()),
        ));
    }
    let [l0, l1, l2, l3] = (body.len() as u32).to_le_bytes();
    let header = [kind as u8, l0, l1, l2, l3];
    w.write_all(&header)?;
    w.write_all(body)
}

/// Frame header size on the wire: `[kind: u8][len: u32 LE]`.
const HEADER_LEN: usize = 5;

/// Fills `buf`, retrying short socket timeouts until `deadline`. EOF
/// before `buf` is full is [`FrameError::Truncated`] — the caller
/// decides whether a frame boundary was legitimate.
fn read_exact_deadline(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: &Deadline,
) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(k) => filled += k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
        if filled < buf.len() && deadline.expired() {
            return Err(FrameError::TimedOut);
        }
    }
    Ok(())
}

/// Reads one frame, bounded by `deadline`. Never reads past the
/// announced body length, never allocates more than [`MAX_BODY`].
///
/// **One-shot**: a [`FrameError::TimedOut`] may leave part of the
/// frame consumed, so the stream position is untrusted afterwards.
/// Treat it as fatal for the link (the distributed executor's
/// lost-worker paths, a serve client's spent receive budget); never
/// read again as if a timeout were a benign tick, or a deadline
/// expiring mid-frame desyncs the stream.
pub fn read_frame(r: &mut impl Read, deadline: &Deadline) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_deadline(r, &mut header, deadline)?;
    let [kind_byte, l0, l1, l2, l3] = header;
    let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_BODY {
        return Err(FrameError::Oversized { len });
    }
    let mut body = vec![0u8; len as usize];
    read_exact_deadline(r, &mut body, deadline)?;
    Ok(Frame { kind, body })
}

/// Header of a [`FrameKind::Msg`] body (see the module doc for the
/// layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// Receiving node (global index).
    pub receiver: u32,
    /// Receiver-side local port — the delivery label the engine's inbox
    /// packets carry.
    pub port: u32,
    /// Receiver-side codec context ([`crate::message::ContextCodec`]).
    pub ctx: u16,
    /// Exact payload size in bits; the payload is `ceil(bit_len/8)`
    /// bytes, zero-padded MSB-first.
    pub bit_len: u32,
}

/// Encodes a `Msg` body from its header and payload bytes.
pub fn encode_msg_body(h: &MsgHeader, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(payload.len() as u64, u64::from(h.bit_len).div_ceil(8));
    let mut body = Vec::with_capacity(14 + payload.len());
    body.extend_from_slice(&h.receiver.to_le_bytes());
    body.extend_from_slice(&h.port.to_le_bytes());
    body.extend_from_slice(&h.ctx.to_le_bytes());
    body.extend_from_slice(&h.bit_len.to_le_bytes());
    body.extend_from_slice(payload);
    body
}

/// Decodes a `Msg` body, validating that the payload holds exactly
/// `ceil(bit_len/8)` bytes — a frame can neither hide trailing bytes
/// nor promise bits it does not carry.
pub fn decode_msg_body(body: &[u8]) -> Result<(MsgHeader, &[u8]), FrameError> {
    let mut r = ByteReader::new(body);
    let h = MsgHeader { receiver: r.u32()?, port: r.u32()?, ctx: r.u16()?, bit_len: r.u32()? };
    let payload = r.rest();
    if payload.len() as u64 != u64::from(h.bit_len).div_ceil(8) {
        return Err(FrameError::BadBody("payload length disagrees with bit_len"));
    }
    Ok((h, payload))
}

/// Byte-stream writer for frame bodies (specs, digests, verdicts):
/// little-endian fixed-width integers and LEB128 varints. A plain
/// `Vec<u8>` wrapper so callers compose encoders.
#[derive(Default)]
pub struct ByteWriter(pub Vec<u8>);

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter(Vec::new())
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    /// LEB128: seven bits per byte, low group first, the top bit set
    /// on every byte but the last. Values below 128 take one byte, and
    /// `u64::MAX` takes ten.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }
}

/// Bytes in the longest [`ByteWriter::varint`] (`u64::MAX`).
const VARINT_MAX_LEN: usize = 10;

/// Little-endian reader over a frame body; every under-read is a typed
/// [`FrameError::Truncated`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// [`take`](Self::take) as a fixed-size array — the panic-free
    /// bridge to `uNN::from_le_bytes` (the slice has exactly `N` bytes
    /// by construction, so the copy cannot fail).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let [b] = self.take_array()?;
        Ok(b)
    }
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    pub fn u128(&mut self) -> Result<u128, FrameError> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a [`ByteWriter::varint`]. Only the shortest encoding of a
    /// value is accepted: a zero last byte after the first, a value
    /// past `u64::MAX` and more than ten bytes are all
    /// [`FrameError::BadBody`], so every value has exactly one encoding.
    pub fn varint(&mut self) -> Result<u64, FrameError> {
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(VARINT_MAX_LEN).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(FrameError::BadBody("over-long varint"));
                }
                // The tenth byte holds bit 63 alone.
                if i == VARINT_MAX_LEN - 1 && b > 1 {
                    return Err(FrameError::BadBody("varint overflows u64"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        if rest.len() < VARINT_MAX_LEN {
            Err(FrameError::Truncated)
        } else {
            Err(FrameError::BadBody("varint longer than ten bytes"))
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the reader, returning everything not yet read — for
    /// trailing variable-length payloads that take the rest of a body.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Rejects trailing garbage after a complete decode.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::BadBody("trailing bytes after message"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Go, &7u32.to_le_bytes()).unwrap();
        write_frame(&mut wire, FrameKind::Barrier, &[]).unwrap();
        let d = Deadline::after_ms(100);
        let mut r = &wire[..];
        let f1 = read_frame(&mut r, &d).unwrap();
        assert_eq!(f1.kind, FrameKind::Go);
        assert_eq!(f1.body, 7u32.to_le_bytes());
        let f2 = read_frame(&mut r, &d).unwrap();
        assert_eq!(f2.kind, FrameKind::Barrier);
        assert!(f2.body.is_empty());
        assert_eq!(read_frame(&mut r, &d), Err(FrameError::Truncated));
    }

    #[test]
    fn every_prefix_of_a_frame_is_a_typed_truncation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Msg, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        for cut in 0..wire.len() {
            let d = Deadline::after_ms(50);
            let mut r = &wire[..cut];
            assert_eq!(read_frame(&mut r, &d), Err(FrameError::Truncated), "prefix {cut}");
        }
    }

    #[test]
    fn oversized_body_is_refused_typed_and_writes_nothing() {
        let body = vec![0u8; MAX_BODY as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, FrameKind::Spec, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing of an oversized frame is written");
    }

    #[test]
    fn never_deadline_does_not_expire() {
        let d = Deadline::never();
        assert!(!d.expired());
        assert_eq!(d.remaining(), Duration::MAX);
        // A stream that ends still ends the read.
        assert_eq!(read_frame(&mut &[FrameKind::Go as u8][..], &d), Err(FrameError::Truncated));
    }

    #[test]
    fn oversized_and_bad_kind_are_rejected_before_allocation() {
        let d = Deadline::after_ms(50);
        let mut bad = vec![FrameKind::Msg as u8];
        bad.extend_from_slice(&(MAX_BODY + 1).to_le_bytes());
        assert_eq!(read_frame(&mut &bad[..], &d), Err(FrameError::Oversized { len: MAX_BODY + 1 }));
        let mut unk = vec![0xEEu8];
        unk.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(read_frame(&mut &unk[..], &d), Err(FrameError::BadKind(0xEE)));
    }

    #[test]
    fn msg_body_validates_payload_length() {
        let h = MsgHeader { receiver: 3, port: 1, ctx: 2, bit_len: 12 };
        let body = encode_msg_body(&h, &[0xAB, 0xC0]);
        let (back, payload) = decode_msg_body(&body).unwrap();
        assert_eq!(back, h);
        assert_eq!(payload, &[0xAB, 0xC0]);
        // One byte short and one byte long both fail typed.
        assert!(decode_msg_body(&body[..body.len() - 1]).is_err());
        let mut long = body.clone();
        long.push(0);
        assert!(decode_msg_body(&long).is_err());
    }

    #[test]
    fn varints_roundtrip_at_their_shortest_length() {
        let cases =
            [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for v in cases {
            let mut w = ByteWriter::new();
            w.varint(v);
            let len = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
            assert_eq!(w.0.len(), len, "{v}");
            let mut r = ByteReader::new(&w.0);
            assert_eq!(r.varint(), Ok(v));
            r.finish().unwrap();
            for cut in 0..w.0.len() {
                assert_eq!(ByteReader::new(&w.0[..cut]).varint(), Err(FrameError::Truncated));
            }
        }
    }

    #[test]
    fn non_canonical_varints_are_bad_bodies() {
        let bad: [&[u8]; 5] = [
            // Zero and one, each padded to two bytes.
            &[0x80, 0x00],
            &[0x81, 0x00],
            // 2^64: the tenth byte carries a bit past bit 63.
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
            // Eleven bytes.
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00],
            &[0x80; 12],
        ];
        for b in bad {
            assert!(matches!(ByteReader::new(b).varint(), Err(FrameError::BadBody(_))), "{b:?}");
        }
    }

    #[test]
    fn byte_reader_is_total() {
        let mut w = ByteWriter::new();
        w.u32(9);
        w.bytes(b"abc");
        for cut in 0..w.0.len() {
            let mut r = ByteReader::new(&w.0[..cut]);
            let got = r.u32().and_then(|_| r.bytes().map(|b| b.to_vec()));
            if cut < w.0.len() {
                assert!(got.is_err() || cut >= 11, "prefix {cut}");
            }
        }
    }
}
