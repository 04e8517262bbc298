//! Message types of the tester protocols, with CONGEST wire accounting.
//!
//! A Phase-2 payload is a [`SeqRows`] set: every sequence of one round
//! has the same length, so a payload is one flat `Vec<NodeId>` of rows
//! of that width, and a seed payload holds 8 bytes of IDs in a 32-byte
//! backing. The row width is also the codec's round context
//! ([`CkCodec::seq_len`]), which the wire leaves implicit.
//!
//! Payload backings are recycled by the engine's broadcast slots: a
//! broadcast evicts the payload its sender parked two rounds earlier,
//! and the tester keeps that payload as its spare backing for the next
//! send, so steady-state Phase-2 traffic allocates nothing.

use crate::seq::{SeqRows, MAX_SEQ_LEN};
use ck_congest::graph::NodeId;
use ck_congest::message::{
    bits_for, flip_frame_bits, flips_for_entropy, BitReader, BitWriter, CodecError, ContextCodec,
    WireCodec, WireMessage, WireParams,
};

/// Identity of a Phase-2 check: the edge under test and its Phase-1 rank.
/// Total order = (rank, endpoints): the arbitration key of Phase 1
/// ("ties are broken arbitrarily, e.g., based on the ID of extremities").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeTag {
    /// Phase-1 rank `r(e) ∈ [1, m²]`.
    pub rank: u64,
    /// Smaller endpoint identity.
    pub lo: NodeId,
    /// Larger endpoint identity.
    pub hi: NodeId,
}

impl EdgeTag {
    /// Builds a tag with canonical endpoint order.
    pub fn new(rank: u64, a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "an edge tag needs two distinct endpoints");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        EdgeTag { rank, lo, hi }
    }

    /// True if `id` is an endpoint of the tagged edge.
    pub fn is_endpoint(&self, id: NodeId) -> bool {
        id == self.lo || id == self.hi
    }
}

/// Encoded size of a sequence set: count prefix plus `width · id_bits`
/// per sequence (the receiver learns lengths from the round number; a
/// conservative per-sequence length field would not change the asymptotics
/// tracked by Lemma 3).
pub fn seqs_wire_bits(seqs: &SeqRows, params: &WireParams) -> u64 {
    u64::from(bits_for(seqs.len().max(1) as u64))
        + seqs.ids().len() as u64 * u64::from(params.id_bits)
}

impl WireMessage for SeqRows {
    fn wire_bits(&self, params: &WireParams) -> u64 {
        seqs_wire_bits(self, params)
    }
}

/// Full-tester messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkMsg {
    /// Phase 1: the edge owner ships the rank to the other endpoint.
    Rank(u64),
    /// Phase 2: sequences for the check identified by `tag`, carried as
    /// rows of one recycled backing.
    Seqs { tag: EdgeTag, seqs: SeqRows },
}

impl WireMessage for CkMsg {
    fn wire_bits(&self, params: &WireParams) -> u64 {
        match self {
            // One rank value (plus a 1-bit discriminant).
            CkMsg::Rank(_) => 1 + u64::from(params.rank_bits),
            // Tag (rank + both endpoint IDs) plus the sequence payload.
            CkMsg::Seqs { seqs, .. } => {
                1 + u64::from(params.rank_bits)
                    + 2 * u64::from(params.id_bits)
                    + seqs.wire_bits(params)
            }
        }
    }

    /// Tampers with this message *as bytes on the wire*: the frame is
    /// re-encoded through [`CkCodec`], `entropy`-selected bits are
    /// flipped, and the damaged frame is decoded under the same round
    /// context — exactly what a corrupting link does to a real frame.
    /// `None` (the codec rejected the damage) is a detected-and-dropped
    /// frame; `Some` garbage is delivered and must be survivable by the
    /// protocol's own validation.
    fn corrupt_frame(&self, params: &WireParams, entropy: u64) -> Option<Self> {
        // The round context is recoverable from the message itself: it
        // is the payload's row width.
        let codec = CkCodec::for_msg(self);
        let Ok(buf) = codec.encode_to_buf(self, params) else {
            return None;
        };
        let mut bytes = buf.as_bytes().to_vec();
        flip_frame_bits(&mut bytes, buf.len_bits(), entropy, flips_for_entropy(entropy));
        let mut reader = BitReader::new(&bytes, buf.len_bits());
        codec.decode(params, &mut reader).ok()
    }
}

/// The canonical byte codec for [`CkMsg`] — the [`WireCodec`] instance
/// backing [`CkMsg::wire_bits`] with real bits: for every message,
/// `encode` writes exactly `wire_bits` bits and `decode` inverts it.
///
/// Layout (all fields MSB-first):
///
/// | variant | bits |
/// |---|---|
/// | `Rank(r)` | `0`, then `r` in `rank_bits` |
/// | `Seqs`  | `1`, then `tag.rank` (`rank_bits`), `tag.lo`, `tag.hi` (`id_bits` each), the sequence count `c` in `bits_for(max(c,1))` bits, then `c · seq_len` IDs (`id_bits` each) |
///
/// The first bit separates `Rank` from `Seqs`. Exactly like the
/// accounting in [`seqs_wire_bits`], the encoding carries **no
/// per-sequence length fields**: the CONGEST receiver knows every
/// sequence's length from the round number ("the receiver learns
/// lengths from the round number"), so that context — [`CkCodec::seq_len`]
/// — is codec state, set per round by a network executor, not payload
/// bits. Within that context the count prefix is self-delimiting:
/// `bits_for(max(c,1)) + c·seq_len·id_bits` is strictly increasing in
/// `c`, so the frame length determines `c` uniquely and the prefix
/// value is verified against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkCodec {
    /// Length of every sequence in a `Seqs` bundle under this round's
    /// context (`1..=MAX_SEQ_LEN`; irrelevant for `Rank`).
    pub seq_len: usize,
}

impl CkCodec {
    /// A codec for bundles of `seq_len`-ID sequences.
    ///
    /// # Panics
    /// Panics when `seq_len` exceeds [`MAX_SEQ_LEN`] (no protocol round
    /// ships longer sequences).
    pub fn new(seq_len: usize) -> Self {
        assert!(seq_len <= MAX_SEQ_LEN, "seq_len {seq_len} exceeds MAX_SEQ_LEN");
        CkCodec { seq_len }
    }

    /// The codec of the round a message was built in: the row width of
    /// a nonempty `Seqs` payload, `0` for anything else.
    pub fn for_msg(msg: &CkMsg) -> Self {
        match msg {
            CkMsg::Seqs { seqs, .. } if !seqs.is_empty() => CkCodec::new(seqs.width()),
            _ => CkCodec::new(0),
        }
    }
}

/// The codec-state handshake of the distributed executor: a `Msg` frame
/// ships `seq_len` as its context word, so a receiving worker — which
/// has no shared round counter to derive the Phase-2 sequence length
/// from — rebuilds the exact sender-side codec before touching the
/// payload bits. `Rank` frames (and empty bundles) travel under
/// context `0`; any word above [`MAX_SEQ_LEN`] is rejected as a typed
/// protocol error rather than trusted.
impl ContextCodec for CkCodec {
    fn context(&self) -> u16 {
        self.seq_len as u16
    }

    fn from_context(ctx: u16) -> Option<Self> {
        if usize::from(ctx) > MAX_SEQ_LEN {
            return None;
        }
        Some(CkCodec::new(usize::from(ctx)))
    }

    fn context_for(&self, msg: &CkMsg) -> u16 {
        match msg {
            // Bundle frames need the round's sequence length to split
            // the ID stream; rank frames and empty bundles decode under
            // any context.
            CkMsg::Seqs { seqs, .. } if !seqs.is_empty() => self.seq_len as u16,
            _ => 0,
        }
    }
}

impl WireCodec for CkCodec {
    type Msg = CkMsg;

    fn encode(
        &self,
        msg: &CkMsg,
        params: &WireParams,
        out: &mut BitWriter,
    ) -> Result<u64, CodecError> {
        // Validate everything *before* the first bit lands: an error
        // must leave `out` untouched, so callers packing several
        // messages into one frame never end up mis-framed.
        let fits = |value: u64, width: u32| -> Result<(), CodecError> {
            if width < 64 && value >> width != 0 {
                return Err(CodecError::Overflow { value, width });
            }
            Ok(())
        };
        match msg {
            CkMsg::Rank(r) => fits(*r, params.rank_bits)?,
            CkMsg::Seqs { tag, seqs } => {
                fits(tag.rank, params.rank_bits)?;
                fits(tag.lo, params.id_bits)?;
                fits(tag.hi, params.id_bits)?;
                if !seqs.is_empty() {
                    if self.seq_len == 0 {
                        return Err(CodecError::Invalid(
                            "a bundle of empty sequences is not framable",
                        ));
                    }
                    if seqs.width() != self.seq_len {
                        return Err(CodecError::Invalid(
                            "sequence length differs from the codec's round context",
                        ));
                    }
                    for &id in seqs.ids() {
                        fits(id, params.id_bits)?;
                    }
                }
            }
        }

        let start = out.len_bits();
        match msg {
            CkMsg::Rank(r) => {
                out.push_bits(0, 1)?;
                out.push_bits(*r, params.rank_bits)?;
            }
            CkMsg::Seqs { tag, seqs } => {
                out.push_bits(1, 1)?;
                out.push_bits(tag.rank, params.rank_bits)?;
                out.push_bits(tag.lo, params.id_bits)?;
                out.push_bits(tag.hi, params.id_bits)?;
                let c = seqs.len();
                out.push_bits(c as u64, bits_for(c.max(1) as u64))?;
                for &id in seqs.ids() {
                    out.push_bits(id, params.id_bits)?;
                }
            }
        }
        let bits = out.len_bits() - start;
        debug_assert_eq!(bits, msg.wire_bits(params), "encoded bits must equal wire_bits");
        Ok(bits)
    }

    fn decode(&self, params: &WireParams, r: &mut BitReader<'_>) -> Result<CkMsg, CodecError> {
        if r.read_bits(1)? == 0 {
            let rank = r.read_bits(params.rank_bits)?;
            if r.remaining_bits() != 0 {
                return Err(CodecError::TrailingBits { remaining: r.remaining_bits() });
            }
            return Ok(CkMsg::Rank(rank));
        }
        let rank = r.read_bits(params.rank_bits)?;
        let lo = r.read_bits(params.id_bits)?;
        let hi = r.read_bits(params.id_bits)?;
        if lo >= hi {
            return Err(CodecError::Invalid("edge tag endpoints must satisfy lo < hi"));
        }
        let rem = r.remaining_bits();
        let per_seq = self.seq_len as u64 * u64::from(params.id_bits);
        // Solve `rem = bits_for(max(c,1)) + c·per_seq` for the unique c
        // (strictly increasing once per_seq ≥ 1; c = 0 is the rem = 1
        // case).
        let count = if rem == 1 {
            0u64
        } else {
            if per_seq == 0 {
                return Err(CodecError::Invalid("a bundle of empty sequences is not framable"));
            }
            let mut c = 1u64;
            loop {
                let need = u64::from(bits_for(c)) + c * per_seq;
                if need == rem {
                    break c;
                }
                if need > rem {
                    return Err(CodecError::Invalid("frame length matches no sequence count"));
                }
                c += 1;
            }
        };
        let prefix = r.read_bits(bits_for(count.max(1)))?;
        if prefix != count {
            return Err(CodecError::Invalid("non-canonical bundle count prefix"));
        }
        let mut ids = [0 as NodeId; MAX_SEQ_LEN];
        let mut seqs = SeqRows::new(self.seq_len);
        for _ in 0..count {
            for slot in ids.iter_mut().take(self.seq_len) {
                *slot = r.read_bits(params.id_bits)?;
            }
            // Lemma 1: the wire only ever carries *simple* paths, so a
            // sequence repeating an identity is not a well-formed frame.
            // Rejecting it here keeps corrupted-but-parseable frames from
            // smuggling non-paths into the pruner and the decide rule.
            for i in 1..self.seq_len {
                if ids[..i].contains(&ids[i]) {
                    return Err(CodecError::Invalid(
                        "sequence repeats an identity (paths are simple)",
                    ));
                }
            }
            seqs.push(&ids[..self.seq_len]);
        }
        debug_assert_eq!(r.remaining_bits(), 0, "count inference consumes the frame exactly");
        Ok(CkMsg::Seqs { tag: EdgeTag { rank, lo, hi }, seqs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WireParams {
        WireParams { n: 64, m: 128, id_bits: 12, rank_bits: 14 }
    }

    #[test]
    fn edge_tag_orders_by_rank_then_endpoints() {
        let a = EdgeTag::new(5, 9, 3);
        assert_eq!((a.lo, a.hi), (3, 9));
        let b = EdgeTag::new(5, 1, 2);
        let c = EdgeTag::new(4, 100, 200);
        assert!(c < b && b < a);
        assert!(a.is_endpoint(3) && a.is_endpoint(9) && !a.is_endpoint(5));
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn edge_tag_rejects_loops() {
        let _ = EdgeTag::new(1, 4, 4);
    }

    #[test]
    fn bundle_bits_scale_with_content() {
        let p = params();
        let small = SeqRows::from_rows(1, &[&[1]]);
        let big = SeqRows::from_rows(3, &[&[1, 2, 3], &[4, 5, 6]]);
        assert!(small.wire_bits(&p) < big.wire_bits(&p));
        assert_eq!(big.wire_bits(&p), bits_for(2) as u64 + 6 * 12);
    }

    #[test]
    fn ck_msg_bits() {
        let p = params();
        assert_eq!(CkMsg::Rank(7).wire_bits(&p), 15);
        let m = CkMsg::Seqs { tag: EdgeTag::new(7, 1, 2), seqs: SeqRows::from_rows(2, &[&[1, 2]]) };
        assert_eq!(m.wire_bits(&p), 1 + 14 + 24 + (1 + 24));
    }

    #[test]
    fn codec_roundtrips_every_variant_at_wire_bits() {
        let p = params();
        let codec = CkCodec::new(2);
        let msgs = [
            CkMsg::Rank(7),
            CkMsg::Rank((1 << 14) - 1),
            CkMsg::Seqs { tag: EdgeTag::new(7, 1, 2), seqs: SeqRows::new(2) },
            CkMsg::Seqs {
                tag: EdgeTag::new(200, 40, 3),
                seqs: SeqRows::from_rows(2, &[&[1, 2], &[9, 4]]),
            },
        ];
        for msg in &msgs {
            let buf = codec.encode_to_buf(msg, &p).unwrap();
            assert_eq!(buf.len_bits(), msg.wire_bits(&p), "{msg:?}");
            let back = codec.decode(&p, &mut buf.reader()).unwrap();
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn codec_rejects_unframable_and_malformed_messages() {
        let p = params();
        let codec = CkCodec::new(2);
        // A sequence whose length disagrees with the round context.
        let mixed =
            CkMsg::Seqs { tag: EdgeTag::new(1, 1, 2), seqs: SeqRows::from_rows(3, &[&[1, 2, 3]]) };
        assert!(matches!(codec.encode_to_buf(&mixed, &p), Err(CodecError::Invalid(_))));
        // An ID wider than id_bits cannot be framed.
        let fat = CkMsg::Seqs {
            tag: EdgeTag::new(1, 1, 1 << 12),
            seqs: SeqRows::from_rows(2, &[&[1, 2]]),
        };
        assert!(matches!(codec.encode_to_buf(&fat, &p), Err(CodecError::Overflow { .. })));
        // A failed encode leaves the writer untouched (multi-message
        // frames must never be mis-framed by a rejected append).
        let mut frame = codec.encode_to_buf(&CkMsg::Rank(3), &p).unwrap();
        let before = frame.clone();
        assert!(codec.encode(&mixed, &p, &mut frame).is_err());
        assert!(codec.encode(&fat, &p, &mut frame).is_err());
        assert_eq!(frame, before, "rejected appends must not write partial bits");
        // Truncated frame.
        let ok =
            CkMsg::Seqs { tag: EdgeTag::new(1, 1, 2), seqs: SeqRows::from_rows(2, &[&[1, 2]]) };
        let buf = codec.encode_to_buf(&ok, &p).unwrap();
        let mut short = BitReader::new(buf.as_bytes(), buf.len_bits() - 3);
        assert!(codec.decode(&p, &mut short).is_err());
        // Decoding under the wrong round context trips the frame-length
        // or canonical-prefix check (context is part of the frame's
        // addressing, like any schema'd wire format).
        let wrong = CkCodec::new(3).decode(&p, &mut buf.reader());
        assert!(wrong.is_err(), "{wrong:?}");
    }

    #[test]
    fn decode_rejects_sequences_that_repeat_an_identity() {
        let p = params();
        let codec = CkCodec::new(2);
        // Forge a frame whose single sequence repeats an ID; the honest
        // encoder refuses nothing about widths here, so build the frame
        // bit-by-bit the way the codec lays it out.
        let mut w = BitWriter::new();
        w.push_bits(1, 1).unwrap(); // not-Rank discriminant
        w.push_bits(5, p.rank_bits).unwrap();
        w.push_bits(1, p.id_bits).unwrap(); // lo
        w.push_bits(2, p.id_bits).unwrap(); // hi
        w.push_bits(1, bits_for(1)).unwrap(); // count = 1
        w.push_bits(9, p.id_bits).unwrap();
        w.push_bits(9, p.id_bits).unwrap(); // duplicate identity
        let err = codec.decode(&p, &mut w.reader());
        assert!(
            matches!(err, Err(CodecError::Invalid(m)) if m.contains("repeats an identity")),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_frame_tampers_or_rejects_every_variant() {
        let p = params();
        let msgs = [
            CkMsg::Rank(7),
            CkMsg::Seqs { tag: EdgeTag::new(7, 1, 2), seqs: SeqRows::new(0) },
            CkMsg::Seqs {
                tag: EdgeTag::new(200, 3, 40),
                seqs: SeqRows::from_rows(2, &[&[1, 2], &[9, 4]]),
            },
        ];
        let mut delivered = 0u32;
        let mut rejected = 0u32;
        let mut tampered = 0u32;
        for msg in &msgs {
            for entropy in 1..64u64 {
                let once = msg.corrupt_frame(&p, entropy);
                let twice = msg.corrupt_frame(&p, entropy);
                assert_eq!(once, twice, "corruption must be a pure function of entropy");
                match once {
                    Some(garbled) => {
                        delivered += 1;
                        if &garbled != msg {
                            tampered += 1;
                        }
                        // Whatever decoded is a structurally valid CkMsg:
                        // re-encoding it under its own context succeeds.
                        assert!(CkCodec::for_msg(&garbled).encode_to_buf(&garbled, &p).is_ok());
                    }
                    None => rejected += 1,
                }
            }
        }
        assert!(delivered > 0, "some corrupted frames must still decode");
        assert!(rejected > 0, "some corrupted frames must be codec-rejected");
        assert!(tampered > 0, "delivered corrupted frames must include real garbage");
    }
}
