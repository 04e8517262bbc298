//! Satellite: `CkCodec` frame decode under arbitrary byte-boundary
//! truncation. Every prefix of a valid wire frame — cut at any byte,
//! exactly what a mid-frame disconnect produces — must come back as a
//! typed error through the framing layer: never a panic, never a read
//! past the announced payload, never a silently wrong message.

use ck_congest::clock::Deadline;
use ck_congest::message::{BitReader, WireCodec, WireParams};
use ck_congest::net::frame::{
    decode_msg_body, read_frame, write_frame, Frame, FrameError, FrameKind,
};
use ck_congest::net::OutFrame;
use ck_core::dist::{decode_in_frame, encode_out_frame};
use ck_core::msg::{CkCodec, CkMsg, EdgeTag};
use ck_core::seq::{SeqRows, MAX_SEQ_LEN};

use proptest::prelude::*;

fn params() -> WireParams {
    WireParams { n: 64, m: 128, id_bits: 11, rank_bits: 14 }
}

/// An arbitrary well-formed `CkMsg` within `params()`'s domains: a
/// selector picks the variant, the remaining draws parameterize it.
fn arb_msg() -> impl Strategy<Value = CkMsg> {
    let p = params();
    (
        0u8..2,
        0u64..(1u64 << p.rank_bits),
        0u64..(1u64 << p.id_bits),
        1usize..(MAX_SEQ_LEN + 1),
        0usize..4,
        0u64..1000,
    )
        .prop_map(move |(variant, rank, lo, seq_len, count, salt)| match variant {
            0 => CkMsg::Rank(rank),
            _ => {
                let hi = if lo + 1 < (1 << p.id_bits) { lo + 1 } else { lo - 1 };
                let tag = EdgeTag::new(rank, lo, hi);
                let mut seqs = SeqRows::new(seq_len);
                for i in 0..count {
                    let ids: Vec<u64> = (0..seq_len)
                        .map(|j| (salt + i as u64 * 31 + j as u64 * 7) % (1 << p.id_bits))
                        .collect();
                    seqs.push(&ids);
                }
                CkMsg::Seqs { tag, seqs }
            }
        })
}

/// Serializes a full `Msg` frame (header + body) as it would cross the
/// socket.
fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameKind::Msg, body).unwrap();
    wire
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every strict byte prefix of a framed message fails typed at
    /// some layer; the full frame round-trips exactly.
    #[test]
    fn every_frame_prefix_fails_typed(msg in arb_msg(), receiver in 0u32..64, port in 0u32..8) {
        let p = params();
        let body = encode_out_frame(&OutFrame { receiver, port, msg: msg.clone() }, &p).unwrap();
        let wire = frame_bytes(&body);

        for cut in 0..wire.len() {
            let deadline = Deadline::after_ms(1_000);
            match read_frame(&mut &wire[..cut], &deadline) {
                // The stream ended mid-frame: the only acceptable
                // typed outcome for a prefix of the 5-byte header or
                // of the announced body.
                Err(FrameError::Truncated) => {}
                Err(e) => panic!("prefix {cut}: unexpected error {e:?}"),
                Ok(Frame { kind, body: got }) => {
                    // `read_frame` stops at the announced length, so a
                    // *shorter* valid frame can never surface here.
                    panic!("prefix {cut} decoded as a frame: {kind:?} ({} bytes)", got.len());
                }
            }
        }

        // The untruncated frame decodes to the exact message.
        let deadline = Deadline::after_ms(1_000);
        let frame = read_frame(&mut &wire[..], &deadline).unwrap();
        prop_assert_eq!(frame.kind, FrameKind::Msg);
        let (header, decoded) = decode_in_frame(&frame.body, &p).unwrap();
        prop_assert_eq!(header.receiver, receiver);
        prop_assert_eq!(header.port, port);
        prop_assert_eq!(decoded, msg);
    }

    /// Every strict prefix of the `Msg` *body* fails typed through
    /// `decode_in_frame`: short of the 14-byte header it is
    /// `Truncated`, past it the payload no longer matches `bit_len`.
    #[test]
    fn every_body_prefix_fails_typed(msg in arb_msg(), receiver in 0u32..64, port in 0u32..8) {
        let p = params();
        let body = encode_out_frame(&OutFrame { receiver, port, msg }, &p).unwrap();
        for cut in 0..body.len() {
            match decode_in_frame(&body[..cut], &p) {
                Err(
                    FrameError::Truncated | FrameError::BadBody(_) | FrameError::Codec(_),
                ) => {}
                Err(e) => panic!("body prefix {cut}: unexpected error {e:?}"),
                Ok(_) => panic!("body prefix {cut} of {} decoded", body.len()),
            }
        }
    }

    /// A context word outside the codec's domain is rejected before
    /// any payload bit is touched.
    #[test]
    fn out_of_domain_context_rejected(msg in arb_msg(), ctx in (MAX_SEQ_LEN as u16 + 1)..u16::MAX) {
        let p = params();
        let mut body =
            encode_out_frame(&OutFrame { receiver: 0, port: 0, msg }, &p).unwrap();
        body[8..10].copy_from_slice(&ctx.to_le_bytes());
        prop_assert_eq!(
            decode_in_frame(&body, &p),
            Err(FrameError::BadBody("context word out of domain"))
        );
    }

    /// Bit-level truncation never panics and never over-reads: decode
    /// on a shortened bit budget either fails typed or yields a
    /// message that honestly fits in the budget it was given.
    #[test]
    fn bit_truncation_never_over_reads(msg in arb_msg()) {
        let p = params();
        let codec = CkCodec::for_msg(&msg);
        let buf = codec.encode_to_buf(&msg, &p).unwrap();
        let total_bits = buf.len_bits();
        for keep in 0..total_bits {
            let bytes = usize::try_from(keep.div_ceil(8)).unwrap();
            let mut r = BitReader::new(&buf.as_bytes()[..bytes], keep);
            if let Ok(short) = codec.decode(&p, &mut r) {
                // A prefix may itself form a complete message; it must
                // then re-encode within the bits it claimed to use.
                let re = codec.encode_to_buf(&short, &p).unwrap();
                prop_assert!(re.len_bits() <= keep, "decode of {keep} bits over-read");
            }
        }
    }

    /// A corrupted kind byte is a typed `BadKind`, whatever follows.
    #[test]
    fn bad_kind_byte_rejected(msg in arb_msg(), bad in 14u8..u8::MAX) {
        let p = params();
        let body = encode_out_frame(&OutFrame { receiver: 0, port: 0, msg }, &p).unwrap();
        let mut wire = frame_bytes(&body);
        wire[0] = bad;
        let deadline = Deadline::after_ms(1_000);
        prop_assert_eq!(
            read_frame(&mut &wire[..], &deadline),
            Err(FrameError::BadKind(bad))
        );
    }
}

/// Deterministic spot check: an empty `Seqs` bundle (context word 0)
/// survives the handshake — the degenerate case the proptest strategy
/// also covers, pinned here so a strategy change cannot lose it.
#[test]
fn empty_bundle_context_zero_roundtrips() {
    let p = params();
    let msg = CkMsg::Seqs { tag: EdgeTag::new(3, 1, 2), seqs: SeqRows::new(4) };
    let body = encode_out_frame(&OutFrame { receiver: 5, port: 1, msg: msg.clone() }, &p).unwrap();
    let (header, decoded) = decode_in_frame(&body, &p).unwrap();
    assert_eq!(header.ctx, 0);
    assert_eq!(decoded, msg);
    // And every prefix still fails typed.
    for cut in 0..body.len() {
        assert!(
            decode_msg_body(&body[..cut]).is_err() || decode_in_frame(&body[..cut], &p).is_err()
        );
    }
}
