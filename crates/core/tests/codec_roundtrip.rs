//! `CkMsg` codec round-trip property tests: for every variant —
//! including pooled `Seqs` bundles built through the `SeqPool` cycle —
//! `decode(encode(msg))` is the identity and the encoded length in
//! bits equals `wire_bits` exactly, so the engine's wire accounting is
//! backed by real bytes.

use ck_congest::message::{BitReader, CodecError, WireCodec, WireMessage, WireParams};
use ck_core::msg::{CkCodec, CkMsg, EdgeTag, SeqPool};
use ck_core::seq::{SeqRows, MAX_SEQ_LEN};
use proptest::prelude::*;

/// Wire parameters of the kind `WireParams::for_graph` derives: id and
/// rank widths in the ranges real graphs produce.
fn arb_params() -> impl Strategy<Value = WireParams> {
    (1u32..=24, 1u32..=40).prop_map(|(id_bits, rank_bits)| WireParams {
        n: 1usize << id_bits.min(16),
        m: 1usize << (rank_bits / 2).min(16),
        id_bits,
        rank_bits,
    })
}

/// A duplicate-free sequence of `len` IDs that fit `id_bits`.
fn arb_seq(len: usize, id_bits: u32, salt: u64) -> Vec<u64> {
    let mask = if id_bits >= 64 { u64::MAX } else { (1u64 << id_bits) - 1 };
    let mut ids = Vec::with_capacity(len);
    let mut x = salt;
    while ids.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = (x >> 7) & mask;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// `count` sequences of `len` IDs each, as one set.
fn arb_rows(len: usize, count: usize, id_bits: u32, salt: u64) -> SeqRows {
    let mut rows = SeqRows::new(len);
    for i in 0..count {
        rows.push(&arb_seq(len, id_bits, salt ^ (i as u64) << 17));
    }
    rows
}

fn max_of(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Rank and Abort frames: identity round-trip at exactly wire_bits.
    #[test]
    fn rank_and_abort_roundtrip(params in arb_params(), r in any::<u64>()) {
        let codec = CkCodec::new(1);
        let rank = CkMsg::Rank(r & max_of(params.rank_bits));
        for msg in [&rank, &CkMsg::Abort] {
            let buf = codec.encode_to_buf(msg, &params).unwrap();
            prop_assert_eq!(buf.len_bits(), msg.wire_bits(&params), "{:?}", msg);
            prop_assert_eq!(buf.as_bytes().len() as u64, buf.len_bits().div_ceil(8));
            let back = codec.decode(&params, &mut buf.reader()).unwrap();
            prop_assert_eq!(&back, msg);
        }
    }

    /// Seqs frames — bundles built through the pooled `SeqPool` cycle,
    /// every count 0..=8 and sequence length 1..=MAX_SEQ_LEN: identity
    /// round-trip at exactly wire_bits, including recycled buffers.
    #[test]
    fn pooled_seqs_roundtrip(
        params in arb_params(),
        seq_len in 1usize..=MAX_SEQ_LEN,
        count in 0usize..=8,
        rank in any::<u64>(),
        salt in any::<u64>(),
    ) {
        // Sequence lengths are bounded by the ID space: `seq_len`
        // distinct IDs need at least that many representable values.
        let id_space = max_of(params.id_bits);
        prop_assume!(id_space >= seq_len as u64 + 2);
        let codec = CkCodec::new(seq_len);
        let lo = salt % id_space.min(1 << 20);
        let hi = lo + 1 + (salt >> 40) % 7;
        prop_assume!(hi <= id_space);
        let tag = EdgeTag::new(rank & max_of(params.rank_bits), lo, hi);

        let mut pool = SeqPool::new();
        // Two pool generations: the second bundle reuses the first's
        // returned backing, proving recycled buffers encode identically.
        for generation in 0..2 {
            let seqs = pool.copy_of(&arb_rows(seq_len, count, params.id_bits, salt));
            let msg = CkMsg::Seqs { tag, seqs };
            let buf = codec.encode_to_buf(&msg, &params).unwrap();
            prop_assert_eq!(
                buf.len_bits(),
                msg.wire_bits(&params),
                "generation {} count {}",
                generation,
                count
            );
            let back = codec.decode(&params, &mut buf.reader()).unwrap();
            prop_assert_eq!(&back, &msg);
            // Return the pooled backing, as the tester's broadcast-slot
            // eviction cycle does (the decoded copy owns a fresh Vec).
            match msg {
                CkMsg::Seqs { seqs, .. } => pool.put(seqs),
                _ => unreachable!(),
            }
        }
        prop_assert_eq!(pool.outstanding(), 0, "codec must not leak pooled buffers");
    }

    /// Truncating any frame by one or more bits is a decode error,
    /// never a wrong message.
    #[test]
    fn truncated_frames_are_rejected(
        params in arb_params(),
        seq_len in 1usize..=4,
        count in 1usize..=4,
        cut in 1u64..8,
    ) {
        prop_assume!(max_of(params.id_bits) >= seq_len as u64 + 2);
        let codec = CkCodec::new(seq_len);
        let mut seqs = SeqRows::new(seq_len);
        for i in 0..count {
            seqs.push(&arb_seq(seq_len, params.id_bits, 99 + i as u64));
        }
        let msg = CkMsg::Seqs { tag: EdgeTag::new(1, 0, 1), seqs };
        let buf = codec.encode_to_buf(&msg, &params).unwrap();
        prop_assume!(cut < buf.len_bits());
        let mut short = BitReader::new(buf.as_bytes(), buf.len_bits() - cut);
        match codec.decode(&params, &mut short) {
            Err(_) => {}
            // A truncated Seqs frame whose length still matches some
            // smaller count decodes to a *different* message — that is
            // a framing-layer concern; the codec must never return the
            // original under a wrong frame.
            Ok(back) => prop_assert_ne!(back, msg),
        }
    }
}

/// The protocol shapes the tester actually ships: seed bundles (one
/// single-ID sequence) and final-round bundles at the Lemma-3 bound,
/// through graph-derived parameters.
#[test]
fn protocol_shaped_frames_roundtrip() {
    use ck_graphgen::planted::eps_far_instance;
    let inst = eps_far_instance(40, 5, 0.1, 1);
    let params = WireParams::for_graph(&inst.graph);
    // Seed round: every node ships `(myid)` tagged with its served edge.
    let seed_codec = CkCodec::new(1);
    for v in 0..inst.graph.n().min(8) {
        let id = inst.graph.ids()[v];
        let other = inst.graph.ids()[(v + 1) % inst.graph.n()];
        let tag = EdgeTag::new(42 + v as u64, id, other);
        let msg = CkMsg::Seqs { tag, seqs: SeqRows::from_rows(1, &[&[id]]) };
        let buf = seed_codec.encode_to_buf(&msg, &params).unwrap();
        assert_eq!(buf.len_bits(), msg.wire_bits(&params));
        assert_eq!(seed_codec.decode(&params, &mut buf.reader()).unwrap(), msg);
    }
    // A paper-round-2 bundle at k = 5 (length-2 sequences).
    let codec = CkCodec::new(2);
    let tag = EdgeTag::new(7, 0, 3);
    let msg = CkMsg::Seqs { tag, seqs: SeqRows::from_rows(2, &[&[0, 9], &[3, 11], &[5, 2]]) };
    let buf = codec.encode_to_buf(&msg, &params).unwrap();
    assert_eq!(buf.len_bits(), msg.wire_bits(&params));
    assert_eq!(codec.decode(&params, &mut buf.reader()).unwrap(), msg);
    // Wrong-context decode (round 3's codec on round 2's frame) errors.
    assert!(matches!(
        CkCodec::new(3).decode(&params, &mut buf.reader()),
        Err(CodecError::Invalid(_))
    ));
}
