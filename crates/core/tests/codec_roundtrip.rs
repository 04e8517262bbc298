//! Codec round-trip property tests.
//!
//! `CkMsg`: for every variant — including `Seqs` bundles in a recycled
//! backing — `decode(encode(msg))` is the identity
//! and the encoded length in bits equals `wire_bits` exactly, so the
//! engine's wire accounting is backed by real bytes.
//!
//! The graph section (`Graph::write_bytes` / `read_bytes`): on random
//! trees, `G(n, m)` with isolated nodes, `n ≤ 1` and explicit ID tables,
//! a read-back graph equals the original on every public view, as does
//! the edge-list text round trip; every built graph's rows ascend and
//! its reverse ports lead back; every strict prefix of a section and
//! every malformed section fails typed. Graphs stay at `n ≤ 40` so the
//! suite fits Miri's budget.

use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};
use ck_congest::message::{BitReader, CodecError, WireCodec, WireMessage, WireParams};
use ck_congest::net::frame::{ByteReader, ByteWriter, FrameError};
use ck_core::msg::{CkCodec, CkMsg, EdgeTag};
use ck_core::seq::{SeqRows, MAX_SEQ_LEN};
use ck_graphgen::random::{gnm, random_tree};
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

    /// Seqs frames — every count 0..=8 and sequence length
    /// 1..=MAX_SEQ_LEN: identity round-trip at exactly wire_bits,
    /// including a bundle in a recycled backing.
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

        // Two generations: the second bundle is copied into the first's
        // backing, as the tester refills the payload a broadcast evicts,
        // proving recycled buffers encode identically.
        let mut spare = SeqRows::default();
        for generation in 0..2 {
            let mut seqs = std::mem::take(&mut spare);
            seqs.clone_from(&arb_rows(seq_len, count, params.id_bits, salt));
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
            // Keep the backing for the next generation (the decoded copy
            // owns a fresh Vec).
            match msg {
                CkMsg::Seqs { seqs, .. } => spare = seqs,
                _ => unreachable!(),
            }
        }
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

/// Distinct IDs for `n ≤ 64` nodes that fit `width ≥ 6` bits: an odd
/// multiplier makes `i ↦ i·mul + add` a bijection modulo `2^width`.
fn id_table(n: usize, salt: u64, width: u32) -> Vec<u64> {
    let mul = salt | 1;
    (0..n as u64).map(|i| i.wrapping_mul(mul).wrapping_add(salt >> 7) & max_of(width)).collect()
}

/// A graph of a family the section must carry: a random tree or a
/// `G(n, m)` that leaves nodes isolated, `n = 0` and `n = 1` among
/// them, with identity IDs or, through `Graph::with_ids`, a random
/// table of 6- to 64-bit IDs.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (any::<bool>(), 0usize..=40, 0usize..=60, any::<u64>(), 0u32..=64).prop_map(
        |(tree, n, m, seed, id_width)| {
            let g = if n < 2 {
                GraphBuilder::new(n).build().unwrap()
            } else if tree {
                random_tree(n, seed)
            } else {
                gnm(n, m.min(n * (n - 1) / 2), seed)
            };
            if id_width < 6 {
                g
            } else {
                g.with_ids(id_table(n, seed, id_width)).unwrap()
            }
        },
    )
}

fn section(g: &Graph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    g.write_bytes(&mut w);
    w.0
}

/// Reads a whole section, rejecting trailing bytes.
fn read_section(bytes: &[u8]) -> Result<Graph, FrameError> {
    let mut r = ByteReader::new(bytes);
    let g = Graph::read_bytes(&mut r)?;
    r.finish()?;
    Ok(g)
}

/// `h` equals `g` on every public view of the topology and the IDs.
fn same_views(g: &Graph, h: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.n(), h.n());
    prop_assert_eq!(g.edges(), h.edges());
    prop_assert_eq!(g.ids(), h.ids());
    for v in 0..g.n() as NodeIndex {
        prop_assert_eq!(g.neighbors(v), h.neighbors(v), "node {}", v);
        prop_assert_eq!(g.neighbor_ids(v), h.neighbor_ids(v), "node {}", v);
        for p in 0..g.degree(v) as u32 {
            prop_assert_eq!(g.reverse_port(v, p), h.reverse_port(v, p));
            prop_assert_eq!(g.reverse_edge(v, p), h.reverse_edge(v, p));
            prop_assert_eq!(g.edge_index_at(v, p), h.edge_index_at(v, p));
        }
    }
    for &id in g.ids() {
        prop_assert_eq!(g.index_of(id), h.index_of(id));
    }
    Ok(())
}

/// Every row is strictly ascending, and every reverse port leads back.
fn csr_invariants(g: &Graph) -> Result<(), TestCaseError> {
    for v in 0..g.n() as NodeIndex {
        prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]), "row {} ascends", v);
        for p in 0..g.degree(v) as u32 {
            prop_assert_eq!(g.neighbor_at(g.neighbor_at(v, p), g.reverse_port(v, p)), v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The section and the edge-list text both give back the graph,
    /// and every built graph keeps the CSR invariants.
    #[test]
    fn graph_section_roundtrips_every_view(g in arb_graph()) {
        let bytes = section(&g);
        let back = read_section(&bytes).unwrap();
        same_views(&g, &back)?;
        same_views(&g, &Graph::from_edge_list(&g.to_edge_list()).unwrap())?;
        csr_invariants(&g)?;
        csr_invariants(&back)?;
    }

    /// Every strict prefix of a section fails typed.
    #[test]
    fn every_graph_section_prefix_fails_typed(g in arb_graph()) {
        let bytes = section(&g);
        for cut in 0..bytes.len() {
            let res = Graph::read_bytes(&mut ByteReader::new(&bytes[..cut]));
            prop_assert!(
                matches!(res, Err(FrameError::Truncated | FrameError::BadBody(_))),
                "prefix {} of {}", cut, bytes.len()
            );
        }
    }
}

/// Varints in order, as a section's raw bytes.
fn varints(values: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for &v in values {
        w.varint(v);
    }
    w.0
}

#[test]
fn malformed_graph_sections_are_bad_bodies() {
    // The path 0 - 1 - 2: n, m, rows (count, gaps), identity flag.
    let path = varints(&[3, 2, 1, 0, 1, 0, 0, 0]);
    assert_eq!(section(&GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build().unwrap()), path);
    assert!(read_section(&path).is_ok());
    // Four trailing bytes, as a Submit's later fields would follow.
    let with_tail = |mut b: Vec<u8>| {
        b.extend_from_slice(&[9; 4]);
        b
    };
    let mut cases: Vec<(&str, Vec<u8>)> = vec![
        ("gap that overflows", varints(&[2, 1, 1, u64::MAX, 0, 0])),
        ("neighbour at n", varints(&[3, 1, 1, 2, 0, 0, 0])),
        ("more edges than m", varints(&[3, 1, 1, 0, 1, 0, 0, 0])),
        ("fewer edges than m", with_tail(varints(&[3, 3, 1, 0, 1, 0, 0, 0]))),
        ("flag 2", varints(&[3, 2, 1, 0, 1, 0, 0, 2])),
        ("duplicate explicit IDs", varints(&[2, 1, 1, 0, 0, 1, 5, 5])),
        ("n past u32", with_tail(varints(&[1 << 32, 0]))),
        ("n past the bytes", varints(&[10_000_000, 0])),
    ];
    // n = 3 spelled in two bytes, and in eleven.
    let mut over_long = vec![0x83, 0x00];
    over_long.extend_from_slice(&path[1..]);
    cases.push(("over-long varint", over_long));
    let mut eleven = vec![0x83];
    eleven.extend_from_slice(&[0x80; 9]);
    eleven.push(0x00);
    eleven.extend_from_slice(&path[1..]);
    cases.push(("11-byte varint", eleven));
    for (what, bytes) in cases {
        let mut r = ByteReader::new(&bytes);
        match Graph::read_bytes(&mut r) {
            Err(FrameError::BadBody(_)) => {}
            other => panic!("{what}: {other:?}"),
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
