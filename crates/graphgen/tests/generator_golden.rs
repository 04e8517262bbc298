//! Golden digests of the seeded generators. Each case pins one
//! (generator, parameters, seed) point by two FNV-1a-64 digests: one of
//! the canonical edge list (with `n` and `m`), one of the identity
//! table. The table was recorded once; a change to a generator's
//! internals — the collections it samples into, the order it visits
//! candidates in — must leave every graph it builds bit-for-bit the
//! same, in every process.
//!
//! `behrend_ck_instance` is pinned at widths whose stride set has a
//! single largest norm bucket (`behrend_ap_free_set` of 100, 200 and
//! 2,000), so the rows do not depend on how that function breaks ties.

use ck_congest::graph::Graph;
use ck_graphgen::behrend::{behrend_ck_instance, layered_ck};
use ck_graphgen::mutate::remove_edges;
use ck_graphgen::random::{connected_gnm, gnm, random_regular, random_tree, randomize_ids};

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(edge digest, id digest)` of `g`.
fn digest(g: &Graph) -> (u64, u64) {
    let mut edges = Fnv::new();
    edges.u64(g.n() as u64);
    edges.u64(g.m() as u64);
    for e in g.edges() {
        edges.u64(u64::from(e.a));
        edges.u64(u64::from(e.b));
    }
    let mut ids = Fnv::new();
    for &id in g.ids() {
        ids.u64(id);
    }
    (edges.0, ids.0)
}

/// Every third edge index of an `m`-edge graph.
fn every_third(m: u32) -> Vec<u32> {
    (0..m).step_by(3).collect()
}

/// The pinned cases, in [`GOLDEN`] order.
fn cases() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnm(60, 200, 1)", gnm(60, 200, 1)),
        ("gnm(500, 2000, 7)", gnm(500, 2_000, 7)),
        ("connected_gnm(60, 120, 2)", connected_gnm(60, 120, 2)),
        ("connected_gnm(400, 1200, 9)", connected_gnm(400, 1_200, 9)),
        ("random_regular(40, 3, 3)", random_regular(40, 3, 3)),
        ("random_regular(300, 4, 11)", random_regular(300, 4, 11)),
        ("randomize_ids(random_tree(50, 1), 5)", randomize_ids(&random_tree(50, 1), 5)),
        ("randomize_ids(gnm(400, 1000, 4), 13)", randomize_ids(&gnm(400, 1_000, 4), 13)),
        (
            "remove_edges(randomize_ids(gnm(100, 300, 6), 8), every third)",
            remove_edges(&randomize_ids(&gnm(100, 300, 6), 8), &every_third(300)),
        ),
        (
            "remove_edges(connected_gnm(200, 500, 10), repeats)",
            remove_edges(&connected_gnm(200, 500, 10), &[499, 0, 17, 250, 5, 250, 17]),
        ),
        ("layered_ck(5, 13, [1, 2, 5])", layered_ck(5, 13, &[1, 2, 5]).graph),
        ("layered_ck(5, 4000, [4, 10, 12, 28])", layered_ck(5, 4_000, &[4, 10, 12, 28]).graph),
        ("behrend_ck_instance(5, 1000)", behrend_ck_instance(5, 1_000).graph),
        ("behrend_ck_instance(5, 2000)", behrend_ck_instance(5, 2_000).graph),
        ("behrend_ck_instance(3, 12000)", behrend_ck_instance(3, 12_000).graph),
    ]
}

/// `(edge digest, id digest)` per case of [`cases`].
const GOLDEN: [(u64, u64); 15] = [
    (0x0908_959b_cadd_64bf, 0xd823_ee26_9a81_05e5),
    (0x2cb5_931f_dd11_5d5e, 0xbc7d_04a0_750f_0b79),
    (0x0b1c_59ac_0f29_3b3f, 0xd823_ee26_9a81_05e5),
    (0x3de1_cedf_76c9_1e1d, 0xe9b3_d29a_cd6a_7eb5),
    (0x5825_2b6d_b2b5_b7d1, 0xaa9a_93dd_9cfd_e6a5),
    (0x0e22_1a85_97cd_4450, 0x9f82_0c45_41b9_27b1),
    (0x2591_1486_0570_f719, 0x2253_e379_7494_080e),
    (0xc593_a54e_1e2d_bcf7, 0xbc9f_4e27_bcbc_19b6),
    (0x81c9_872a_5b62_bb63, 0x81c8_5553_c56d_e991),
    (0x4089_af84_b5a6_3d5b, 0xa0cf_c4c2_1fcf_ff25),
    (0xc409_fb53_ad97_2207, 0xf8a5_7f95_367b_d005),
    (0xb17b_1ed4_1c1f_65fa, 0x3329_1c75_e5db_baa5),
    (0x624b_9f93_65cf_eaf3, 0xe6f7_be3b_885a_b295),
    (0xbfd8_4c18_f6c6_72d6, 0x6b25_50cd_d2d2_2645),
    (0xc908_4525_8dec_9ed7, 0x78b4_23a7_2092_2c65),
];

#[test]
fn generators_reproduce_the_table() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let got: Vec<(u64, u64)> = cases.iter().map(|(_, g)| digest(g)).collect();
    for ((what, _), (&want, &have)) in cases.iter().zip(GOLDEN.iter().zip(&got)) {
        assert_eq!(have, want, "{what} moved; whole table: {got:#018x?}");
    }
}
