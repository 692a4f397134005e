//! The overlays' storage, pinned from outside: every graph a protocol reads
//! at benchmark scale hashes to the value it had before the overlays moved
//! to row storage with an implicit `K_n`, and on small random graphs the
//! rows keep the invariants their readers rely on.

use linear_dft::core::SystemConfig;
use linear_dft::overlay::{build, Graph};
use proptest::prelude::*;

/// FNV-1a over the vertex count, then each row's length and neighbours in
/// the order `neighbors` yields them, every number as 8 little-endian bytes.
fn digest(g: &Graph) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for byte in (x as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.num_vertices());
    for v in 0..g.num_vertices() {
        let row = g.neighbors(v);
        eat(row.len());
        row.for_each(&mut eat);
    }
    hash
}

/// One graph's expected shape: edge count and digest.
type Pin = (usize, u64);

/// Per SCV-family phase, its capped degree and pin.
type Phases = [(usize, Pin); 8];

/// `(n, t)`, then the SCV family's phases, then the little overlay's and
/// `H`'s pins, all at seed 7.
const PINS: [(usize, usize, Phases, Pin, Pin); 2] = [
    (
        1200,
        150,
        [
            (20, (11920, 0x0629_46d6_7406_0509)),
            (40, (23624, 0xecbd_a9b1_1eb3_f0a8)),
            (80, (46474, 0x213a_0e2e_094a_f56a)),
            (160, (89970, 0x53e3_8233_7020_1786)),
            (320, (168_416, 0x7442_87a6_9f38_a925)),
            (640, (297_557, 0x4407_49de_b994_b341)),
            (1199, (719_400, 0x987c_6c8a_d42f_02a9)),
            (1199, (719_400, 0x987c_6c8a_d42f_02a9)),
        ],
        (7763, 0xac2e_37ac_7a28_feb4),
        (9541, 0xb008_92fa_288c_eba3),
    ),
    (
        1600,
        200,
        [
            (20, (15907, 0x8f85_cc52_a9b4_fc27)),
            (40, (31593, 0x141d_9693_4251_462f)),
            (80, (62492, 0x48d8_e29d_d500_83ef)),
            (160, (121_960, 0x3d26_7cbe_f1dd_f914)),
            (320, (232_049, 0xc5c0_eb23_dc61_4f37)),
            (640, (421_949, 0x3ef6_f626_1f35_a52e)),
            (1280, (705_243, 0x5d6e_b607_a592_5be5)),
            (1599, (1_279_200, 0x8e9e_a1ab_081c_bf63)),
        ],
        (10410, 0xac1c_66ed_7dfb_9a27),
        (12753, 0x3e17_7cbd_f05d_41b0),
    ),
];

fn pin(g: &Graph) -> Pin {
    (g.num_edges(), digest(g))
}

#[test]
fn benchmark_scale_overlays_match_their_pinned_digests() {
    for (n, t, phases, little, h) in PINS {
        let config = SystemConfig::new(n, t).unwrap().with_seed(7);
        let family = config.scv_family();
        assert_eq!(family.phases(), phases.len(), "n = {n}");
        for (phase, (degree, expected)) in (1..).zip(phases) {
            assert_eq!(family.degree(phase), degree, "n = {n}, phase {phase}");
            assert_eq!(pin(family.graph(phase)), expected, "n = {n}, phase {phase}");
        }
        assert_eq!(pin(&config.little_graph()), little, "n = {n}, little");
        assert_eq!(pin(&config.h_graph()), h, "n = {n}, H");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rows are sorted, duplicate-free, loop-free and symmetric; `has_edge`
    /// agrees with `neighbors`; the edge count is half the degree sum.
    #[test]
    fn rows_are_sorted_symmetric_simple_and_agree_with_has_edge(
        n in 3usize..40,
        d in 1usize..40,
        seed in any::<u64>(),
    ) {
        let g = build::capped_regular(n, d, seed);
        prop_assert_eq!(g.num_vertices(), n);
        let mut degree_sum = 0;
        for v in 0..n {
            let row: Vec<_> = g.neighbors(v).collect();
            prop_assert_eq!(row.len(), g.degree(v));
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", v);
            prop_assert!(!row.contains(&v), "self-loop at {}", v);
            for u in 0..n {
                prop_assert_eq!(g.has_edge(v, u), row.contains(&u));
                prop_assert_eq!(g.has_edge(v, u), g.has_edge(u, v));
            }
            degree_sum += row.len();
        }
        prop_assert_eq!(g.num_edges() * 2, degree_sum);
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    /// The implicit `K_n` equals `from_edges` of every pair, both ways.
    #[test]
    fn complete_equals_every_pair_built_explicitly(n in 0usize..40) {
        let pairs: Vec<_> = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let explicit = Graph::from_edges(n, &pairs).unwrap();
        prop_assert_eq!(&build::complete(n), &explicit);
        prop_assert_eq!(&explicit, &build::complete(n));
        prop_assert_eq!(digest(&build::complete(n)), digest(&explicit));
    }
}
