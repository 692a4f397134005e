//! Small kernels over the leaf layers (`dft_overlay`, `dft_auth`,
//! `ExtantSet`, the shard wire codec), run at the workload's own `n`, `t`
//! and seed.  They tell a traced run how much of a phase is the leaf layer
//! itself: an `ExtantSet` layout change shows in `extant.*` and
//! `wire.*` before it shows in `core.receive_s` or `transport.bytes`.

use std::hint::black_box;
use std::time::Instant;

use dft_auth::{KeyDirectory, SignedValue};
use dft_core::{ExtantSet, SystemConfig};
use dft_overlay::InquiryFamily;
use dft_sim::shard::{from_bytes, to_bytes, Wire};

use crate::stats::median;

/// Repeats `setup` (untimed) then `body` (timed) until `budget_s` has
/// passed, at least three times, and returns the median seconds of `body`.
fn median_batch_s<S>(budget_s: f64, mut setup: impl FnMut() -> S, mut body: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let state = setup();
        let call = Instant::now();
        body(state);
        samples.push(call.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn median_call_s(budget_s: f64, mut body: impl FnMut()) -> f64 {
    median_batch_s(budget_s, || (), |()| body())
}

pub struct OverlayKernel {
    /// Seconds to build the overlays a few-crashes execution needs: the
    /// `Spread-Common-Value` inquiry family plus the little-node graph.
    pub family_build_s: f64,
    /// Edges of those overlays.
    pub edges: u64,
}

pub fn overlay(n: usize, t: usize, seed: u64) -> OverlayKernel {
    let config = SystemConfig::new(n, t)
        .expect("workload sizes are valid")
        .with_seed(seed);
    let mut edges = 0;
    let family_build_s = median_call_s(0.5, || {
        let family = InquiryFamily::spread_common_value(n, t, seed);
        let little = config.little_graph();
        edges = (1..=family.phases())
            .map(|phase| family.graph(phase).num_edges() as u64)
            .sum::<u64>()
            + little.num_edges() as u64;
        black_box((&family, &little));
    });
    OverlayKernel {
        family_build_s,
        edges,
    }
}

pub struct ExtantKernel {
    /// Merging a full set into an empty one (every slot copied).
    pub merge_dense_ns: f64,
    /// Merging a set with `n / 64` pairs into a half-full one (the scan
    /// dominates, few slots change).
    pub merge_sparse_ns: f64,
    /// Cloning a full set (what every `Extant` broadcast does once).
    pub clone_ns: f64,
}

pub fn extant(n: usize) -> ExtantKernel {
    let mut full = ExtantSet::nil(n);
    let mut half = ExtantSet::nil(n);
    let mut sparse = ExtantSet::nil(n);
    for i in 0..n {
        full.update(i, 1_000 + i as u64);
        if i % 2 == 0 {
            half.update(i, 1_000 + i as u64);
        }
        if i % 64 == 1 {
            sparse.update(i, 1_000 + i as u64);
        }
    }
    // Each sample is a batch, so that one clock read pair brackets at least
    // a few microseconds of work; the destinations are cloned outside it.
    const BATCH: usize = 64;
    let merge_ns = |dst: &ExtantSet, src: &ExtantSet| {
        median_batch_s(
            0.1,
            || vec![dst.clone(); BATCH],
            |mut dsts| {
                for dst in &mut dsts {
                    black_box(dst.merge(black_box(src)));
                }
            },
        ) * 1e9
            / BATCH as f64
    };
    ExtantKernel {
        merge_dense_ns: merge_ns(&ExtantSet::nil(n), &full),
        merge_sparse_ns: merge_ns(&half, &sparse),
        clone_ns: median_call_s(0.1, || {
            for _ in 0..BATCH {
                black_box(black_box(&full).clone());
            }
        }) * 1e9
            / BATCH as f64,
    }
}

pub struct AuthKernel {
    pub keygen_s: f64,
    pub sign_ns: f64,
    /// Verifying one Dolev–Strong chain of `t + 1` signatures.
    pub verify_chain_ns: f64,
}

pub fn auth(n: usize, t: usize, seed: u64) -> AuthKernel {
    let keygen_s = median_call_s(0.05, || {
        black_box(KeyDirectory::generate(n, seed));
    });
    let directory = KeyDirectory::generate(n, seed);
    let chain_len = (t + 1).min(n);
    let mut chain = SignedValue::originate(&directory.signer(0), seed);
    for signer in 1..chain_len {
        chain.countersign(&directory.signer(signer));
    }
    assert!(chain.verify_chain_with_length(&directory, chain_len));
    const BATCH: usize = 256;
    let signer = directory.signer(n - 1);
    let sign_ns = median_call_s(0.05, || {
        for digest in 0..BATCH as u64 {
            black_box(signer.sign_digest(black_box(digest)));
        }
    }) * 1e9
        / BATCH as f64;
    let verify_chain_ns = median_call_s(0.1, || {
        for _ in 0..BATCH {
            black_box(black_box(&chain).verify_chain(&directory));
        }
    }) * 1e9
        / BATCH as f64;
    AuthKernel {
        keygen_s,
        sign_ns,
        verify_chain_ns,
    }
}

#[derive(Default)]
pub struct WireKernel {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub bytes_per_msg: f64,
}

/// Encodes and decodes messages captured from the workload's own traffic,
/// one at a time as the shard frames do (a shared `Arc` payload is encoded
/// once per copy).
pub fn wire<M: Wire>(msgs: &[M]) -> WireKernel {
    if msgs.is_empty() {
        return WireKernel::default();
    }
    let encoded: Vec<Vec<u8>> = msgs.iter().map(to_bytes).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let encode_s = median_call_s(0.2, || {
        for msg in msgs {
            black_box(to_bytes(black_box(msg)));
        }
    });
    let decode_s = median_call_s(0.2, || {
        for buf in &encoded {
            black_box(from_bytes::<M>(black_box(buf)).expect("round-trips"));
        }
    });
    let count = msgs.len() as f64;
    WireKernel {
        encode_ns_per_msg: encode_s * 1e9 / count,
        decode_ns_per_msg: decode_s * 1e9 / count,
        bytes_per_msg: bytes as f64 / count,
    }
}
