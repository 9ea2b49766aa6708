//! Kernel-equivalence suite: the register-blocked matmul family must be
//! **bitwise** equal (`to_bits`) to the pinned seed-kernel references —
//! copies of the exact pre-blocking loop nests — on random shapes, for
//! sparse (zero-skip path) and dense left operands, at several thread
//! counts. This is the safety net that makes the blocked rewrite safe:
//! tiling may change scheduling, never the per-element accumulation
//! sequence.
//!
//! One `#[test]`, because the pool's thread count is process-global.

use lasagne_tensor::Tensor;
use lasagne_testkit::gens::{dense, Dense};
use lasagne_testkit::prop::{check, Config};

const SWEEP: [usize; 3] = [1, 4, 3];

fn tensor_of(d: &Dense) -> Tensor {
    Tensor::from_vec(d.rows, d.cols, d.data.clone()).expect("gen produces consistent shapes")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Zero out a deterministic ~40% of entries so the density probe takes the
/// skip path (the references share the probe, so both sides agree on it).
fn sparsify(t: &Tensor) -> Tensor {
    let (r, c) = t.shape();
    Tensor::from_fn(r, c, |i, j| if (i * 7 + j * 3) % 5 < 2 { t.get(i, j) } else { 0.0 })
}

#[test]
fn blocked_kernels_bitwise_equal_seed_references() {
    let cfg = Config::cases(10);
    check(
        "blocked_vs_seed",
        &cfg,
        // Random shapes straddle tile boundaries: rows/cols run through
        // every residue of the MR=4 / NR=8 micro-tile and the chunk
        // partitioner's uneven trailing chunk.
        &(dense(3..90, 2..70, -1.5, 1.5), 1usize..40),
        |(d, m)| {
            let dense_a = tensor_of(d);
            let sparse_a = sparsify(&dense_a);
            let b = Tensor::from_fn(dense_a.cols(), *m, |i, j| ((i * 29 + j * 11) % 17) as f32 * 0.33 - 2.0);
            let g = Tensor::from_fn(dense_a.rows(), *m, |i, j| ((i * 13 + j * 5) % 9) as f32 * 0.21 - 0.8);
            let bt = b.transpose();
            for a in [&dense_a, &sparse_a] {
                // References are serial; compute them once at 1 thread.
                lasagne_par::set_threads(1);
                let want_mm = bits(&a.matmul_reference(&b));
                let want_tn = bits(&a.matmul_tn_reference(&g));
                let want_nt = bits(&a.matmul_nt_reference(&bt));
                for &t in &SWEEP {
                    lasagne_par::set_threads(t);
                    if bits(&a.matmul(&b)) != want_mm {
                        return Err(format!("matmul != seed at {t} threads"));
                    }
                    if bits(&a.matmul_tn(&g)) != want_tn {
                        return Err(format!("matmul_tn != seed at {t} threads"));
                    }
                    if bits(&a.matmul_nt(&bt)) != want_nt {
                        return Err(format!("matmul_nt != seed at {t} threads"));
                    }
                }
            }
            Ok(())
        },
    );
}
