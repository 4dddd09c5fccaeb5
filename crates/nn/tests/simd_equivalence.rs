//! Property tests pinning the SIMD matmul microkernel **bit-identical** to
//! the retained scalar reference ([`Tensor::matmul_reference`]) over
//! randomized shapes — including column remainders (the 16-wide, 8-wide and
//! scalar passes of the 4-row tile) and row-quad remainders (`m % 4 != 0`)
//! — at 1, 2, and 4 `semcom-par` workers, plus one exhaustive sweep over
//! every `n mod 16` × `m mod 4`.
//!
//! Every assertion here holds at *any* worker count (that is the contract),
//! so concurrently-running tests racing on the global worker override cannot
//! cause flakes — they only vary which counts get exercised.

use proptest::prelude::*;
use semcom_nn::rng::seeded_rng;
use semcom_nn::{Tensor, PAR_WORK};

// Dimension bounds for the random shapes; the raw value pools are sized for
// the worst case so each matrix is carved from a prefix.
const MAX_M: usize = 24;
const MAX_K: usize = 40;
const MAX_N: usize = 56;

fn take(raw: &[f32], rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, raw[..rows * cols].to_vec()).expect("pool sized for max dims")
}

fn randn_like(rows: usize, cols: usize, seed: u64) -> Tensor {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
    Tensor::from_vec(rows, cols, data).expect("length matches")
}

proptest! {
    #[test]
    fn matmul_is_bit_identical_to_scalar_reference(
        dims in (1usize..=MAX_M, 1usize..=MAX_K, 1usize..=MAX_N),
        raw_a in prop_vec(-100.0f32..100.0, MAX_M * MAX_K),
        raw_b in prop_vec(-100.0f32..100.0, MAX_K * MAX_N),
    ) {
        let (m, k, n) = dims;
        let a = take(&raw_a, m, k);
        let b = take(&raw_b, k, n);
        let want = a.matmul_reference(&b);
        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let got = a.matmul(&b);
            let mut into = Tensor::zeros(m, n);
            a.matmul_into(&b, &mut into);
            semcom_par::reset_workers();
            prop_assert_eq!(got.as_slice(), want.as_slice(), "matmul at {} workers", workers);
            prop_assert_eq!(into.as_slice(), want.as_slice(), "matmul_into at {} workers", workers);
        }
    }

    #[test]
    fn transa_is_bit_identical_to_transpose_then_reference(
        dims in (1usize..=MAX_M, 1usize..=MAX_K, 1usize..=MAX_N),
        raw_a in prop_vec(-100.0f32..100.0, MAX_K * MAX_M),
        raw_b in prop_vec(-100.0f32..100.0, MAX_K * MAX_N),
    ) {
        // matmul_transa computes aᵀ·b with a given as (k x m).
        let (m, k, n) = dims;
        let a = take(&raw_a, k, m);
        let b = take(&raw_b, k, n);
        let want = a.transpose().matmul_reference(&b);
        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let got = a.matmul_transa(&b);
            semcom_par::reset_workers();
            prop_assert_eq!(got.as_slice(), want.as_slice(), "transa at {} workers", workers);
        }
    }

    #[test]
    fn transb_is_bit_identical_to_transpose_then_reference(
        dims in (1usize..=MAX_M, 1usize..=MAX_K, 1usize..=MAX_N),
        raw_a in prop_vec(-100.0f32..100.0, MAX_M * MAX_K),
        raw_b in prop_vec(-100.0f32..100.0, MAX_N * MAX_K),
    ) {
        // matmul_transb computes a·bᵀ with b given as (n x k).
        let (m, k, n) = dims;
        let a = take(&raw_a, m, k);
        let b = take(&raw_b, n, k);
        let want = a.matmul_reference(&b.transpose());
        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let got = a.matmul_transb(&b);
            semcom_par::reset_workers();
            prop_assert_eq!(got.as_slice(), want.as_slice(), "transb at {} workers", workers);
        }
    }
}

/// Every column residue of the 4-row tile — `n mod 16` ∈ 0..16 below and
/// above one full 16-wide group, so each of the 16-wide, 8-wide and scalar
/// passes runs alone and after the others — against every row residue
/// `m mod 4`, with `k` crossing the kernel's 64-row `b` block.
#[test]
fn every_column_and_row_residue_is_bit_identical_to_scalar_reference() {
    let k = 70;
    for n in 1..=48 {
        let b = randn_like(k, n, 100 + n as u64);
        for m in 4..=11 {
            let a = randn_like(m, k, 200 + m as u64);
            let want = a.matmul_reference(&b);
            let bt = b.transpose();
            let at = a.transpose();
            for workers in [1usize, 2, 4] {
                semcom_par::set_workers(workers);
                let got = a.matmul(&b);
                let transa = at.matmul_transa(&b);
                let transb = a.matmul_transb(&bt);
                semcom_par::reset_workers();
                let at_shape = format!("{m}x{k}x{n} at {workers} workers");
                assert_eq!(got.as_slice(), want.as_slice(), "matmul {at_shape}");
                assert_eq!(transa.as_slice(), want.as_slice(), "transa {at_shape}");
                assert_eq!(transb.as_slice(), want.as_slice(), "transb {at_shape}");
            }
        }
    }
}

/// The proptest shapes stay under the banding threshold; this one clears
/// [`PAR_WORK`] so multi-band execution (several workers writing disjoint
/// output row bands) is exercised against the serial reference too.
#[test]
fn banded_matmul_is_bit_identical_to_scalar_reference() {
    // n = 4·16 + 1 and n = 16 + 8 + 3: every column pass in the banded
    // regime too; 2050 rows leave each worker's band a row remainder.
    for (m, k, n) in [(2048, 64, 65), (2050, 96, 27)] {
        assert!(2 * m * k * n >= PAR_WORK, "shape must engage row bands");
        let a = randn_like(m, k, 7);
        let b = randn_like(k, n, 8);
        let want = a.matmul_reference(&b);
        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let got = a.matmul(&b);
            semcom_par::reset_workers();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "banded {m}x{k}x{n} at {workers} workers"
            );
        }
    }
}
