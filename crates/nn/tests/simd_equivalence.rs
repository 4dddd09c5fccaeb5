//! Property tests pinning the SIMD matmul microkernel **bit-identical** to
//! the retained scalar reference ([`Tensor::matmul_reference`]) over
//! randomized shapes — including column remainders (the 16-wide, 8-wide and
//! scalar passes of a row tile) and row-quad remainders (`m % 4 != 0`, one
//! 3-, 2- or 1-row tile) — at 1, 2, and 4 `semcom-par` workers, plus one
//! exhaustive sweep over every `n mod 16` × tile height and the wide
//! decoder's shape at message-sized row counts.
//!
//! The last section pins the int8 kernel ([`semcom_nn::quant`]), which does
//! its integer arithmetic on `f32` lanes, to a naive `i32` triple loop over
//! the same codes: exact equality at every row and column tile remainder,
//! across the kernel's 1024-long `k` block, and with rows and columns
//! saturated at −128, where a block sum reaches the 2²⁴ that `f32` can
//! still count to. `scripts/ci.sh` runs this file a second time without
//! the FMA target feature.
//!
//! Every assertion here holds at *any* worker count (that is the contract),
//! so concurrently-running tests racing on the global worker override cannot
//! cause flakes — they only vary which counts get exercised.

use proptest::prelude::*;
use semcom_nn::quant::{
    quantize_row, QuantScratch, QuantizedLinear, QuantizedTable, RowQuantParams,
};
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

/// `matmul`, `matmul_transa` and `matmul_transb` of `a (m×k) · b (k×n)`
/// against the scalar reference at 1, 2 and 4 workers.
fn assert_all_forms_match_reference(a: &Tensor, b: &Tensor) {
    let want = a.matmul_reference(b);
    let (at, bt) = (a.transpose(), b.transpose());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for workers in [1usize, 2, 4] {
        semcom_par::set_workers(workers);
        let got = a.matmul(b);
        let transa = at.matmul_transa(b);
        let transb = a.matmul_transb(&bt);
        semcom_par::reset_workers();
        let at_shape = format!("{m}x{k}x{n} at {workers} workers");
        assert_eq!(got.as_slice(), want.as_slice(), "matmul {at_shape}");
        assert_eq!(transa.as_slice(), want.as_slice(), "transa {at_shape}");
        assert_eq!(transb.as_slice(), want.as_slice(), "transb {at_shape}");
    }
}

/// Every column residue of a row tile — `n mod 16` ∈ 0..16 below and
/// above one full 16-wide group (and, for the one-row tile, its 32-wide
/// group), so each of the 32-wide, 16-wide, 8-wide and scalar passes runs
/// alone and after the others — against every tile height: `m` = 1–3 is
/// a 3-, 2- or 1-row tile with no full quad ahead of it, 4–11 every
/// `m mod 4` behind one and two quads; `k` crosses the kernel's 64-row
/// `b` block.
#[test]
fn every_column_and_row_residue_is_bit_identical_to_scalar_reference() {
    let k = 70;
    for n in 1..=48 {
        let b = randn_like(k, n, 100 + n as u64);
        for m in 1..=11 {
            assert_all_forms_match_reference(&randn_like(m, k, 200 + m as u64), &b);
        }
    }
}

/// The wide decoder's output layer (`hidden` 1024 → 176 concepts) at
/// message-sized row counts: sixteen `k` blocks and eleven 16-wide column
/// groups through each remainder tile, alone (1, 2, 3) and behind one to
/// three quads (5, 10, 13).
#[test]
fn wide_decoder_shape_is_bit_identical_to_scalar_reference() {
    let (k, n) = (1024, 176);
    let b = randn_like(k, n, 300);
    for m in [1, 2, 3, 5, 10, 13] {
        assert_all_forms_match_reference(&randn_like(m, k, 400 + m as u64), &b);
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

// ---------------- int8 kernel vs. a naive i32 product ----------------

/// `k` values around the kernel's 1024-long block: below, on, just past it
/// and two and a half blocks.
const INT8_KS: [usize; 6] = [1, 13, 1023, 1024, 1025, 2500];
/// Widths that run each column tile (32, 16, 8) alone and after the
/// others, with and without a zero-padded remainder tile of 1, 4 or 7
/// real columns; 57 = 32 + 16 + 8 + 1.
const INT8_NS: [usize; 10] = [1, 7, 8, 9, 16, 28, 31, 32, 57, 65];
/// Row counts 1–9: the 4-row tile once and twice, and each of the 3-, 2-
/// and 1-row remainder tiles alone and after it.
const INT8_ROWS: usize = 9;
/// Values that fill a row or column of their own kind with the codes −128
/// and 127: the first reaches the largest block sum there is, the second
/// has odd products, which a sum past 2²⁴ would round.
const SATURATED: [f32; 2] = [-1.0, 1.0];

/// Per-row codes and parameters of a `[rows, k]` matrix.
fn quantize_rows(x: &Tensor) -> (Vec<i8>, Vec<RowQuantParams>) {
    let mut codes = vec![0i8; x.rows() * x.cols()];
    let params = codes
        .chunks_exact_mut(x.cols())
        .enumerate()
        .map(|(r, q)| quantize_row(x.row(r), q))
        .collect();
    (codes, params)
}

/// What a quantized layer over `weight`/`bias` must return for activation
/// codes `qx` with parameters `xq`: weight codes per output channel from
/// the public quantizer, a naive triple-loop `i32` product, then the affine
/// correction of the `quant` module docs.
fn int8_oracle(weight: &Tensor, bias: &[f32], qx: &[i8], xq: &[RowQuantParams]) -> Vec<f32> {
    let (k, n) = weight.shape();
    let (wq, wp) = quantize_rows(&weight.transpose());
    let mut out = Vec::with_capacity(xq.len() * n);
    for (qrow, px) in qx.chunks_exact(k).zip(xq) {
        for (qcol, (pw, b)) in wq.chunks_exact(k).zip(wp.iter().zip(bias)) {
            let dot: i32 = qrow
                .iter()
                .zip(qcol)
                .map(|(&a, &w)| a as i32 * w as i32)
                .sum();
            let corr = dot - pw.zero_point * px.qsum - px.zero_point * pw.qsum
                + k as i32 * px.zero_point * pw.zero_point;
            out.push(px.scale * pw.scale * corr as f32 + b);
        }
    }
    out
}

/// Seeded `[rows, cols]` values in ±0.5 whose first and last row, or
/// column, hold the two [`SATURATED`] values.
fn int8_matrix(rows: usize, cols: usize, seed: u64, saturate_rows: bool) -> Tensor {
    let mut t = randn_like(rows, cols, seed);
    let (last_r, last_c) = (rows - 1, cols - 1);
    for r in 0..rows {
        for c in 0..cols {
            let (at, last) = if saturate_rows {
                (r, last_r)
            } else {
                (c, last_c)
            };
            if at == 0 || at == last {
                t.set(r, c, SATURATED[(at != 0) as usize]);
            }
        }
    }
    t
}

#[test]
fn saturated_rows_and_columns_reach_the_block_sum_bound() {
    let mut q = vec![0i8; 1024];
    for (v, code) in SATURATED.into_iter().zip([-128i8, 127]) {
        let p = quantize_row(&[v; 1024], &mut q);
        assert!(q.iter().all(|&c| c == code));
        assert_eq!(p.qsum, code as i32 * 1024);
    }
    // (−128)² · 1024 = 2²⁴, the end of the integers f32 can count.
    assert_eq!(128 * 128 * 1024, 1 << 24);
}

#[test]
fn int8_forward_equals_the_naive_integer_product() {
    let mut scratch = QuantScratch::new();
    let mut got = Vec::new();
    for k in INT8_KS {
        let x = int8_matrix(INT8_ROWS, k, 300 + k as u64, true);
        let (qx, xq) = quantize_rows(&x);
        for n in INT8_NS {
            let weight = int8_matrix(k, n, 400 + (k * n) as u64, false);
            let bias = randn_like(1, n, 500 + n as u64);
            let layer = QuantizedLinear::from_weights(&weight, &bias);
            let want = int8_oracle(&weight, bias.as_slice(), &qx, &xq);
            // Rows are independent, so the first `rows` rows of the 9-row
            // answer are the answer for a `rows`-row input; what changes
            // with `rows` is which row tiles compute it. Taking the rows
            // from the end as well puts both saturated rows in every tile.
            for rows in 1..=INT8_ROWS {
                layer.forward_into(&x.as_slice()[..rows * k], rows, &mut scratch, &mut got);
                assert_eq!(got, want[..rows * n], "first {rows} rows, k={k} n={n}");
            }
            let mut flipped = Vec::new();
            for r in (0..INT8_ROWS).rev() {
                flipped.extend_from_slice(x.row(r));
            }
            layer.forward_into(&flipped, INT8_ROWS, &mut scratch, &mut got);
            for (r, row) in got.chunks_exact(n).enumerate() {
                let w = INT8_ROWS - 1 - r;
                assert_eq!(
                    row,
                    &want[w * n..(w + 1) * n],
                    "flipped row {r}, k={k} n={n}"
                );
            }
        }
    }
}

#[test]
fn int8_gathered_forward_equals_the_naive_integer_product() {
    // Repeated ids; table rows 0 and 19 are the saturated ones.
    let ids = [3usize, 19, 7, 7, 0, 12, 3, 19, 1];
    let mut scratch = QuantScratch::new();
    let mut got = Vec::new();
    for k in INT8_KS {
        let rows = int8_matrix(20, k, 600 + k as u64, true);
        let table = QuantizedTable::from_tensor(&rows);
        for n in [1usize, 31, 57] {
            let weight = int8_matrix(k, n, 700 + (k * n) as u64, false);
            let bias = randn_like(1, n, 800 + n as u64);
            let layer = QuantizedLinear::from_weights(&weight, &bias);
            for len in 1..=ids.len() {
                let picked: Vec<f32> = ids[..len]
                    .iter()
                    .flat_map(|&id| rows.row(id))
                    .copied()
                    .collect();
                let (qx, xq) = quantize_rows(&take(&picked, len, k));
                let want = int8_oracle(&weight, bias.as_slice(), &qx, &xq);
                layer.forward_gathered_into(&table, &ids[..len], &mut scratch, &mut got);
                assert_eq!(got, want, "{len} ids, k={k} n={n}");
            }
        }
    }
}
