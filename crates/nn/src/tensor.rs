use crate::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major 2-D matrix of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the `semcom`
/// stack: activations are `[batch, features]`, weight matrices are
/// `[in, out]`, semantic symbol blocks are `[tokens, symbols]`.
///
/// Shape-incompatible operations panic with a descriptive message (like
/// indexing a slice out of bounds); fallible *construction* returns
/// [`NnError`].
///
/// # Example
///
/// ```
/// use semcom_nn::Tensor;
/// let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])?;
/// let b = a.transpose();
/// assert_eq!(b.shape(), (3, 2));
/// assert_eq!(a.matmul(&b).shape(), (2, 2));
/// # Ok::<(), semcom_nn::NnError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor from a row-major element vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a `1 x n` row tensor from a slice.
    pub fn row_from_slice(data: &[f32]) -> Self {
        Tensor {
            rows: 1,
            cols: data.len(),
            data: data.to_vec(),
        }
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (n×k) · other (k×m) -> (n×m)`.
    ///
    /// Every output element accumulates its `k` terms in ascending order,
    /// and output rows are independent, so the result is bit-identical at
    /// any `semcom-par` worker count (see [`Tensor::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product written into a caller-owned output tensor, avoiding
    /// the allocation in [`Tensor::matmul`]. `out` is fully overwritten.
    ///
    /// Large products (≥ [`PAR_WORK`] multiply-adds) are partitioned over
    /// contiguous output-row bands across `semcom-par` workers; each output
    /// element is computed by exactly one worker with a fixed accumulation
    /// order, so results are bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` is not
    /// `self.rows x other.cols`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch: out is {}x{}, need {}x{} for {}x{} . {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.cols,
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let (k_dim, n) = (self.cols, other.cols);
        let a = &self.data;
        let b = &other.data;
        for_row_bands(&mut out.data, self.rows, n, 2 * k_dim * n, |i0, band| {
            mm_kernel(&a[i0 * k_dim..], b, band, k_dim, n);
        });
    }

    /// Reference matrix product: the serial scalar i-k-j axpy kernel,
    /// retained as the ground truth that the SIMD microkernel behind
    /// [`Tensor::matmul`] is property-pinned against (and as the readable
    /// statement of the accumulation-order contract).
    ///
    /// Each output element accumulates its `k` terms in ascending order —
    /// the same per-element order the lane-grouped kernel uses — so this is
    /// **bit-identical** to [`Tensor::matmul`] at any worker count, not
    /// merely approximately equal.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k_dim, n) = (self.cols, other.cols);
        let mut out = Tensor::zeros(self.rows, n);
        for i in 0..self.rows {
            let orow = &mut out.data[i * n..(i + 1) * n];
            for k in 0..k_dim {
                let av = self.data[i * k_dim + k];
                let brow = &other.data[k * n..(k + 1) * n];
                for (d, &bv) in orow.iter_mut().zip(brow) {
                    *d += av * bv;
                }
            }
        }
        out
    }

    /// Fused `selfᵀ (k×m)ᵀ · other (k×n) -> (m×n)` — the weight-gradient
    /// product in backward passes — without allocating a `Tensor` for the
    /// transpose: `self` is transposed into a reused thread-local scratch
    /// and fed through the same band kernel as [`Tensor::matmul`].
    ///
    /// Accumulation over the shared `k` dimension is ascending, exactly as
    /// in `self.transpose().matmul(other)`, so the result is bit-identical
    /// to that two-step form (and at any worker count).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` (the shared `k` dimension).
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa shape mismatch: ({}x{})T . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k_dim, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        let b = &other.data;
        TRANSPOSE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(k_dim * m, 0.0);
            transpose_into(&self.data, k_dim, m, &mut scratch);
            let at: &[f32] = &scratch;
            for_row_bands(&mut out.data, m, n, 2 * k_dim * n, |i0, band| {
                mm_kernel(&at[i0 * k_dim..], b, band, k_dim, n);
            });
        });
        out
    }

    /// Fused `self (m×k) · otherᵀ (n×k)ᵀ -> (m×n)` — the input-gradient
    /// product in backward passes — without allocating a `Tensor` for the
    /// transpose. `other` is transposed into a reused thread-local scratch
    /// buffer and fed through the same band kernel as [`Tensor::matmul`]:
    /// a strict-`k`-order dot-product kernel would avoid even the scratch,
    /// but its serial add chains cannot use SIMD, and on this workload it
    /// measures 3-4x slower than transpose-then-axpy.
    ///
    /// Accumulation order matches `self.matmul(&other.transpose())`
    /// exactly, so the result is bit-identical to that two-step form (and
    /// at any worker count).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` (the shared `k` dimension).
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb shape mismatch: {}x{} . ({}x{})T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k_dim, m, n) = (self.cols, self.rows, other.rows);
        let mut out = Tensor::zeros(m, n);
        let a = &self.data;
        TRANSPOSE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(k_dim * n, 0.0);
            transpose_into(&other.data, n, k_dim, &mut scratch);
            let bt: &[f32] = &scratch;
            for_row_bands(&mut out.data, m, n, 2 * k_dim * n, |i0, band| {
                mm_kernel(&a[i0 * k_dim..], bt, band, k_dim, n);
            });
        });
        out
    }

    /// Transposed copy (tiled for cache locality on large tensors).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise shape mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let mut data = Vec::with_capacity(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut data = Vec::with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds `other * s` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled shape mismatch: {}x{} += {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// Adds a `1 x cols` row vector to every row (broadcast add).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
        out
    }

    /// Sums over rows, producing a `1 x cols` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius (L2) norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or the tensor has zero columns.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        assert!(!row.is_empty(), "argmax of empty row");
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Stacks tensors with identical column counts vertically.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of no tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }
}

/// Flop count (multiplies + adds, i.e. `2·m·k·n`) above which matmul
/// kernels partition output rows across `semcom-par` workers — roughly a
/// 161³ product. `semcom-par` spawns scoped OS threads per call rather
/// than keeping a pool, which costs on the order of 100 µs per fan-out;
/// below this threshold that overhead dominates. Trainer minibatch
/// products sit near 2^20 flops (64×64×176 in a default fine-tune step:
/// ≈30 µs serial on the 2-core reference host, see DESIGN.md "Fine-tune
/// step") and lose outright when fanned out, while the 512³-scale
/// products the banding exists for are ~2^28 flops.
pub const PAR_WORK: usize = 1 << 23;

/// Runs `kernel(first_row, band)` over contiguous row bands of `out`
/// (`rows` rows of `n` elements), in parallel when `rows * work_per_row`
/// reaches [`PAR_WORK`]. Each row is written by exactly one worker, so the
/// split never affects results.
fn for_row_bands<F>(out: &mut [f32], rows: usize, n: usize, work_per_row: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if rows == 0 || n == 0 {
        return;
    }
    let workers = if rows.saturating_mul(work_per_row) >= PAR_WORK {
        semcom_par::max_workers().min(rows)
    } else {
        1
    };
    if workers <= 1 || semcom_par::in_worker() {
        kernel(0, out);
        return;
    }
    let band_rows = rows.div_ceil(workers);
    semcom_par::par_chunks(out, band_rows * n, |start, band| {
        kernel(start / n, band);
    });
}

/// Explicit SIMD lane width of the matmul microkernel: output columns are
/// processed in fixed-size `[f32; LANES]` (and wider multiples, see
/// [`mm_tile`]) accumulator arrays. Safe portable Rust (this crate
/// forbids `unsafe`), but the fixed-width value arrays compile to one
/// AVX/NEON register group per accumulator, so the inner loop vectorizes
/// without intrinsics.
const LANES: usize = 8;

/// Dense row-major product kernel: `band = a_band (rows×k) · b (k×n)`.
///
/// Register-tiled microkernel: four output rows × sixteen output columns
/// per tile ([`mm_tile`]), with the partial sums held in lane arrays that
/// live in vector registers across the whole `k` block. Each streamed row
/// of `b` is thus reused fourfold from registers, and the per-lane
/// multiply-adds vectorize. The `rows % 4` rows beyond the last full quad
/// run as ONE more tile of their height: a message is 4–12 rows, so most
/// products the serving path makes end in such a tile, and a tile per
/// leftover row would stream `b` once per row on a single add chain.
///
/// The inner loops are dense on purpose: a data-dependent sparse skip (the
/// old `a == 0.0` branch) defeats vectorization and mispredicts on dense
/// inputs, which is the common case for activations and gradients.
fn mm_kernel(a: &[f32], b: &[f32], band: &mut [f32], k_dim: usize, n: usize) {
    // Rows of `b` covered per pass: keeps the active `b` block (up to
    // K_BLOCK·n floats) cache-resident while every band row accumulates
    // it, instead of streaming all of `b` once per row quad. Blocks are
    // visited in ascending `k`, and every tile accumulates its `k` terms
    // in ascending order, so per-element accumulation order — and
    // therefore bit-exact output (vs. [`Tensor::matmul_reference`] and any
    // worker count) — is unchanged.
    const K_BLOCK: usize = 64;
    band.fill(0.0);
    let rows = band.len() / n;
    let a = &a[..rows * k_dim];
    let mut k0 = 0;
    while k0 < k_dim {
        let ks = (k0, (k0 + K_BLOCK).min(k_dim));
        let mut quads = band.chunks_exact_mut(4 * n);
        for (quad, a_quad) in (&mut quads).zip(a.chunks_exact(4 * k_dim)) {
            mm_tile::<4>(a_quad, b, ks, n, quad);
        }
        let rest = quads.into_remainder();
        let a_rest = &a[(rows - rows % 4) * k_dim..];
        match rows % 4 {
            3 => mm_tile::<3>(a_rest, b, ks, n, rest),
            2 => mm_tile::<2>(a_rest, b, ks, n, rest),
            1 => mm_tile::<1>(a_rest, b, ks, n, rest),
            _ => {}
        }
        k0 = ks.1;
    }
}

/// `R`-row register tile of [`mm_kernel`]: accumulates `a (R×k) ·
/// b[k0..k1]` into the `R` output rows of `out` — sixteen columns at a
/// time, then eight ([`LANES`]), then one.
///
/// The 16-wide pass is what keeps the adders busy: at four rows its eight
/// accumulator registers (4 rows × 2) are eight independent add chains,
/// enough to cover the add latency, where the 8-wide pass alone has four.
/// A one-row tile has a quarter of that, so it takes a 32-wide pass first.
/// Every output element still sums its `k` terms in ascending order
/// whichever pass its column lands in and whatever the tile's height, so
/// the result equals [`Tensor::matmul_reference`] bit for bit.
///
/// Kept out of line: with all four heights inlined into [`mm_kernel`] the
/// register allocator spills the four `a` row pointers and reloads them
/// inside the 4×16 `k` loop (≈6 % on 64-row products).
#[inline(never)]
fn mm_tile<const R: usize>(a: &[f32], b: &[f32], ks: (usize, usize), n: usize, out: &mut [f32]) {
    let k_dim = a.len() / R;
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k_dim..(r + 1) * k_dim]);
    let mut rest = out;
    let mut o: [&mut [f32]; R] = std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        row
    });
    let mut j = 0;
    if R == 1 {
        j = mm_tile_cols::<R, { 4 * LANES }>(a, b, ks, n, &mut o, j);
    }
    let j = mm_tile_cols::<R, { 2 * LANES }>(a, b, ks, n, &mut o, j);
    let j = mm_tile_cols::<R, LANES>(a, b, ks, n, &mut o, j);
    // Scalar fallback for the n % LANES remainder columns: same ascending-k
    // per-element order, so still bit-identical to the reference.
    for jj in j..n {
        let mut s: [f32; R] = std::array::from_fn(|r| o[r][jj]);
        for k in ks.0..ks.1 {
            let bv = b[k * n + jj];
            for r in 0..R {
                s[r] += a[r][k] * bv;
            }
        }
        for r in 0..R {
            o[r][jj] = s[r];
        }
    }
}

/// One column pass of [`mm_tile`]: every full `W`-column group from
/// column `j` on; returns the first column it did not cover.
#[inline(always)]
fn mm_tile_cols<const R: usize, const W: usize>(
    a: [&[f32]; R],
    b: &[f32],
    (k0, k1): (usize, usize),
    n: usize,
    o: &mut [&mut [f32]; R],
    mut j: usize,
) -> usize {
    while j + W <= n {
        // Partial sums for this R×W tile live in lane arrays (registers)
        // for the whole k block; loaded/stored once per block.
        let mut c: [[f32; W]; R] = std::array::from_fn(|r| o[r][j..j + W].try_into().unwrap());
        for k in k0..k1 {
            let bv: [f32; W] = b[k * n + j..k * n + j + W].try_into().unwrap();
            for r in 0..R {
                let av = a[r][k];
                for l in 0..W {
                    c[r][l] += av * bv[l];
                }
            }
        }
        for r in 0..R {
            o[r][j..j + W].copy_from_slice(&c[r]);
        }
        j += W;
    }
    j
}

thread_local! {
    /// Scratch for the on-the-fly transposes in [`Tensor::matmul_transa`]
    /// and [`Tensor::matmul_transb`],
    /// reused across calls so steady-state backward passes stop paying a
    /// transpose allocation per layer per step.
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Tiled transpose of a `rows x cols` row-major matrix into `dst`
/// (`cols x rows`, fully overwritten).
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TILE: usize = 32;
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let id = t(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_bad_shapes() {
        let a = t(2, 3, &[0.; 6]);
        let b = t(2, 3, &[0.; 6]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_bias_adds_to_each_row() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(1, 2, &[10., 20.]);
        assert_eq!(a.add_row_broadcast(&b).as_slice(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn sum_rows_and_mean() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.sum_rows().as_slice(), &[4., 6.]);
        assert!((a.mean() - 2.5).abs() < 1e-6);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn argmax_row_finds_first_max() {
        let a = t(2, 3, &[1., 5., 5., 9., 2., 3.]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = t(1, 2, &[1., 2.]);
        let b = t(2, 2, &[3., 4., 5., 6.]);
        let s = Tensor::vstack(&[a, b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5., 6.]);
    }

    #[test]
    fn operators_work_by_reference() {
        let a = t(1, 2, &[1., 2.]);
        let b = t(1, 2, &[3., 4.]);
        assert_eq!((&a + &b).as_slice(), &[4., 6.]);
        assert_eq!((&b - &a).as_slice(), &[2., 2.]);
        assert_eq!((&a * 2.0).as_slice(), &[2., 4.]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = t(1, 2, &[3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_never_empty() {
        let a = Tensor::zeros(0, 0);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn map_and_hadamard() {
        let a = t(1, 3, &[1., -2., 3.]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1., 2., 3.]);
        assert_eq!(a.hadamard(&a).as_slice(), &[1., 4., 9.]);
    }

    /// Deterministic pseudo-random test matrix (no rand dependency here).
    fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let data = (0..rows * cols).map(|_| next()).collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = pseudo(5, 7, 1);
        let b = pseudo(7, 3, 2);
        let mut out = Tensor::zeros(5, 3);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn transa_is_bit_identical_to_explicit_transpose() {
        for (k, m, n) in [(1, 1, 1), (4, 3, 5), (9, 6, 2), (17, 13, 11)] {
            let a = pseudo(k, m, 3);
            let b = pseudo(k, n, 4);
            assert_eq!(
                a.matmul_transa(&b).as_slice(),
                a.transpose().matmul(&b).as_slice(),
                "k={k} m={m} n={n}"
            );
        }
    }

    #[test]
    fn transb_is_bit_identical_to_explicit_transpose() {
        for (m, k, n) in [(1, 1, 1), (4, 3, 5), (9, 6, 2), (17, 13, 11)] {
            let a = pseudo(m, k, 5);
            let b = pseudo(n, k, 6);
            assert_eq!(
                a.matmul_transb(&b).as_slice(),
                a.matmul(&b.transpose()).as_slice(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn large_matmul_is_identical_across_worker_counts() {
        // 2·168³ flops clears the PAR_WORK threshold, so this exercises
        // the row-partitioned path against the serial one.
        assert!(2 * 168usize.pow(3) >= PAR_WORK);
        let a = pseudo(168, 168, 7);
        let b = pseudo(168, 168, 8);
        semcom_par::set_workers(1);
        let serial = a.matmul(&b);
        for workers in [2, 3, 4] {
            semcom_par::set_workers(workers);
            assert_eq!(serial, a.matmul(&b), "workers={workers}");
            assert_eq!(
                a.matmul_transa(&b).as_slice(),
                a.transpose().matmul(&b).as_slice(),
                "transa workers={workers}"
            );
            assert_eq!(
                a.matmul_transb(&b).as_slice(),
                a.matmul(&b.transpose()).as_slice(),
                "transb workers={workers}"
            );
        }
        semcom_par::set_workers(1);
    }

    #[test]
    fn simd_kernel_matches_scalar_reference_bit_exactly() {
        // Shapes straddle the 8-lane groups (n % 8 ∈ {0,1,5,7}) and the
        // 4-row quads; equality is bit-exact, not approximate.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 13),
            (8, 24, 8),
            (16, 16, 17),
            (7, 65, 21),
        ] {
            let a = pseudo(m, k, 11);
            let b = pseudo(k, n, 12);
            assert_eq!(
                a.matmul(&b).as_slice(),
                a.matmul_reference(&b).as_slice(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch: out is 2x2, need 2x3")]
    fn matmul_into_reports_output_shape() {
        let a = t(2, 3, &[0.; 6]);
        let b = t(3, 3, &[0.; 9]);
        let mut out = Tensor::zeros(2, 2);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn odd_row_remainders_are_handled() {
        // Rows not divisible by the 4-row micro-kernel block.
        for rows in 1..9 {
            let a = pseudo(rows, 6, 9);
            let b = pseudo(6, 5, 10);
            let reference = {
                let mut out = Tensor::zeros(rows, 5);
                for i in 0..rows {
                    for k in 0..6 {
                        for j in 0..5 {
                            let v = out.get(i, j) + a.get(i, k) * b.get(k, j);
                            out.set(i, j, v);
                        }
                    }
                }
                out
            };
            assert_eq!(a.matmul(&b), reference, "rows={rows}");
        }
    }
}
