//! Post-training int8 quantization for frozen inference models.
//!
//! The paper's serving path (edge encode → channel → decode) runs *frozen*
//! knowledge bases: training happens in `Trainer`/sync rounds, but every
//! message forward pass uses fixed weights. That makes the codec hot path a
//! textbook candidate for post-training quantization — store weights as
//! `i8` with affine row parameters (4x smaller), accumulate the integer
//! code products exactly, and dequantize once per output channel.
//!
//! The exact integer arithmetic runs on the floating-point units. Codes lie
//! in [−128, 127], so a product of two is at most 2¹⁴ in magnitude and
//! every partial sum over up to 1024 of them is an integer of magnitude at
//! most 2²⁴ — which `f32` represents exactly, so a multiply-add on them
//! does not round, fused or not. The kernel therefore holds both sides'
//! codes as `f32`, accumulates `k` in blocks of [`K_BLOCK`] with the
//! hardware FMA where the build has one ([`mul_add_exact`]), converts each
//! block's sums to `i32` and adds them there. Integer addition is
//! associative, so tile shapes and lane grouping cannot change a result:
//! the output equals a naive `i32` triple loop bit for bit (pinned by
//! this crate's `tests/simd_equivalence.rs`, with and without the FMA feature).
//!
//! Layout and math, for `y = x · W + b` with `W` as `[in, out]` f32:
//!
//! * The stored weights are `i8` in the f32 `[in, out]` row-major layout.
//!   The kernel reads a runtime-only `f32` copy of them, cut into the
//!   column panels its register tiles walk (32, 16 and 8 wide, the last
//!   one zero-padded; each panel `[in, width]` row-major), so a tile
//!   streams its weights front to
//!   back: for each input position the activation codes of up to four rows
//!   broadcast against one contiguous run of output channels
//!   ([`dot_tile`]). Quantization is per **output channel** (per column):
//!   scale `s_w`, zero point `z_w`, quantized column sum `Σq_w`.
//! * Activations are quantized dynamically per input row (asymmetric,
//!   range always includes zero so ReLU zeros and padding stay exact),
//!   straight to `f32` codes; embedding-table rows are stored as `i8` codes
//!   and converted as they are gathered.
//! * With `x = s_x (q_x − z_x)` and `w = s_w (q_w − z_w)`:
//!
//!   ```text
//!   y[o] = s_x·s_w[o] · ( Σ q_x q_w − z_w[o]·Σq_x − z_x·Σq_w[o] + K·z_x·z_w[o] ) + b[o]
//!   ```
//!
//!   where only `Σ q_x q_w` touches the `K`-length inner loop — everything
//!   else is O(1) per output using the precomputed sums, applied, with the
//!   bias and the ReLU between layers, as a tile leaves its registers.
//!
//! Quantized models are conversions of trained f32 layers (see
//! [`QuantizedLinear::from_linear`]); they deliberately have no backward
//! pass.

use crate::layers::Linear;
use crate::Tensor;
use serde::{Deserialize, Serialize};

/// Longest run of `k` the kernel accumulates in `f32` before it converts
/// the partial sums to `i32`: a product of two codes is at most 2¹⁴ in
/// magnitude, so every partial sum of a block is an integer of magnitude
/// ≤ 1024·2¹⁴ = 2²⁴ — the largest range in which `f32` holds every
/// integer, and so the largest block whose multiply-adds cannot round.
const K_BLOCK: usize = 1024;

/// Affine quantization parameters for one row (one output channel or one
/// activation row): `value = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowQuantParams {
    /// Dequantization step size.
    pub scale: f32,
    /// The `i8` code representing `0.0` (always exactly representable:
    /// the quantization range is widened to include zero).
    pub zero_point: i32,
    /// Sum of the row's quantized codes, precomputed for the affine
    /// correction terms.
    pub qsum: i32,
}

/// Quantizes one f32 row into `i8` codes, returning its affine parameters.
///
/// Asymmetric min/max quantization over `[min(lo, 0), max(hi, 0)]` — the
/// range is widened to include `0.0` so exact zeros (ReLU output, padding)
/// map to the zero point exactly, and constant rows survive round-trips.
/// Non-finite values are left out of the range and quantize to the zero
/// point.
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub fn quantize_row(src: &[f32], dst: &mut [i8]) -> RowQuantParams {
    quantize_codes(src, dst, |q| q as i8)
}

/// [`quantize_row`] for any code type: the kernel's activation side takes
/// its codes as integer-valued `f32` (`cast = |q| q as f32`), the stored
/// tables as `i8`. Both loops are branch-free so that they vectorize.
fn quantize_codes<T>(src: &[f32], dst: &mut [T], cast: impl Fn(i32) -> T) -> RowQuantParams {
    assert_eq!(
        src.len(),
        dst.len(),
        "quantize_row length mismatch: {} vs {}",
        src.len(),
        dst.len()
    );
    // Min/max in lane arrays (exact in any order); a non-finite value
    // counts as 0.0, which the range includes anyway.
    const LANES: usize = 16;
    let widen = |lo: &mut f32, hi: &mut f32, v: f32| {
        let v = if v.is_finite() { v } else { 0.0 };
        *lo = if v < *lo { v } else { *lo };
        *hi = if v > *hi { v } else { *hi };
    };
    let chunks = src.chunks_exact(LANES);
    let (mut lo, mut hi) = (0.0f32, 0.0f32);
    for &v in chunks.remainder() {
        widen(&mut lo, &mut hi, v);
    }
    let mut los = [0.0f32; LANES];
    let mut his = [0.0f32; LANES];
    for chunk in chunks {
        for l in 0..LANES {
            widen(&mut los[l], &mut his[l], chunk[l]);
        }
    }
    for l in 0..LANES {
        widen(&mut lo, &mut hi, los[l]);
        widen(&mut lo, &mut hi, his[l]);
    }
    let scale = (hi - lo) / 255.0;
    if scale <= 0.0 || !scale.is_finite() {
        // All-zero (or degenerate) row: every code is the zero point.
        dst.fill_with(|| cast(0));
        return RowQuantParams {
            scale: 1.0,
            zero_point: 0,
            qsum: 0,
        };
    }
    // lo maps to -128, hi to 127; lo <= 0 <= hi keeps this in i8 range.
    let zero_point = (-128.0 - lo / scale).round() as i32;
    let inv_scale = 1.0 / scale;
    let zero = zero_point as f32;
    let mut qsum = 0i32;
    for (d, &v) in dst.iter_mut().zip(src) {
        // Clamped as a float (compare-and-select: one instruction each)
        // so that the integer conversion needs no range checks.
        let t = v * inv_scale;
        let q = if t.is_finite() { t.round() } else { 0.0 } + zero;
        let q = if q < -128.0 { -128.0 } else { q };
        let q = small_i32(if q > 127.0 { 127.0 } else { q });
        *d = cast(q);
        qsum += q;
    }
    RowQuantParams {
        scale,
        zero_point,
        qsum,
    }
}

/// `a · b + c` on integer-valued operands whose result stays within ±2²⁴:
/// exact whether or not the multiply-add is fused, so the hardware FMA is
/// used wherever the build has one and both forms give the same bits (the
/// fp32 kernels may not do this: there the unfused rounding is part of the
/// determinism contract). Without the target feature `mul_add` would be a
/// libm call.
#[inline(always)]
fn mul_add_exact(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// 1.5·2²³. Adding it to an integer `v` with |v| ≤ 2²² lands in
/// [2²³, 2²⁴], where consecutive floats are consecutive integers *and*
/// consecutive bit patterns, so the sum's bit pattern minus the constant's
/// is `v`.
const INT_MAGIC: f32 = 12_582_912.0;

/// Exact `f32 → i32` for an integer-valued `v` with |v| ≤ 2²² (see
/// [`INT_MAGIC`]). `v as i32` would do, but its saturation checks make the
/// conversion scalar on x86; this form is one add and one integer subtract.
#[inline(always)]
fn small_i32(v: f32) -> i32 {
    ((v + INT_MAGIC).to_bits() as i32).wrapping_sub(INT_MAGIC.to_bits() as i32)
}

/// [`small_i32`] for |x| ≤ 2²⁴, the range of a block sum: split into
/// `q = x/4` rounded to an integer (by the same add) and the remainder
/// `x − 4q`, which lies in [−2, 2]; every step is exact.
#[inline(always)]
fn block_sum_i32(x: f32) -> i32 {
    let q = (x * 0.25 + INT_MAGIC) - INT_MAGIC;
    4 * small_i32(q) + small_i32(x - 4.0 * q)
}

/// The kernel's register tile: the integer dot products of `R` activation
/// rows with one `W`-column panel of the weight codes (`[k, W]` row-major,
/// see [`pack_panels`]), both sides holding their `i8` codes as `f32`.
///
/// The `R × W` partial sums stay in lane arrays (vector registers) across
/// a [`K_BLOCK`] of `k`, every weight row load is shared by the `R`
/// activation rows, and each multiply-add is exact (see [`K_BLOCK`]), so
/// the sums are the same integers in any order and under any lane
/// grouping. Block sums are converted to `i32` and added there.
#[inline(always)]
fn dot_tile<const R: usize, const W: usize>(a: [&[f32]; R], panel: &[f32]) -> [[i32; W]; R] {
    let k_dim = a[0].len();
    let a = a.map(|row| &row[..k_dim]);
    let panel = &panel[..k_dim * W];
    let mut dot = [[0i32; W]; R];
    let mut k0 = 0;
    while k0 < k_dim {
        let k1 = (k0 + K_BLOCK).min(k_dim);
        let mut c = [[0.0f32; W]; R];
        for k in k0..k1 {
            let bv: [f32; W] = panel[k * W..(k + 1) * W].try_into().unwrap();
            for r in 0..R {
                let av = a[r][k];
                for l in 0..W {
                    c[r][l] = mul_add_exact(av, bv[l], c[r][l]);
                }
            }
        }
        for r in 0..R {
            for l in 0..W {
                dot[r][l] += block_sum_i32(c[r][l]);
            }
        }
        k0 = k1;
    }
    dot
}

/// One output from its integer dot product `dot = Σ q_x q_w`: the affine
/// correction of the module docs with `wcorr = Σq_w − K·z_w` folded in
/// (the same integer as the four-term form), scale, bias and the optional
/// ReLU between layers.
#[inline(always)]
fn dequantize(
    dot: i32,
    px: RowQuantParams,
    wscale: f32,
    wzero: i32,
    wcorr: i32,
    bias: f32,
    relu: bool,
) -> f32 {
    let corr = dot - wzero * px.qsum - px.zero_point * wcorr;
    let v = px.scale * wscale * corr as f32 + bias;
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// Narrowest column tile of the kernel. A narrower remainder (`n` not a
/// multiple of it) runs as one more tile of this width over zero-padded
/// weights and per-channel parameters, and only its real columns are
/// stored: a vector tile instead of up to seven scalar columns.
const W_MIN: usize = 8;

/// Appends every full `W`-column panel of the `[k, n]` codes `wq` from
/// column `j` on to `packed`, as `f32`, each panel `[k, W]` row-major;
/// returns the first column it did not cover. Called with the widths
/// [`QuantizedLinear::row_tile`] walks, in its order, so the panel of the
/// tile at column `j` starts at `j · k` and the kernel streams it front to
/// back. At [`W_MIN`] a narrower remainder becomes one last, zero-padded
/// panel.
fn pack_panels<const W: usize>(wq: &[i8], n: usize, mut j: usize, packed: &mut Vec<f32>) -> usize {
    while j + W <= n || (W == W_MIN && j < n) {
        let real = W.min(n - j);
        for row in wq.chunks_exact(n) {
            packed.extend(row[j..j + real].iter().map(|&q| f32::from(q)));
            packed.extend(std::iter::repeat_n(0.0, W - real));
        }
        j += real;
    }
    j
}

/// `dst = src as f32`; a function of its own so that the two slices are
/// known not to overlap and the loop vectorizes.
#[inline]
fn codes_to_f32(src: &[i8], dst: &mut [f32]) {
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = f32::from(q);
    }
}

/// Sets `buf`'s length without re-zeroing when it already matches: every
/// caller fully overwrites the buffer, so the fill only matters on growth.
/// In the warm serving path this skips a memset per forward call.
fn reset_len<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, T::default());
    }
}

/// Reusable buffers for dynamic activation quantization — the per-call
/// state of [`QuantizedLinear::forward_into`]. Reusing one `QuantScratch`
/// across calls keeps the warm quantized forward path allocation-free.
#[derive(Debug, Default)]
pub struct QuantScratch {
    /// `[rows, in_dim]` activation codes, integer-valued.
    qx: Vec<f32>,
    xq: Vec<RowQuantParams>,
}

impl QuantScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// An int8 post-training-quantized [`Linear`] layer for inference.
///
/// See the [module docs](crate::quant) for the storage layout and math.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedLinear {
    /// `[in, out]` row-major quantized weights (same layout as the f32
    /// weight matrix) — the canonical serialized form counted by
    /// [`QuantizedLinear::size_bytes`].
    wq: Vec<i8>,
    /// Runtime-only compute copy of `wq`, each code converted to `f32`, in
    /// the kernel's column panels (see [`pack_panels`]); rebuilt from `wq`
    /// at conversion time, never counted as model bytes.
    wq_f32: Vec<f32>,
    /// Per-output-channel scale `s_w`. This and the three vectors below are
    /// zero-padded to a multiple of [`W_MIN`] channels.
    wscale: Vec<f32>,
    /// Per-output-channel zero point `z_w`.
    wzero: Vec<i32>,
    /// Per-output-channel correction `Σq_w − K·z_w`, folded at conversion
    /// time so that [`dequantize`] spends one multiply per element
    /// instead of two.
    wcorr: Vec<i32>,
    /// Bias kept in f32 (`out` values; negligible size, added after
    /// dequantization).
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl QuantizedLinear {
    /// Quantizes a trained f32 [`Linear`] layer (per-output-channel affine
    /// weights, f32 bias).
    pub fn from_linear(layer: &Linear) -> Self {
        Self::from_weights(layer.weight(), layer.bias())
    }

    /// Quantizes explicit `[in, out]` weights and a `[1, out]` bias row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x weight.cols()`.
    pub fn from_weights(weight: &Tensor, bias: &Tensor) -> Self {
        let (in_dim, out_dim) = weight.shape();
        assert_eq!(
            bias.shape(),
            (1, out_dim),
            "bias shape mismatch: {}x{}, need 1x{out_dim}",
            bias.rows(),
            bias.cols()
        );
        let mut col = vec![0.0f32; in_dim];
        let mut qcol = vec![0i8; in_dim];
        let mut wq = vec![0i8; in_dim * out_dim];
        let mut wscale = Vec::with_capacity(out_dim);
        let mut wzero = Vec::with_capacity(out_dim);
        let mut wcorr = Vec::with_capacity(out_dim);
        for o in 0..out_dim {
            for (i, c) in col.iter_mut().enumerate() {
                *c = weight.get(i, o);
            }
            let p = quantize_row(&col, &mut qcol);
            wscale.push(p.scale);
            wzero.push(p.zero_point);
            wcorr.push(p.qsum - in_dim as i32 * p.zero_point);
            // Scatter the quantized column back into the [in, out] layout.
            for (i, &q) in qcol.iter().enumerate() {
                wq[i * out_dim + o] = q;
            }
        }
        let padded = out_dim.next_multiple_of(W_MIN);
        let mut wq_f32 = Vec::with_capacity(in_dim * padded);
        let j = pack_panels::<32>(&wq, out_dim, 0, &mut wq_f32);
        let j = pack_panels::<16>(&wq, out_dim, j, &mut wq_f32);
        pack_panels::<W_MIN>(&wq, out_dim, j, &mut wq_f32);
        let mut bias = bias.as_slice().to_vec();
        wscale.resize(padded, 0.0);
        wzero.resize(padded, 0);
        wcorr.resize(padded, 0);
        bias.resize(padded, 0.0);
        QuantizedLinear {
            wq,
            wq_f32,
            wscale,
            wzero,
            wcorr,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Serialized model size in bytes: i8 weights + per-channel affine
    /// parameters (scale, zero point, code sum) + f32 bias. The f32
    /// equivalent is `4·(in·out + out)`.
    pub fn size_bytes(&self) -> usize {
        self.wq.len()
            + self.out_dim * (4 + 4 + 4)
            + self.out_dim * 4
            + 2 * std::mem::size_of::<usize>()
    }

    /// Quantized forward pass on a flat row-major `[rows, in_dim]` buffer,
    /// writing `[rows, out_dim]` into `out` (resized and fully overwritten;
    /// no allocation once `out` and `scratch` have reached working-set size).
    ///
    /// Activations are quantized per row, the inner loop accumulates the
    /// integer code products exactly, and each output channel dequantizes
    /// once via its precomputed affine correction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * in_dim`.
    pub fn forward_into(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
    ) {
        self.forward_act_into(x, rows, scratch, out, false);
    }

    /// [`QuantizedLinear::forward_into`] with an optional ReLU fused into
    /// the dequantization pass.
    fn forward_act_into(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
        relu: bool,
    ) {
        let k = self.in_dim;
        assert_eq!(
            x.len(),
            rows * k,
            "quantized forward input mismatch: {} values for {rows} rows of {k}",
            x.len()
        );
        reset_len(&mut scratch.qx, rows * k);
        scratch.xq.clear();
        for (xrow, qrow) in x.chunks_exact(k).zip(scratch.qx.chunks_exact_mut(k)) {
            scratch.xq.push(quantize_codes(xrow, qrow, |q| q as f32));
        }
        self.project(scratch, out, relu);
    }

    /// `out = dequantize(scratch.qx · wq)`, optionally through a ReLU: the
    /// one matmul of this module. Rows go four at a time and the last one
    /// to three in a tile of their own height, because every row tile
    /// streams the whole weight copy once whatever its height; within a
    /// row tile the columns go 32, 16 and 8 ([`W_MIN`]) at a time.
    fn project(&self, scratch: &QuantScratch, out: &mut Vec<f32>, relu: bool) {
        let (k, n) = (self.in_dim, self.out_dim);
        let rows = scratch.xq.len();
        reset_len(out, rows * n);
        let mut i = 0;
        while i < rows {
            let height = (rows - i).min(4);
            let a = &scratch.qx[i * k..];
            let (xq, band) = (&scratch.xq[i..], &mut out[i * n..]);
            match height {
                1 => self.row_tile::<1>(a, xq, band, relu),
                2 => self.row_tile::<2>(a, xq, band, relu),
                3 => self.row_tile::<3>(a, xq, band, relu),
                _ => self.row_tile::<4>(a, xq, band, relu),
            }
            i += height;
        }
    }

    /// Projects the first `R` rows of `a` into the first `R` rows of `band`.
    fn row_tile<const R: usize>(
        &self,
        a: &[f32],
        xq: &[RowQuantParams],
        band: &mut [f32],
        relu: bool,
    ) {
        let k = self.in_dim;
        let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
        let xq: [RowQuantParams; R] = std::array::from_fn(|r| xq[r]);
        let j = self.col_tiles::<R, 32>(a, xq, band, relu, 0);
        let j = self.col_tiles::<R, 16>(a, xq, band, relu, j);
        let j = self.col_tiles::<R, W_MIN>(a, xq, band, relu, j);
        if j < self.out_dim {
            self.tail_tile(a, xq, band, relu, j);
        }
    }

    /// Every full `W`-column tile of an `R`-row band from column `j` on:
    /// the integer dot products, then [`dequantize`] on the way out of the
    /// registers. Returns the first column it did not cover.
    #[inline(always)]
    fn col_tiles<const R: usize, const W: usize>(
        &self,
        a: [&[f32]; R],
        xq: [RowQuantParams; R],
        band: &mut [f32],
        relu: bool,
        mut j: usize,
    ) -> usize {
        let n = self.out_dim;
        while j + W <= n {
            let dot = dot_tile::<R, W>(a, &self.wq_f32[j * self.in_dim..]);
            let wscale: [f32; W] = self.wscale[j..j + W].try_into().unwrap();
            let wzero: [i32; W] = self.wzero[j..j + W].try_into().unwrap();
            let wcorr: [i32; W] = self.wcorr[j..j + W].try_into().unwrap();
            let bias: [f32; W] = self.bias[j..j + W].try_into().unwrap();
            for r in 0..R {
                let y: &mut [f32; W] = (&mut band[r * n + j..r * n + j + W]).try_into().unwrap();
                for l in 0..W {
                    y[l] = dequantize(
                        dot[r][l], xq[r], wscale[l], wzero[l], wcorr[l], bias[l], relu,
                    );
                }
            }
            j += W;
        }
        j
    }

    /// The last tile of a band whose width is not a multiple of [`W_MIN`]:
    /// a whole tile over the zero-padded panel, of which the real columns
    /// are stored. Kept out of line so that the code of the column tiles,
    /// whose speed depends on how it is laid out, does not depend on it.
    #[inline(never)]
    fn tail_tile<const R: usize>(
        &self,
        a: [&[f32]; R],
        xq: [RowQuantParams; R],
        band: &mut [f32],
        relu: bool,
        j: usize,
    ) {
        let n = self.out_dim;
        let dot = dot_tile::<R, W_MIN>(a, &self.wq_f32[j * self.in_dim..]);
        for r in 0..R {
            for (l, y) in band[r * n + j..(r + 1) * n].iter_mut().enumerate() {
                let o = j + l;
                let (wscale, wzero, wcorr) = (self.wscale[o], self.wzero[o], self.wcorr[o]);
                *y = dequantize(dot[r][l], xq[r], wscale, wzero, wcorr, self.bias[o], relu);
            }
        }
    }

    /// Fused embedding-gather + quantized forward: projects the `table`
    /// rows selected by `ids`. The rows are already `i8` codes with their
    /// parameters, so the gather converts them straight into the kernel's
    /// activation buffer: no dequantize-to-f32 and no dynamic
    /// re-quantization, which a f32 forward would pay. This is the text
    /// codec's batched-encode hot path.
    ///
    /// Writes `[ids.len(), out_dim]` into `out` (resized and fully
    /// overwritten). `scratch` lends the activation-code and
    /// row-parameter buffers.
    ///
    /// # Panics
    ///
    /// Panics if `table.cols() != in_dim` or any id is out of bounds.
    pub fn forward_gathered_into(
        &self,
        table: &QuantizedTable,
        ids: &[usize],
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
    ) {
        let k = self.in_dim;
        assert_eq!(
            table.cols(),
            k,
            "gathered forward width mismatch: table rows of {} vs in_dim {k}",
            table.cols()
        );
        reset_len(&mut scratch.qx, ids.len() * k);
        scratch.xq.clear();
        for (&id, qrow) in ids.iter().zip(scratch.qx.chunks_exact_mut(k)) {
            assert!(
                id < table.rows,
                "row {id} out of bounds for {} rows",
                table.rows
            );
            scratch.xq.push(table.params[id]);
            codes_to_f32(&table.q[id * k..(id + 1) * k], qrow);
        }
        self.project(scratch, out, false);
    }

    /// Allocating convenience wrapper over [`QuantizedLinear::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "quantized forward width mismatch: {} vs {}",
            x.cols(),
            self.in_dim
        );
        let mut scratch = QuantScratch::new();
        let mut out = Vec::new();
        self.forward_into(x.as_slice(), x.rows(), &mut scratch, &mut out);
        Tensor::from_vec(x.rows(), self.out_dim, out).expect("shape correct by construction")
    }
}

/// A quantized embedding/lookup table: `i8` codes with per-row affine
/// parameters, dequantized on gather. This is where most of a text KB's
/// bytes live (`vocab × dim`), so it dominates the 4x size win.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedTable {
    q: Vec<i8>,
    params: Vec<RowQuantParams>,
    rows: usize,
    cols: usize,
}

impl QuantizedTable {
    /// Quantizes a `rows x cols` f32 table per row.
    pub fn from_tensor(table: &Tensor) -> Self {
        let (rows, cols) = table.shape();
        let mut q = vec![0i8; rows * cols];
        let mut params = Vec::with_capacity(rows);
        for r in 0..rows {
            params.push(quantize_row(table.row(r), &mut q[r * cols..(r + 1) * cols]));
        }
        QuantizedTable {
            q,
            params,
            rows,
            cols,
        }
    }

    /// Number of rows (vocabulary size for embedding tables).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dequantizes row `r` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `dst.len() != cols`.
    pub fn dequantize_row_into(&self, r: usize, dst: &mut [f32]) {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        assert_eq!(dst.len(), self.cols, "dst width mismatch");
        let p = self.params[r];
        let src = &self.q[r * self.cols..(r + 1) * self.cols];
        for (d, &qv) in dst.iter_mut().zip(src) {
            *d = p.scale * (qv as i32 - p.zero_point) as f32;
        }
    }

    /// Serialized table size in bytes (i8 codes + per-row parameters).
    pub fn size_bytes(&self) -> usize {
        self.q.len() + self.params.len() * (4 + 4 + 4) + 2 * std::mem::size_of::<usize>()
    }
}

/// A stack of [`QuantizedLinear`] layers with ReLU between consecutive
/// layers (and no activation after the last) — the shape of every decoder
/// and MLP encoder in the codec crates. Callers that need a trailing
/// LayerNorm apply it to the output buffer
/// (see `LayerNorm::normalize_rows`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedModel {
    layers: Vec<QuantizedLinear>,
}

/// Reusable activation + quantization buffers for
/// [`QuantizedModel::forward_into`]; holds the ping-pong intermediate
/// activations so warm multi-layer forwards are allocation-free.
#[derive(Debug, Default)]
pub struct ModelScratch {
    /// Activation-quantization buffers shared by all layers.
    pub quant: QuantScratch,
    act_a: Vec<f32>,
    act_b: Vec<f32>,
}

impl ModelScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl QuantizedModel {
    /// Builds a quantized MLP from trained f32 layers, in order.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions mismatch.
    pub fn from_linears(layers: &[&Linear]) -> Self {
        assert!(!layers.is_empty(), "quantized model needs at least 1 layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer dimension mismatch: {} -> {}",
                pair[0].out_dim(),
                pair[1].in_dim()
            );
        }
        QuantizedModel {
            layers: layers
                .iter()
                .map(|l| QuantizedLinear::from_linear(l))
                .collect(),
        }
    }

    /// Input dimensionality of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.layers.iter().map(QuantizedLinear::size_bytes).sum()
    }

    /// Quantized forward pass over a flat `[rows, in_dim]` buffer into
    /// `out` (`[rows, out_dim]`), ReLU between layers. Allocation-free
    /// once warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * in_dim()`.
    pub fn forward_into(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &mut ModelScratch,
        out: &mut Vec<f32>,
    ) {
        let ModelScratch {
            quant,
            act_a,
            act_b,
        } = scratch;
        let last = self.layers.len() - 1;
        if last == 0 {
            self.layers[0].forward_into(x, rows, quant, out);
            return;
        }
        self.layers[0].forward_act_into(x, rows, quant, act_a, true);
        let (mut src, mut dst) = (act_a, act_b);
        for layer in &self.layers[1..last] {
            layer.forward_act_into(src, rows, quant, dst, true);
            std::mem::swap(&mut src, &mut dst);
        }
        self.layers[last].forward_into(src, rows, quant, out);
    }

    /// Allocating convenience wrapper over [`QuantizedModel::forward_into`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut scratch = ModelScratch::new();
        let mut out = Vec::new();
        self.forward_into(x.as_slice(), x.rows(), &mut scratch, &mut out);
        Tensor::from_vec(x.rows(), self.out_dim(), out).expect("shape correct by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.5..1.5)).collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn quantize_row_roundtrip_error_is_below_half_step() {
        let t = random_tensor(1, 64, 3);
        let mut q = vec![0i8; 64];
        let p = quantize_row(t.row(0), &mut q);
        for (&v, &qv) in t.row(0).iter().zip(&q) {
            let back = p.scale * (qv as i32 - p.zero_point) as f32;
            assert!(
                (v - back).abs() <= p.scale * 0.5 + 1e-6,
                "v={v} back={back} scale={}",
                p.scale
            );
        }
        assert_eq!(p.qsum, q.iter().map(|&v| v as i32).sum::<i32>());
    }

    #[test]
    fn zero_maps_to_zero_exactly() {
        let mut q = vec![0i8; 4];
        let p = quantize_row(&[-3.0, 0.0, 5.0, 0.0], &mut q);
        let back = p.scale * (q[1] as i32 - p.zero_point) as f32;
        assert_eq!(back, 0.0);
    }

    #[test]
    fn constant_and_empty_rows_survive() {
        let mut q = vec![0i8; 3];
        let p = quantize_row(&[2.5, 2.5, 2.5], &mut q);
        for &qv in &q {
            let back = p.scale * (qv as i32 - p.zero_point) as f32;
            assert!((back - 2.5).abs() < 0.02, "back={back}");
        }
        let p0 = quantize_row(&[0.0, 0.0, 0.0], &mut q);
        assert_eq!(q, vec![0, 0, 0]);
        assert_eq!(p0.qsum, 0);
        let pe = quantize_row(&[], &mut []);
        assert_eq!(pe.qsum, 0);
    }

    #[test]
    fn quantized_linear_tracks_f32_linear() {
        let layer = Linear::new(24, 8, 42);
        let ql = QuantizedLinear::from_linear(&layer);
        let x = random_tensor(5, 24, 7);
        let exact = layer.infer(&x);
        let approx = ql.forward(&x);
        assert_eq!(approx.shape(), exact.shape());
        let scale = exact.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (e, a) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!(
                (e - a).abs() < 0.02 * scale.max(1.0),
                "exact={e} approx={a}"
            );
        }
    }

    #[test]
    fn one_non_finite_value_does_not_blank_the_row() {
        let finite = [-3.0f32, 0.5, 5.0, 1.25, -0.75];
        let mut want = vec![0i8; 5];
        let p_want = quantize_row(&finite, &mut want);
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut row = finite.to_vec();
            row.insert(2, bad);
            let mut q = vec![0i8; 6];
            let p = quantize_row(&row, &mut q);
            // The finite values keep the range they would have alone, and
            // the non-finite one sits on the zero point.
            assert_eq!((p.scale, p.zero_point), (p_want.scale, p_want.zero_point));
            assert_eq!(q[2] as i32, p.zero_point, "bad={bad}");
            q.remove(2);
            assert_eq!(q, want, "bad={bad}");
            assert_eq!(p.qsum, p_want.qsum + p.zero_point);
        }
        let mut q = vec![7i8; 3];
        let p = quantize_row(&[f32::INFINITY, f32::NAN, f32::NEG_INFINITY], &mut q);
        assert_eq!((q, p.qsum), (vec![0, 0, 0], 0));
    }

    #[test]
    fn f32_codes_equal_i8_codes() {
        let t = random_tensor(3, 133, 17);
        for r in 0..3 {
            let (mut qi, mut qf) = (vec![0i8; 133], vec![0.0f32; 133]);
            let pi = quantize_row(t.row(r), &mut qi);
            let pf = quantize_codes(t.row(r), &mut qf, |q| q as f32);
            assert_eq!(pi, pf);
            assert!(qi.iter().zip(&qf).all(|(&i, &f)| f32::from(i) == f));
        }
    }

    #[test]
    fn integer_conversions_are_exact_over_their_whole_range() {
        for v in -(1i32 << 22)..=1 << 22 {
            assert_eq!(small_i32(v as f32), v);
        }
        for x in -(1i32 << 24)..=1 << 24 {
            assert_eq!(block_sum_i32(x as f32), x);
        }
    }

    #[test]
    fn quantized_model_matches_layered_forward() {
        let l1 = Linear::new(8, 16, 1);
        let l2 = Linear::new(16, 4, 2);
        let qm = QuantizedModel::from_linears(&[&l1, &l2]);
        assert_eq!(qm.in_dim(), 8);
        assert_eq!(qm.out_dim(), 4);
        let x = random_tensor(3, 8, 9);
        let exact = l2.infer(&l1.infer(&x).map(|v| v.max(0.0)));
        let approx = qm.forward(&x);
        let scale = exact.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (e, a) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!(
                (e - a).abs() < 0.05 * scale.max(1.0),
                "exact={e} approx={a}"
            );
        }
    }

    #[test]
    fn fused_relu_equals_relu_between_layer_forwards() {
        // Three layers: both ping-pong buffers and both fused passes.
        let layers = [
            Linear::new(8, 40, 1),
            Linear::new(40, 9, 2),
            Linear::new(9, 5, 3),
        ];
        let qm = QuantizedModel::from_linears(&[&layers[0], &layers[1], &layers[2]]);
        let x = random_tensor(7, 8, 9);
        let mut want = x.clone();
        for (i, layer) in layers.iter().enumerate() {
            want = QuantizedLinear::from_linear(layer).forward(&want);
            if i + 1 < layers.len() {
                want = want.map(|v| v.max(0.0));
            }
        }
        assert_eq!(qm.forward(&x).as_slice(), want.as_slice());
    }

    #[test]
    fn quantized_sizes_are_about_4x_smaller() {
        let layer = Linear::new(64, 64, 0);
        let ql = QuantizedLinear::from_linear(&layer);
        let fp32 = 4 * (64 * 64 + 64);
        assert!(ql.size_bytes() < fp32 / 2, "{} vs {fp32}", ql.size_bytes());
        let table = random_tensor(100, 24, 5);
        let qt = QuantizedTable::from_tensor(&table);
        assert!(qt.size_bytes() < 100 * 24 * 4 / 2);
        let mut row = vec![0.0f32; 24];
        qt.dequantize_row_into(17, &mut row);
        for (d, &v) in row.iter().zip(table.row(17)) {
            assert!((d - v).abs() < 0.02, "d={d} v={v}");
        }
    }

    #[test]
    fn warm_forward_into_reuses_buffers() {
        let layer = Linear::new(12, 6, 4);
        let ql = QuantizedLinear::from_linear(&layer);
        let x = random_tensor(4, 12, 11);
        let mut scratch = QuantScratch::new();
        let mut out = Vec::new();
        ql.forward_into(x.as_slice(), 4, &mut scratch, &mut out);
        let first = out.clone();
        let cap = (out.capacity(), scratch.qx.capacity(), scratch.xq.capacity());
        ql.forward_into(x.as_slice(), 4, &mut scratch, &mut out);
        assert_eq!(out, first, "quantized forward must be deterministic");
        assert_eq!(
            cap,
            (out.capacity(), scratch.qx.capacity(), scratch.xq.capacity()),
            "warm forward_into grew a buffer"
        );
    }
}
