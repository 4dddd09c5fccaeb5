//! Loss functions returning `(loss, gradient-w.r.t.-input)`.

use crate::Tensor;

/// Writes the stabilised exponentials `exp(v − max(row))` of one logit row
/// into `exps` and returns their sum — the part [`softmax`] and
/// [`softmax_cross_entropy`] share.
fn row_exps(row: &[f32], exps: &mut [f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (e, &v) in exps.iter_mut().zip(row) {
        *e = (v - max).exp();
    }
    exps.iter().sum()
}

/// Numerically-stable row-wise softmax.
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let probs = out.row_mut(r);
        let sum = row_exps(logits.row(r), probs);
        for p in probs {
            *p /= sum;
        }
    }
    out
}

/// Mean softmax cross-entropy over a batch of logits `[batch, classes]`
/// against integer `targets`.
///
/// Returns `(mean loss, d loss / d logits)` — the gradient already includes
/// the `1/batch` factor, so it can be fed straight into `backward`.
///
/// Fused: each row goes max → `exp` → sum → `(e / sum) · (1/batch)`
/// straight into the gradient tensor, with `((e / sum) − 1) · (1/batch)` at
/// the target column. Those are the per-element operations, in the order,
/// of [`softmax`] followed by subtracting the one-hot target and scaling,
/// so the result is bit-identical to that composed form without its three
/// intermediate tensors.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or any target is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        targets.len(),
        logits.rows(),
        "one target per logit row required"
    );
    let n = logits.rows().max(1) as f32;
    let inv_n = 1.0 / n;
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(logits.rows(), logits.cols());
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target {t} out of range");
        let g = grad.row_mut(r);
        let sum = row_exps(logits.row(r), g);
        let p_target = g[t] / sum;
        loss -= p_target.max(1e-12).ln();
        for e in g.iter_mut() {
            *e = *e / sum * inv_n;
        }
        g[t] = (p_target - 1.0) * inv_n;
    }
    (loss / n, grad)
}

/// Mean-squared error between `pred` and `target`.
///
/// Returns `(mean loss, d loss / d pred)`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let diff = pred - target;
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
    (loss, diff.scale(2.0 / n))
}

/// Fraction of rows whose argmax equals the target class.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()`.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    assert_eq!(targets.len(), logits.rows());
    if targets.is_empty() {
        return 0.0;
    }
    let correct = targets
        .iter()
        .enumerate()
        .filter(|&(r, &t)| logits.argmax_row(r) == t)
        .count();
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let p = softmax(&l);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let l = Tensor::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]).unwrap();
        let p = softmax(&l);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        let l2 = Tensor::from_vec(1, 3, vec![0.0, 1.0, 2.0]).unwrap();
        let p2 = softmax(&l2);
        for (a, b) in p.as_slice().iter().zip(p2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let l = Tensor::from_vec(1, 3, vec![20.0, 0.0, 0.0]).unwrap();
        let (loss, _) = softmax_cross_entropy(&l, &[0]);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_classes() {
        let l = Tensor::zeros(4, 5);
        let (loss, _) = softmax_cross_entropy(&l, &[0, 1, 2, 3]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let mut l = Tensor::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]).unwrap();
        let targets = [2, 0];
        let (_, grad) = softmax_cross_entropy(&l, &targets);
        let eps = 1e-3;
        for i in 0..l.len() {
            let orig = l.as_slice()[i];
            l.as_mut_slice()[i] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&l, &targets);
            l.as_mut_slice()[i] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&l, &targets);
            l.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[i]).abs() < 1e-3,
                "grad[{i}]: {num} vs {}",
                grad.as_slice()[i]
            );
        }
    }

    /// [`softmax`] as shipped before it shared [`row_exps`].
    fn softmax_reference(logits: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                out.set(r, c, e / sum);
            }
        }
        out
    }

    /// [`softmax_cross_entropy`] as shipped before it was fused: softmax →
    /// copy → subtract the one-hot target → `scale`.
    fn composed_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        let probs = softmax_reference(logits);
        let n = logits.rows().max(1) as f32;
        let mut loss = 0.0;
        let mut grad = probs.clone();
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).max(1e-12).ln();
            grad.set(r, t, grad.get(r, t) - 1.0);
        }
        (loss / n, grad.scale(1.0 / n))
    }

    #[test]
    fn fused_cross_entropy_is_bit_identical_to_the_composed_form() {
        use crate::rng::seeded_rng;
        use rand::Rng;
        let mut rng = seeded_rng(17);
        // 1-row batch, odd widths, a 64-row minibatch, a single class.
        for (rows, cols) in [(1, 5), (3, 1), (7, 13), (64, 138), (65, 33)] {
            let data = (0..rows * cols)
                .map(|_| (rng.gen::<f32>() - 0.5) * 40.0)
                .collect();
            let mut logits = Tensor::from_vec(rows, cols, data).unwrap();
            // One row of equal logits (uniform softmax, exp(0) everywhere).
            logits.row_mut(rows / 2).fill(3.25);
            let targets: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols)).collect();
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&softmax(&logits)),
                bits(&softmax_reference(&logits)),
                "softmax at {rows}x{cols}"
            );
            let (loss, grad) = softmax_cross_entropy(&logits, &targets);
            let (want_loss, want_grad) = composed_cross_entropy(&logits, &targets);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss at {rows}x{cols}");
            assert_eq!(bits(&grad), bits(&want_grad), "gradient at {rows}x{cols}");
        }
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let mut p = Tensor::from_vec(1, 3, vec![0.2, 0.9, -0.4]).unwrap();
        let t = Tensor::from_vec(1, 3, vec![0.0, 1.0, 0.0]).unwrap();
        let (_, grad) = mse(&p, &t);
        let eps = 1e-3;
        for i in 0..p.len() {
            let orig = p.as_slice()[i];
            p.as_mut_slice()[i] = orig + eps;
            let (lp, _) = mse(&p, &t);
            p.as_mut_slice()[i] = orig - eps;
            let (lm, _) = mse(&p, &t);
            p.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - grad.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let l = Tensor::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        assert_eq!(accuracy(&l, &[0, 1]), 1.0);
        assert_eq!(accuracy(&l, &[1, 0]), 0.0);
        assert_eq!(accuracy(&l, &[0, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "one target per logit row")]
    fn cross_entropy_rejects_target_mismatch() {
        softmax_cross_entropy(&Tensor::zeros(2, 2), &[0]);
    }
}
