//! Gradient-descent optimizers, and the one data-parallel training step
//! every model in the workspace shares ([`sharded_step`]).

use crate::params::Param;
use crate::rng::seeded_rng;
use crate::Tensor;
use rand::RngCore;
use std::ops::Range;

/// An optimizer updating parameters in place from their accumulated
/// gradients.
///
/// Implementations keep per-parameter state **by position**, so each `step`
/// must be called with the same parameter list in the same order (the list
/// returned by a model's `params_mut` is stable).
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Stochastic gradient descent with optional momentum and gradient clipping.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    clip: Option<f32>,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            clip: None,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Clips each gradient element to `[-c, c]` before the update.
    #[must_use]
    pub fn with_clip(mut self, c: f32) -> Self {
        self.clip = Some(c);
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        while self.velocity.len() < params.len() {
            let i = self.velocity.len();
            self.velocity.push(vec![0.0; params[i].value.len()]);
        }
        for (i, p) in params.iter_mut().enumerate() {
            let vel = &mut self.velocity[i];
            assert_eq!(vel.len(), p.value.len(), "optimizer param order changed");
            for ((w, &g), v) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(vel.iter_mut())
            {
                let g = match self.clip {
                    Some(c) => g.clamp(-c, c),
                    None => g,
                };
                *v = self.momentum * *v + g;
                *w -= self.lr * *v;
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// The update walks each parameter **row by row** over zipped slices of
/// value, gradient and both moments, so the per-element `div`/`sqrt` chain
/// has no index to bounds-check and vectorises.
///
/// Rows that have never received a non-zero gradient are skipped: with
/// `m = v = g = 0` the step computes `m = v = 0` and
/// `w − lr·0/(√0 + ε) = w − 0 = w`, so skipping it changes no bit of the
/// value or of either moment. (`−0.0` counts as zero — it leaves `m`, `v`
/// at `+0.0` — and `NaN` counts as non-zero; under a negative or
/// non-finite learning rate that `0` is `−0.0` or `NaN`, and `step` then
/// skips nothing.) Once a row has seen a gradient its moments keep
/// decaying on later zero-gradient steps, so it stays active for good. An
/// embedding table, where a fine-tune round touches a few dozen of several
/// hundred rows, pays for the touched rows only; the state is one `bool`
/// per parameter row.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Per parameter, per row: has this row ever had a non-zero gradient?
    active: Vec<Vec<bool>>,
}

impl Adam {
    /// Adam with the standard defaults (`β1 = 0.9`, `β2 = 0.999`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            active: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate.
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        while self.m.len() < params.len() {
            let p = &params[self.m.len()];
            self.m.push(vec![0.0; p.value.len()]);
            self.v.push(vec![0.0; p.value.len()]);
            self.active.push(vec![false; p.value.rows()]);
        }
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        // What the loop below subtracts from a weight whose `m = v = g = 0`.
        // Skipping is exact only while that is `+0.0`: a negative `lr` makes
        // it `−0.0` (which flips a `−0.0` weight), a non-finite one `NaN`.
        let idle_update = lr * (0.0 / bc1) / ((0.0f32 / bc2).sqrt() + eps);
        let may_skip = idle_update.to_bits() == 0;
        for (i, p) in params.iter_mut().enumerate() {
            assert!(
                self.m[i].len() == p.value.len() && self.active[i].len() == p.value.rows(),
                "optimizer param order changed"
            );
            let cols = p.value.cols();
            if cols == 0 {
                continue;
            }
            let rows = p
                .value
                .as_mut_slice()
                .chunks_exact_mut(cols)
                .zip(p.grad.as_slice().chunks_exact(cols))
                .zip(self.m[i].chunks_exact_mut(cols))
                .zip(self.v[i].chunks_exact_mut(cols))
                .zip(self.active[i].iter_mut());
            for ((((w_row, g_row), m_row), v_row), active) in rows {
                // Not `any`: the short-circuit would keep the scan scalar.
                if may_skip && !*active && !g_row.iter().fold(false, |nz, &g| nz | (g != 0.0)) {
                    continue;
                }
                *active = true;
                for (((w, &g), m), v) in w_row.iter_mut().zip(g_row).zip(m_row).zip(v_row) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *w -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }
}

/// The number of data-parallel shards a `rows`-row minibatch splits into:
/// one per `semcom-par` worker, at most one per `min_shard_rows` rows, and
/// one (the serial step) below `min_batch` rows or inside a worker, where
/// nested parallelism would serialize anyway. The only place training
/// reads the worker count.
pub fn shard_count(rows: usize, min_shard_rows: usize, min_batch: usize) -> usize {
    if rows < min_batch || semcom_par::in_worker() {
        return 1;
    }
    semcom_par::max_workers().min(rows / min_shard_rows).max(1)
}

/// One optimizer step over a `rows`-row minibatch, serial or data-parallel;
/// returns the minibatch loss.
///
/// `backprop(model, range, rng)` runs forward + backward over rows `range`,
/// leaving the gradients in `params(model)`, and returns their mean loss.
/// One shard is the serial step: `backprop` over every row of `model`
/// itself with the caller's `rng` (no seed drawn), then `opt` steps.
/// Otherwise the rows split into `shards` contiguous ranges (the first
/// `rows % shards` one row longer), each with a seed drawn from `rng` in
/// shard order before any parallel work, and each runs on its own clone of
/// `model` with an RNG seeded from its seed. Losses and gradients reduce in shard
/// order, weighted by each range's share of the rows (the full-batch
/// mean); the sum is installed into `params(model)` and `opt` steps once.
/// The result depends on the shard count, never on the schedule.
///
/// # Panics
///
/// Panics unless `1 <= shards <= rows`.
pub fn sharded_step<M, O>(
    model: &mut M,
    rows: usize,
    shards: usize,
    rng: &mut dyn RngCore,
    opt: &mut O,
    backprop: impl Fn(&mut M, Range<usize>, &mut dyn RngCore) -> f32 + Sync,
    params: fn(&mut M) -> Vec<&mut Param>,
) -> f32
where
    M: Clone + Sync,
    O: Optimizer + ?Sized,
{
    assert!(
        (1..=rows).contains(&shards),
        "{shards} shards for {rows} rows"
    );
    if shards == 1 {
        let loss = backprop(model, 0..rows, rng);
        opt.step(&mut params(model));
        return loss;
    }
    let (base, extra) = (rows / shards, rows % shards);
    let mut jobs = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let end = start + base + usize::from(s < extra);
        jobs.push((start..end, rng.next_u64()));
        start = end;
    }
    let model_ref = &*model;
    let results = semcom_par::par_map_indexed(&jobs, |_, (range, seed)| {
        let mut replica = model_ref.clone();
        let loss = backprop(&mut replica, range.clone(), &mut seeded_rng(*seed));
        let grads: Vec<Tensor> = params(&mut replica)
            .into_iter()
            .map(|p| std::mem::replace(&mut p.grad, Tensor::zeros(0, 0)))
            .collect();
        (loss, grads)
    });

    let mut params = params(model);
    let mut total_loss = 0.0;
    for (s, ((range, _), (loss, grads))) in jobs.iter().zip(&results).enumerate() {
        let w = range.len() as f32 / rows as f32;
        total_loss += w * loss;
        for (p, g) in params.iter_mut().zip(grads) {
            if s == 0 {
                p.grad = g.scale(w);
            } else {
                p.grad.add_scaled(g, w);
            }
        }
    }
    opt.step(&mut params);
    total_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{DenseLayer, Linear};
    use crate::loss::mse;
    use crate::Tensor;

    fn train<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        // Fit y = 3x - 1.
        let mut layer = Linear::new(1, 1, 7);
        let x = Tensor::from_vec(8, 1, (0..8).map(|i| i as f32 * 0.25).collect()).unwrap();
        let y = x.map(|v| 3.0 * v - 1.0);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let pred = layer.forward(&x);
            let (l, d) = mse(&pred, &y);
            last = l;
            layer.zero_grad();
            layer.backward(&d);
            opt.step(&mut layer.params_mut());
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.1);
        assert!(train(&mut opt, 500) < 1e-3);
    }

    #[test]
    fn momentum_accelerates_sgd() {
        let plain = train(&mut Sgd::new(0.02), 120);
        let with_m = train(&mut Sgd::new(0.02).with_momentum(0.9), 120);
        assert!(with_m < plain, "momentum {with_m} vs plain {plain}");
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.05);
        assert!(train(&mut opt, 500) < 1e-3);
    }

    /// The dense scalar Adam loop this crate shipped before the row-sparse
    /// rewrite, kept as the bit-exactness reference for [`Adam::step`].
    struct DenseAdam {
        t: u64,
        m: Vec<Vec<f32>>,
        v: Vec<Vec<f32>>,
    }

    impl DenseAdam {
        fn step(&mut self, lr: f32, params: &mut [Param]) {
            let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            while self.m.len() < params.len() {
                let i = self.m.len();
                self.m.push(vec![0.0; params[i].value.len()]);
                self.v.push(vec![0.0; params[i].value.len()]);
            }
            self.t += 1;
            let bc1 = 1.0 - beta1.powi(self.t as i32);
            let bc2 = 1.0 - beta2.powi(self.t as i32);
            for (i, p) in params.iter_mut().enumerate() {
                let (m, v) = (&mut self.m[i], &mut self.v[i]);
                for (j, (w, &g)) in p
                    .value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(p.grad.as_slice())
                    .enumerate()
                {
                    m[j] = beta1 * m[j] + (1.0 - beta1) * g;
                    v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
                    let m_hat = m[j] / bc1;
                    let v_hat = v[j] / bc2;
                    *w -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Steps [`Adam`] and [`DenseAdam`] through the same 24 gradients,
    /// comparing every value and moment bit after every step.
    fn adam_against_dense(lr: f32) -> (Adam, Vec<Param>) {
        use crate::rng::seeded_rng;
        use rand::Rng;
        let mut rng = seeded_rng(31);
        let mut randn = |rows: usize, cols: usize| {
            let data = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
            Tensor::from_vec(rows, cols, data).unwrap()
        };
        // An embedding-like table whose rows go active one at a time, a
        // dense weight (width not a multiple of any SIMD lane count), a 1×n
        // bias, and a parameter that never receives a gradient.
        let mut fast = vec![
            Param::new(randn(12, 7)),
            Param::new(randn(5, 19)),
            Param::new(randn(1, 9)),
            Param::new(randn(4, 3)),
        ];
        fast[3].value.set(2, 1, -0.0);
        let mut dense = fast.clone();
        let mut opt = Adam::new(lr);
        let mut reference = DenseAdam {
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        };
        for step in 0..24usize {
            let mut grads = vec![
                Tensor::zeros(12, 7),
                randn(5, 19),
                randn(1, 9),
                Tensor::zeros(4, 3),
            ];
            // Table row r first sees a gradient at step 2·r (rows 0..=11 go
            // active late, one by one), then only every third step, so
            // active rows also take zero-gradient decay steps.
            for r in 0..12 {
                if step >= 2 * r && (step - 2 * r) % 3 == 0 {
                    let fresh = randn(1, 7);
                    grads[0].row_mut(r).copy_from_slice(fresh.as_slice());
                }
            }
            // Signed zeros must not activate a row; NaN must.
            grads[0].set(11, 0, -0.0);
            grads[0].set(11, 3, 0.0);
            grads[1].set(2, 4, -0.0);
            if step == 9 {
                grads[1].set(3, 18, f32::NAN);
                grads[0].set(10, 6, f32::NAN);
            }
            for ((f, d), g) in fast.iter_mut().zip(&mut dense).zip(grads) {
                f.grad = g.clone();
                d.grad = g;
            }
            opt.step(&mut fast.iter_mut().collect::<Vec<_>>());
            reference.step(lr, &mut dense);
            for (i, (f, d)) in fast.iter().zip(&dense).enumerate() {
                assert_eq!(
                    bits(f.value.as_slice()),
                    bits(d.value.as_slice()),
                    "value of param {i} at step {step}"
                );
                assert_eq!(bits(&opt.m[i]), bits(&reference.m[i]), "m[{i}] step {step}");
                assert_eq!(bits(&opt.v[i]), bits(&reference.v[i]), "v[{i}] step {step}");
            }
        }
        (opt, fast)
    }

    #[test]
    fn adam_is_bit_identical_to_the_dense_scalar_loop() {
        let (opt, params) = adam_against_dense(0.01);
        // The skip really happened: the never-touched parameter has no
        // active row, the table's last row only signed zeros until step 22.
        assert!(opt.active[3].iter().all(|&a| !a));
        assert!(opt.active[0].iter().all(|&a| a));
        assert!(params[1].value.as_slice().iter().any(|w| w.is_nan()));
    }

    #[test]
    fn adam_does_not_skip_when_an_idle_update_is_not_positive_zero() {
        // `w − (−0.0)` turns a `−0.0` weight into `+0.0`, and an infinite
        // rate turns every weight into NaN, gradient or not.
        let (_, params) = adam_against_dense(-0.01);
        assert_eq!(params[3].value.get(2, 1).to_bits(), 0.0f32.to_bits());
        let (_, params) = adam_against_dense(f32::INFINITY);
        assert!(params[3].value.as_slice().iter().all(|w| w.is_nan()));
    }

    #[test]
    fn clip_limits_update_magnitude() {
        let mut p = Param::new(Tensor::zeros(1, 1));
        p.grad.set(0, 0, 1000.0);
        let mut opt = Sgd::new(1.0).with_clip(0.5);
        opt.step(&mut [&mut p]);
        assert!((p.value.get(0, 0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn shard_count_never_shards_small_batches() {
        // Worker-count independent: the global count may be anything here.
        assert_eq!(shard_count(255, 64, 256), 1);
        assert_eq!(shard_count(15, 8, 8), 1);
        assert!(shard_count(300, 64, 256) <= 300 / 64);
        assert!(shard_count(40, 8, 8) >= 1);
    }

    fn batch_rows(t: &Tensor, r: Range<usize>) -> Tensor {
        let c = t.cols();
        Tensor::from_vec(r.len(), c, t.as_slice()[r.start * c..r.end * c].to_vec()).unwrap()
    }

    /// A 10-row regression batch.
    fn batch() -> (Tensor, Tensor) {
        let x =
            Tensor::from_vec(10, 2, (0..20).map(|i| (i as f32 * 0.37).sin()).collect()).unwrap();
        let y = Tensor::from_vec(10, 1, (0..10).map(|i| i as f32 * 0.1).collect()).unwrap();
        (x, y)
    }

    /// Forward + backward of `layer` over rows `r` of the batch, targets
    /// jittered by `rng`; the loss.
    fn noisy_backprop(layer: &mut Linear, r: Range<usize>, rng: &mut dyn RngCore) -> f32 {
        use rand::Rng;
        let (x, y) = batch();
        let mut y = batch_rows(&y, r.clone());
        for v in y.as_mut_slice() {
            *v += 0.01 * rng.gen::<f32>();
        }
        let (loss, d) = mse(&layer.forward(&batch_rows(&x, r)), &y);
        layer.zero_grad();
        layer.backward(&d);
        loss
    }

    fn bits_of(layer: &mut Linear) -> Vec<u32> {
        layer
            .params_mut()
            .iter()
            .flat_map(|p| bits(p.value.as_slice()))
            .collect()
    }

    /// One shard is the serial step, to the bit: `backprop` on the model
    /// itself with the caller's RNG, no seed drawn, then `opt.step`.
    #[test]
    fn one_shard_is_the_serial_step() {
        let mut rng = crate::rng::seeded_rng(4);
        let mut serial = Linear::new(2, 1, 3);
        let mut opt = Adam::new(0.1);
        let serial_loss = noisy_backprop(&mut serial, 0..10, &mut rng);
        opt.step(&mut serial.params_mut());
        let after_serial = rng.next_u64();

        let mut rng = crate::rng::seeded_rng(4);
        let mut stepped = Linear::new(2, 1, 3);
        let loss = sharded_step(
            &mut stepped,
            10,
            1,
            &mut rng,
            &mut Adam::new(0.1),
            noisy_backprop,
            Linear::params_mut,
        );
        assert_eq!(loss.to_bits(), serial_loss.to_bits());
        assert_eq!(bits_of(&mut stepped), bits_of(&mut serial));
        assert_eq!(rng.next_u64(), after_serial, "RNG advanced by other draws");
    }

    /// Three uneven shards of a 10-row MSE batch reduce to the full-batch
    /// step, up to float reassociation.
    #[test]
    fn sharded_step_matches_the_full_batch_step() {
        let backprop = |layer: &mut Linear, r: Range<usize>, _: &mut dyn RngCore| {
            let (x, y) = batch();
            let (loss, d) = mse(
                &layer.forward(&batch_rows(&x, r.clone())),
                &batch_rows(&y, r),
            );
            layer.zero_grad();
            layer.backward(&d);
            loss
        };
        let mut rng = crate::rng::seeded_rng(1);
        let mut serial = Linear::new(2, 1, 3);
        let serial_loss = backprop(&mut serial, 0..10, &mut rng);
        Sgd::new(0.1).step(&mut serial.params_mut());

        let mut sharded = Linear::new(2, 1, 3);
        let loss = sharded_step(
            &mut sharded,
            10,
            3,
            &mut rng,
            &mut Sgd::new(0.1),
            backprop,
            Linear::params_mut,
        );
        assert!((loss - serial_loss).abs() < 1e-6, "{loss} vs {serial_loss}");
        for (a, b) in sharded.params_mut().iter().zip(serial.params_mut()) {
            for (u, v) in a.value.as_slice().iter().zip(b.value.as_slice()) {
                assert!((u - v).abs() < 1e-6, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
