//! Weight initialization schemes.

use crate::rng::{fill_standard_normal, seeded_rng};
use crate::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight
/// matrix: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
///
/// Keeps forward/backward signal variance roughly constant across layers,
/// which matters for the small semantic codecs trained in this workspace.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    let mut rng = seeded_rng(seed);
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-a..=a))
        .collect();
    Tensor::from_vec(fan_in, fan_out, data).expect("generated exactly fan_in*fan_out values")
}

/// He/Kaiming normal initialization: `N(0, sqrt(2 / fan_in))`, appropriate
/// for ReLU layers.
pub fn he_normal(fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    normal_init(fan_in, fan_out, (2.0 / fan_in as f32).sqrt(), seed)
}

/// Scaled normal initialization `N(0, std)` used for embedding tables.
pub fn normal_init(rows: usize, cols: usize, std: f32, seed: u64) -> Tensor {
    let mut w = Tensor::zeros(rows, cols);
    fill_standard_normal(&mut seeded_rng(seed), w.as_mut_slice());
    w.map_inplace(|z| z * std);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_hold() {
        let w = xavier_uniform(16, 64, 3);
        let a = (6.0f32 / 80.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= a + 1e-6));
        assert_eq!(w.shape(), (16, 64));
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        assert_eq!(xavier_uniform(4, 4, 9), xavier_uniform(4, 4, 9));
        assert_ne!(
            xavier_uniform(4, 4, 9).as_slice(),
            xavier_uniform(4, 4, 10).as_slice()
        );
    }

    #[test]
    fn he_normal_variance_close_to_target() {
        let w = he_normal(256, 64, 7);
        let var = w.as_slice().iter().map(|x| x * x).sum::<f32>() / w.len() as f32;
        assert!((var - 2.0 / 256.0).abs() < 2.0 / 256.0 * 0.2, "var {var}");
    }

    #[test]
    fn normal_init_shape_and_spread() {
        let w = normal_init(10, 8, 0.5, 2);
        assert_eq!(w.shape(), (10, 8));
        assert!(w.as_slice().iter().any(|&x| x != 0.0));
    }
}
