//! Weight initializers.
//!
//! Each initializer consumes randomness from an explicit [`Pcg32`], so that
//! §2.3's "set the seed" discipline makes model construction bit-reproducible.
//! The generator is wrapped in a [`Fill`]: a model about to be overwritten
//! by a stored state dict is built from [`Fill::Skeleton`] instead, which
//! draws nothing and leaves every random tensor zeroed.
//! The set mirrors what torchvision's five evaluation models actually use:
//! Kaiming (He) init for conv layers, uniform fan-in init for linear layers,
//! constants for batch-norm, and — only in GoogLeNet — an expensive truncated
//! normal, whose cost the paper's Fig. 12 highlights.

use crate::prng::Pcg32;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Counter of tensor elements written by seeded initialization: one
/// increment per [`Init::materialize`] call, by the tensor's element count.
/// Skeleton fills add nothing, so a recovery that skips the init reads 0.
const INIT_ELEMS_TOTAL: &str = "mmlib_tensor_init_elems_total";

/// Where [`Init::materialize`] takes its values from.
#[derive(Debug)]
pub enum Fill<'a> {
    /// Draw from this seeded generator: the architecture's real init.
    Seeded(&'a mut Pcg32),
    /// Draw nothing. Random rules yield zeros, constant rules their
    /// constant; the tensors are placeholders for stored state.
    Skeleton,
}

/// Which initialization rule to apply to a parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Init {
    /// All zeros (biases, BN running means).
    Zeros,
    /// All ones (BN scale, BN running vars).
    Ones,
    /// A constant fill.
    Constant(f32),
    /// Uniform in `[-bound, bound]` with `bound = sqrt(6 / ((1+a²)·fan_in))`
    /// — Kaiming/He uniform as used by PyTorch conv defaults (`a = √5`).
    KaimingUniform {
        /// Negative-slope parameter of the assumed leaky ReLU.
        a: f32,
    },
    /// Normal with `std = sqrt(2 / fan_out)` — He normal (ResNet conv init).
    KaimingNormalFanOut,
    /// Uniform in `[-1/sqrt(fan_in), 1/sqrt(fan_in)]` (PyTorch linear/bias).
    UniformFanIn,
    /// Xavier/Glorot uniform: `bound = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Truncated normal on `[-2σ, 2σ]` via rejection sampling (GoogLeNet).
    ///
    /// Deliberately implemented with the same rejection scheme as
    /// scipy.stats.truncnorm-backed torchvision code; its cost is what makes
    /// GoogLeNet's recovery disproportionately slow in the paper's Fig. 12.
    TruncatedNormal {
        /// Standard deviation of the underlying normal.
        std: f32,
    },
    /// Truncated normal on `[-2σ, 2σ]` via the inverse-CDF (ppf) method.
    ///
    /// This reproduces the *cost profile* of torchvision's original
    /// GoogLeNet initializer, which sampled through
    /// `scipy.stats.truncnorm.ppf`: one high-precision inverse-error-function
    /// evaluation per parameter (here: Newton iterations on an `erf` series
    /// in `f64`). The paper's Fig. 12 attributes GoogLeNet's ~7× slower
    /// initialization — and thus its recovery-time anomaly — to exactly this
    /// routine, so we keep the expensive method rather than the cheap
    /// rejection sampler used by [`Init::TruncatedNormal`].
    TruncatedNormalPpf {
        /// Standard deviation of the underlying normal.
        std: f32,
    },
}

/// Error function via its Maclaurin series (converges for the |x| ≤ 2 range
/// the truncated-normal sampler needs). Deliberately the straightforward,
/// high-iteration implementation — see [`Init::TruncatedNormalPpf`].
fn erf_series(x: f64) -> f64 {
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    for n in 1..64 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < sum.abs() * 1e-17 {
            break;
        }
    }
    sum * std::f64::consts::FRAC_2_SQRT_PI
}

/// Inverse error function via Newton iterations on [`erf_series`].
fn erfinv_newton(y: f64) -> f64 {
    debug_assert!((-1.0..=1.0).contains(&y));
    // Initial guess from the Winitzki approximation; Newton polish to f64
    // precision. Each iteration re-evaluates the erf series — the expense is
    // the point (see `Init::TruncatedNormalPpf`).
    let a = 0.147f64;
    let ln1my2 = (1.0 - y * y).max(f64::MIN_POSITIVE).ln();
    let term = 2.0 / (std::f64::consts::PI * a) + ln1my2 / 2.0;
    let mut x = y.signum() * ((term * term - ln1my2 / a).sqrt() - term).max(0.0).sqrt();
    for _ in 0..4 {
        let err = erf_series(x) - y;
        // d/dx erf(x) = 2/sqrt(pi) · exp(-x²)
        let deriv = std::f64::consts::FRAC_2_SQRT_PI * (-x * x).exp();
        if deriv.abs() < 1e-300 || err.abs() < 1e-12 {
            break;
        }
        x -= err / deriv;
    }
    x
}

/// Standard-normal CDF via the erf series.
fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf_series(x / std::f64::consts::SQRT_2))
}

/// One truncated-normal sample on `[cdf_lo, cdf_hi]` (precomputed CDF
/// bounds) via the inverse CDF.
fn truncnorm_ppf_sample(rng: &mut Pcg32, cdf_lo: f64, cdf_hi: f64) -> f64 {
    let u = cdf_lo + (cdf_hi - cdf_lo) * rng.next_f64();
    std::f64::consts::SQRT_2 * erfinv_newton(2.0 * u - 1.0)
}

/// Fan-in / fan-out of a parameter tensor, PyTorch conventions:
/// linear `[out, in]`, conv `[out, in/groups, k, k]`.
pub fn fan_in_out(shape: &Shape) -> (usize, usize) {
    let dims = shape.dims();
    match dims.len() {
        0 => (1, 1),
        1 => (dims[0], dims[0]),
        2 => (dims[1], dims[0]),
        _ => {
            let receptive: usize = dims[2..].iter().product();
            (dims[1] * receptive, dims[0] * receptive)
        }
    }
}

impl Init {
    /// Materializes a tensor of `shape` using this rule, drawing from
    /// `fill`. A [`Fill::Skeleton`] draws no samples.
    pub fn materialize(self, shape: impl Into<Shape>, fill: &mut Fill<'_>) -> Tensor {
        let shape = shape.into();
        let rng: &mut Pcg32 = match fill {
            Fill::Seeded(rng) => rng,
            Fill::Skeleton => return self.constant_or_zero(shape),
        };
        mmlib_obs::recorder().inc(INIT_ELEMS_TOTAL, shape.numel() as u64);
        let (fan_in, fan_out) = fan_in_out(&shape);
        match self {
            Init::Zeros | Init::Ones | Init::Constant(_) => self.constant_or_zero(shape),
            Init::KaimingUniform { a } => {
                let gain = (2.0 / (1.0 + a * a)).sqrt();
                let bound = gain * (3.0 / fan_in.max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::KaimingNormalFanOut => {
                let std = (2.0 / fan_out.max(1) as f32).sqrt();
                Tensor::rand_normal(shape, 0.0, std, rng)
            }
            Init::UniformFanIn => {
                let bound = 1.0 / (fan_in.max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::TruncatedNormal { std } => {
                let n = shape.numel();
                let data = (0..n)
                    .map(|_| rng.truncated_normal(0.0, std, -2.0, 2.0))
                    .collect();
                // mmlib-lint: allow(P1, data has exactly shape.numel() elements by construction)
                Tensor::from_vec(shape, data).expect("length matches by construction")
            }
            Init::TruncatedNormalPpf { std } => {
                let n = shape.numel();
                let (cdf_lo, cdf_hi) = (norm_cdf(-2.0), norm_cdf(2.0));
                let data = (0..n)
                    .map(|_| (std as f64 * truncnorm_ppf_sample(rng, cdf_lo, cdf_hi)) as f32)
                    .collect();
                // mmlib-lint: allow(P1, data has exactly shape.numel() elements by construction)
                Tensor::from_vec(shape, data).expect("length matches by construction")
            }
        }
    }

    /// The rule's constant, or zeros for a random rule.
    fn constant_or_zero(self, shape: Shape) -> Tensor {
        match self {
            Init::Ones => Tensor::ones(shape),
            Init::Constant(c) => Tensor::full(shape, c),
            _ => Tensor::zeros(shape),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_out_conventions() {
        assert_eq!(fan_in_out(&Shape::from([1000, 512])), (512, 1000));
        assert_eq!(fan_in_out(&Shape::from([64, 3, 7, 7])), (3 * 49, 64 * 49));
        assert_eq!(fan_in_out(&Shape::from([64])), (64, 64));
        assert_eq!(fan_in_out(&Shape::scalar()), (1, 1));
    }

    #[test]
    fn constant_inits() {
        let mut fill = Fill::Seeded(&mut Pcg32::seeded(0));
        assert!(Init::Zeros.materialize([4], &mut fill).data().iter().all(|&v| v == 0.0));
        assert!(Init::Ones.materialize([4], &mut fill).data().iter().all(|&v| v == 1.0));
        assert!(Init::Constant(0.5).materialize([4], &mut fill).data().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn kaiming_uniform_respects_bound() {
        let mut fill = Fill::Seeded(&mut Pcg32::seeded(1));
        let t = Init::KaimingUniform { a: 5f32.sqrt() }.materialize([64, 16, 3, 3], &mut fill);
        let bound = (2.0f32 / 6.0).sqrt() * (3.0f32 / (16.0 * 9.0)).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound * 1.0001));
    }

    #[test]
    fn truncated_normal_stays_within_two_sigma() {
        let mut fill = Fill::Seeded(&mut Pcg32::seeded(2));
        let t = Init::TruncatedNormal { std: 0.01 }.materialize([2048], &mut fill);
        assert!(t.data().iter().all(|v| v.abs() <= 0.02 * 1.0001));
    }

    #[test]
    fn erf_series_matches_known_values() {
        // erf(1) = 0.8427007929497149, erf(2) = 0.9953222650189527
        assert!((erf_series(1.0) - 0.8427007929497149).abs() < 1e-12);
        assert!((erf_series(2.0) - 0.9953222650189527).abs() < 1e-12);
        assert!((erf_series(-1.0) + 0.8427007929497149).abs() < 1e-12);
        assert!(erf_series(0.0).abs() < 1e-15);
    }

    #[test]
    fn erfinv_inverts_erf() {
        for &x in &[0.0, 0.3, -0.7, 1.2, -1.9, 1.99] {
            let y = erf_series(x);
            let back = erfinv_newton(y);
            assert!((back - x).abs() < 1e-9, "x={x} back={back}");
        }
    }

    #[test]
    fn ppf_truncnorm_within_bounds_and_deterministic() {
        let mut fill = Fill::Seeded(&mut Pcg32::seeded(5));
        let t = Init::TruncatedNormalPpf { std: 0.01 }.materialize([4096], &mut fill);
        assert!(t.data().iter().all(|v| v.abs() <= 0.02 * 1.001));
        let mut fill2 = Fill::Seeded(&mut Pcg32::seeded(5));
        let t2 = Init::TruncatedNormalPpf { std: 0.01 }.materialize([4096], &mut fill2);
        assert!(t.bit_eq(&t2));
        // Distribution sanity: roughly centered.
        let mean: f32 = t.data().iter().sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 1e-3);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let a = Init::XavierUniform.materialize([128, 64], &mut Fill::Seeded(&mut Pcg32::seeded(3)));
        let b = Init::XavierUniform.materialize([128, 64], &mut Fill::Seeded(&mut Pcg32::seeded(3)));
        assert!(a.bit_eq(&b));
        let c = Init::XavierUniform.materialize([128, 64], &mut Fill::Seeded(&mut Pcg32::seeded(4)));
        assert!(!a.bit_eq(&c));
    }

    #[test]
    fn skeleton_fill_draws_nothing() {
        let shape = [16, 3, 3, 3];
        for init in [Init::KaimingNormalFanOut, Init::TruncatedNormalPpf { std: 0.01 }, Init::XavierUniform] {
            assert!(init.materialize(shape, &mut Fill::Skeleton).data().iter().all(|&v| v == 0.0));
        }
        assert!(Init::Ones.materialize(shape, &mut Fill::Skeleton).data().iter().all(|&v| v == 1.0));
        assert!(Init::Constant(0.5).materialize(shape, &mut Fill::Skeleton).data().iter().all(|&v| v == 0.5));
    }

    /// Seeded output of every rule, pinned to the digests the rules produced
    /// before [`Fill`] existed: routing through it must not move a bit.
    #[test]
    fn seeded_rules_are_bit_stable() {
        let pinned = [
            (Init::Zeros, "ee8e9c8ac8408a54e45aac4d21a08cfe4fdb00c2b8a16e5fee31516e9b198439"),
            (Init::Ones, "d7f065157e694bcf5e19756dd87b21d649cf75f6f939146b77aa2b66525648aa"),
            (Init::Constant(0.25), "82d5c0b2e798ab1a671d71d7545e6cd28a005878e070a4725b783e06a5907b00"),
            (Init::KaimingUniform { a: 5f32.sqrt() }, "daa96b7ef8b4cfd5a42fc6f934de8c0737f6d9b155673247bf81089cef608c9c"),
            (Init::KaimingNormalFanOut, "2171b418eb23fb9a3ec906a456d2de86883c658cfcc6f4b677ee0ed6c84d8495"),
            (Init::UniformFanIn, "daa96b7ef8b4cfd5a42fc6f934de8c0737f6d9b155673247bf81089cef608c9c"),
            (Init::XavierUniform, "3ac26772f712bde4f4e0b39be9c8d3a5f72fb914dd5a4d8b02aad36af346f53c"),
            (Init::TruncatedNormal { std: 0.02 }, "3562b73dc69d212d7484f94f3325c4eeb6c63ffe66f84cd7f9262892e3d336d1"),
            (Init::TruncatedNormalPpf { std: 0.01 }, "bab72fe52dcd858cf6b7438f3fa4c1ce883a26be97c345f70ef15b1fd7636906"),
        ];
        for (init, digest) in pinned {
            let mut fill = Fill::Seeded(&mut Pcg32::seeded(9));
            let a = init.materialize([16, 3, 3, 3], &mut fill);
            let b = init.materialize([10], &mut fill);
            let bytes = crate::ser::state_to_bytes([("a", &a), ("b", &b)]);
            assert_eq!(crate::hash::sha256(&bytes).to_hex(), digest, "{init:?}");
        }
    }
}
