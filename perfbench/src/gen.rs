//! Seeded input generation and result checking: model versions by
//! parameter perturbation, an independent model digest, Zipf draws, and
//! percentiles.

use mmlib_model::Model;
use mmlib_tensor::Tensor;

/// SplitMix64: small, seedable, and independent of the program's own PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// A generator for a named stream of `seed`.
    pub fn stream(seed: u64, stream: &[u64]) -> Rng {
        let mut rng = Rng::new(seed);
        for &s in stream {
            rng.0 ^= s.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// A seeded Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which parameters a new version changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Only the classifier (a partial update).
    Classifier,
    /// Every parameter (a full update).
    Full,
}

/// Perturbs the parameters `update` selects by seeded noise in ±1e-3 and
/// returns the bytes changed. Buffers (batch-norm statistics) are left
/// as they are.
pub fn perturb(model: &mut Model, update: Update, rng: &mut Rng) -> u64 {
    match update {
        Update::Classifier => model.set_classifier_only_trainable(),
        Update::Full => model.set_fully_trainable(),
    }
    let mut changed = 0u64;
    model.visit_trainable_mut(&mut |_, param, _| {
        for v in param.data_mut() {
            let noise = (rng.next_f64() * 2.0 - 1.0) * 1e-3;
            *v += noise as f32;
        }
        changed += param.nbytes() as u64;
    });
    changed
}

/// A 64-bit digest of one state entry (name, shape and raw `f32` bits),
/// computed without any of the program's hashing code.
pub fn entry_digest(name: &str, t: &Tensor) -> u64 {
    const M: u64 = 0xff51_afd7_ed55_8ccd;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes().map(u64::from).chain(t.shape().dims().iter().map(|&d| d as u64)) {
        h = (h ^ b).wrapping_mul(M);
    }
    // Four independent lanes keep the multiplies pipelined.
    let mut lanes = [h, h.rotate_left(16), h.rotate_left(32), h.rotate_left(48)];
    let quads = t.data().chunks_exact(4);
    let rest = quads.remainder();
    for q in quads {
        for i in 0..4 {
            lanes[i] = (lanes[i] ^ u64::from(q[i].to_bits())).wrapping_mul(M);
        }
    }
    for (i, v) in rest.iter().enumerate() {
        lanes[i] = (lanes[i] ^ u64::from(v.to_bits())).wrapping_mul(M).rotate_left(7);
    }
    lanes.iter().fold(t.numel() as u64, |acc, l| (acc ^ l).wrapping_mul(M).rotate_left(29))
}

/// Per-entry digests of a model's full state, in state-entry order.
pub fn entry_digests(model: &Model) -> Vec<u64> {
    model.state_entries().iter().map(|(name, t, _, _)| entry_digest(name, t)).collect()
}

/// Recomputes the digests of the entries whose path starts with `prefix`.
pub fn refresh_digests(model: &Model, digests: &mut [u64], prefix: &str) {
    for (i, (name, t, _, _)) in model.state_entries().iter().enumerate() {
        if name.starts_with(prefix) {
            digests[i] = entry_digest(name, t);
        }
    }
}

/// The model digest from its entry digests.
pub fn fold(digests: &[u64]) -> u64 {
    digests.iter().fold(digests.len() as u64, |acc, d| {
        (acc ^ d).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
    })
}

/// The digest of a model's full state.
pub fn digest(model: &Model) -> u64 {
    fold(&entry_digests(model))
}

/// A Zipf(s = 1) request stream over ranks `0..n`, drawn by systematic
/// sampling: each draw takes the rank furthest below its expected count, so
/// every prefix of the stream holds each rank within one request of its
/// share. The mix of ranks, and with it the mix of op costs, is then the
/// same in every run instead of varying with i.i.d. draws; the seed sets
/// where in the cycle a stream starts and breaks ties.
pub struct ZipfStream {
    weights: Vec<f64>,
    counts: Vec<f64>,
    drawn: f64,
    rng: Rng,
}

impl ZipfStream {
    pub fn new(n: usize, mut rng: Rng) -> ZipfStream {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let weights = (1..=n).map(|k| 1.0 / k as f64 / total).collect();
        let skip = rng.below(n);
        let mut stream = ZipfStream { weights, counts: vec![0.0; n], drawn: 0.0, rng };
        for _ in 0..skip {
            stream.next_rank();
        }
        stream
    }

    pub fn next_rank(&mut self) -> usize {
        self.drawn += 1.0;
        let mut best = (0, f64::NEG_INFINITY);
        for (k, (w, c)) in self.weights.iter().zip(&self.counts).enumerate() {
            let deficit = w * self.drawn - c + self.rng.next_f64() * 1e-9;
            if deficit > best.1 {
                best = (k, deficit);
            }
        }
        self.counts[best.0] += 1.0;
        best.0
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; NaN for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
