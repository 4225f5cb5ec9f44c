//! Parameterized layers: convolution, batch normalization, linear.
//!
//! Every layer implements a real forward and backward pass. Reductions run
//! in one of two modes (see `mmlib_tensor::ops`):
//!
//! * **Deterministic** — single-threaded, fixed serial accumulation order;
//!   bit-reproducible across runs. Slower.
//! * **Parallel** — work is split over threads; reductions whose partial
//!   results are combined across threads (batch-norm statistics, weight and
//!   bias gradients) combine **in completion order**, so the low-order bits
//!   vary run to run. This mirrors how non-deterministic cuDNN kernels
//!   behave and is what the paper's deterministic-training study (Fig. 13)
//!   toggles.

// Kernels index by (image, channel, position) throughout; iterator-chain
// rewrites obscure the arithmetic without changing the codegen.
#![allow(clippy::needless_range_loop)]

use mmlib_tensor::{ExecMode, Fill, Init, Tensor};

use crate::module::{dims4, Ctx, EntryKind};

pub use mmlib_tensor::init::Init as LayerInit;

/// Minimum per-call work (in output elements) before the parallel mode
/// actually spawns threads; below this the fixed pairwise order is used.
const PAR_MIN_WORK: usize = 4096;
/// Worker count for parallel kernels.
const PAR_THREADS: usize = 8;

fn conv_out(h: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(h + 2 * pad >= k, "spatial dim {h} too small for kernel {k} with pad {pad}");
    (h + 2 * pad - k) / stride + 1
}

/// Combines per-chunk partial tensors into `acc` in completion order when in
/// parallel mode (non-deterministic), or in index order when deterministic.
fn reduce_partials(acc: &mut [f32], partials: Vec<Vec<f32>>, mode: ExecMode) {
    match mode {
        ExecMode::Deterministic => {
            for p in partials {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += v;
                }
            }
        }
        ExecMode::Parallel => {
            // Emulate completion-order combining: the caller already received
            // the partials in completion order (see `parallel_partials`).
            for p in partials {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += v;
                }
            }
        }
    }
}

/// Runs `work(chunk_index) -> Vec<f32>` for `chunks` chunks on worker
/// threads and returns the partial buffers **in completion order**.
fn parallel_partials<F>(chunks: usize, work: F) -> Vec<Vec<f32>>
where
    F: Fn(usize) -> Vec<f32> + Sync,
{
    let (tx, rx) = std::sync::mpsc::channel::<Vec<f32>>();
    crossbeam::scope(|s| {
        for i in 0..chunks {
            let tx = tx.clone();
            let work = &work;
            s.spawn(move |_| {
                let _ = tx.send(work(i));
            });
        }
        drop(tx);
        rx.iter().collect::<Vec<_>>()
    })
    .expect("layer worker panicked")
}

/// Splits `0..n` into at most `PAR_THREADS` contiguous ranges.
fn ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(PAR_THREADS).max(1);
    (0..n).step_by(chunk).map(|s| s..(s + chunk).min(n)).collect()
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution over NCHW tensors, with optional grouping (depthwise when
/// `groups == in_channels`). Bias-free by default, as all five evaluation
/// architectures use conv+batch-norm pairs.
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Channel groups.
    pub groups: usize,
    /// Weight `[out, in/groups, k, k]`.
    pub weight: Tensor,
    /// Optional bias `[out]`.
    pub bias: Option<Tensor>,
    /// Whether this layer participates in training (mmlib layer granularity).
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Option<Tensor>,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a conv layer with zeroed parameters (call an `Init` after, or
    /// load a state dict).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
    ) -> Self {
        assert!(in_channels.is_multiple_of(groups) && out_channels.is_multiple_of(groups));
        let wshape = [out_channels, in_channels / groups, kernel, kernel];
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            groups,
            weight: Tensor::zeros(wshape),
            bias: bias.then(|| Tensor::zeros([out_channels])),
            trainable: true,
            grad_weight: Tensor::zeros(wshape),
            grad_bias: bias.then(|| Tensor::zeros([out_channels])),
            cache_input: None,
        }
    }

    /// Initializes the weight with `init`, drawing from `fill`.
    pub fn init(mut self, init: Init, fill: &mut Fill<'_>) -> Self {
        self.weight = init.materialize(self.weight.shape().clone(), fill);
        self
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let (n, cin, h, w) = dims4(&x);
        assert_eq!(cin, self.in_channels, "conv input channels");
        let (k, s, p, g) = (self.kernel, self.stride, self.pad, self.groups);
        let (ho, wo) = (conv_out(h, k, s, p), conv_out(w, k, s, p));
        let cout = self.out_channels;
        let (cin_g, cout_g) = (cin / g, cout / g);
        let mut out = Tensor::zeros([n, cout, ho, wo]);

        let xd = x.data();
        let wd = self.weight.data();
        let work_per_image = cout * ho * wo * cin_g * k * k;

        // One output element is produced by exactly one accumulation loop,
        // so the forward result is identical across modes; parallel mode
        // only distributes images over threads.
        let compute_image = |ni: usize, od: &mut [f32]| {
            for co in 0..cout {
                let grp = co / cout_g;
                let b = self.bias.as_ref().map_or(0.0, |b| b.data()[co]);
                for oh in 0..ho {
                    for ow in 0..wo {
                        let mut acc = 0.0f32;
                        for ci in 0..cin_g {
                            let ci_g = grp * cin_g + ci;
                            let xbase = ni * cin * h * w + ci_g * h * w;
                            let wbase = co * cin_g * k * k + ci * k * k;
                            for kh in 0..k {
                                let ih = oh * s + kh;
                                if ih < p || ih - p >= h {
                                    continue;
                                }
                                let ih = ih - p;
                                for kw in 0..k {
                                    let iw = ow * s + kw;
                                    if iw < p || iw - p >= w {
                                        continue;
                                    }
                                    let iw = iw - p;
                                    acc += xd[xbase + ih * w + iw] * wd[wbase + kh * k + kw];
                                }
                            }
                        }
                        od[co * ho * wo + oh * wo + ow] = acc + b;
                    }
                }
            }
        };

        if ctx.mode == ExecMode::Parallel && n > 1 && work_per_image * n >= PAR_MIN_WORK {
            let image_len = cout * ho * wo;
            let od = out.data_mut();
            let slices: Vec<&mut [f32]> = od.chunks_mut(image_len).collect();
            crossbeam::scope(|sc| {
                for (ni, slice) in slices.into_iter().enumerate() {
                    let compute_image = &compute_image;
                    sc.spawn(move |_| compute_image(ni, slice));
                }
            })
            .expect("conv forward worker panicked");
        } else {
            let image_len = cout * ho * wo;
            let od = out.data_mut();
            for ni in 0..n {
                compute_image(ni, &mut od[ni * image_len..(ni + 1) * image_len]);
            }
        }

        self.cache_input = Some(x);
        out
    }

    /// Backward pass: accumulates weight/bias grads, returns input grad.
    pub fn backward(&mut self, gout: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let x = self.cache_input.take().expect("conv backward before forward");
        let (n, cin, h, w) = dims4(&x);
        let (_, cout, ho, wo) = dims4(&gout);
        let (k, s, p, g) = (self.kernel, self.stride, self.pad, self.groups);
        let (cin_g, cout_g) = (cin / g, cout / g);
        let xd = x.data();
        let gd = gout.data();
        let wd = self.weight.data();

        // --- weight gradient: reduction over images; parallel mode combines
        // per-image-chunk partials in completion order (non-deterministic).
        let wlen = self.grad_weight.numel();
        let chunk_grad_into = |range: std::ops::Range<usize>, gw: &mut [f32]| {
            for ni in range {
                for co in 0..cout {
                    let grp = co / cout_g;
                    for ci in 0..cin_g {
                        let ci_g = grp * cin_g + ci;
                        let xbase = ni * cin * h * w + ci_g * h * w;
                        let wbase = co * cin_g * k * k + ci * k * k;
                        for kh in 0..k {
                            for kw in 0..k {
                                let mut acc = 0.0f32;
                                for oh in 0..ho {
                                    let ih = oh * s + kh;
                                    if ih < p || ih - p >= h {
                                        continue;
                                    }
                                    let ih = ih - p;
                                    for ow in 0..wo {
                                        let iw = ow * s + kw;
                                        if iw < p || iw - p >= w {
                                            continue;
                                        }
                                        let iw = iw - p;
                                        acc += xd[xbase + ih * w + iw]
                                            * gd[ni * cout * ho * wo + co * ho * wo + oh * wo + ow];
                                    }
                                }
                                gw[wbase + kh * k + kw] += acc;
                            }
                        }
                    }
                }
            }
        };

        let work = n * cout * cin_g * k * k * ho * wo;
        if ctx.mode == ExecMode::Parallel && n > 1 && work >= PAR_MIN_WORK {
            let rs = ranges(n);
            let partials = parallel_partials(rs.len(), |i| {
                let mut gw = vec![0.0f32; wlen];
                chunk_grad_into(rs[i].clone(), &mut gw);
                gw
            });
            reduce_partials(self.grad_weight.data_mut(), partials, ctx.mode);
        } else {
            // Deterministic path: accumulate straight into the gradient
            // buffer — no partial allocations (page faults are expensive on
            // some hosts, and a ResNet-152 backward would otherwise allocate
            // a weight-sized scratch buffer per conv layer).
            chunk_grad_into(0..n, self.grad_weight.data_mut());
        }

        // --- bias gradient
        if let Some(gb) = &mut self.grad_bias {
            let gbd = gb.data_mut();
            for ni in 0..n {
                for co in 0..cout {
                    let base = ni * cout * ho * wo + co * ho * wo;
                    let mut acc = 0.0f32;
                    for i in 0..ho * wo {
                        acc += gd[base + i];
                    }
                    gbd[co] += acc;
                }
            }
        }

        // --- input gradient: each input element owned by one loop; parallel
        // mode distributes images.
        let mut gin = Tensor::zeros([n, cin, h, w]);
        let compute_gin = |ni: usize, gi: &mut [f32]| {
            for co in 0..cout {
                let grp = co / cout_g;
                for oh in 0..ho {
                    for ow in 0..wo {
                        let gval = gd[ni * cout * ho * wo + co * ho * wo + oh * wo + ow];
                        if gval == 0.0 {
                            continue;
                        }
                        for ci in 0..cin_g {
                            let ci_g = grp * cin_g + ci;
                            let wbase = co * cin_g * k * k + ci * k * k;
                            for kh in 0..k {
                                let ih = oh * s + kh;
                                if ih < p || ih - p >= h {
                                    continue;
                                }
                                let ih = ih - p;
                                for kw in 0..k {
                                    let iw = ow * s + kw;
                                    if iw < p || iw - p >= w {
                                        continue;
                                    }
                                    let iw = iw - p;
                                    gi[ci_g * h * w + ih * w + iw] += gval * wd[wbase + kh * k + kw];
                                }
                            }
                        }
                    }
                }
            }
        };
        let image_len = cin * h * w;
        if ctx.mode == ExecMode::Parallel && n > 1 && work >= PAR_MIN_WORK {
            let gid = gin.data_mut();
            let slices: Vec<&mut [f32]> = gid.chunks_mut(image_len).collect();
            crossbeam::scope(|sc| {
                for (ni, slice) in slices.into_iter().enumerate() {
                    let compute_gin = &compute_gin;
                    sc.spawn(move |_| compute_gin(ni, slice));
                }
            })
            .expect("conv backward worker panicked");
        } else {
            let gid = gin.data_mut();
            for ni in 0..n {
                compute_gin(ni, &mut gid[ni * image_len..(ni + 1) * image_len]);
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        if let Some(b) = &self.bias {
            f(format!("{prefix}.bias"), b, EntryKind::Parameter, self.trainable);
        }
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        if let Some(b) = &mut self.bias {
            f(format!("{prefix}.bias"), b, EntryKind::Parameter);
        }
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        f(format!("{prefix}.weight"), &mut self.weight, &mut self.grad_weight);
        if let (Some(b), Some(gb)) = (&mut self.bias, &mut self.grad_bias) {
            f(format!("{prefix}.bias"), b, gb);
        }
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        if let Some(gb) = &mut self.grad_bias {
            gb.fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// 2-D batch normalization with running statistics.
///
/// In training mode the per-channel mean/variance are *reductions over the
/// batch*: in parallel execution their partials combine in completion order,
/// making training non-deterministic — the dominant divergence source the
/// probing tool observes.
pub struct BatchNorm2d {
    /// Channel count.
    pub channels: usize,
    /// Scale γ.
    pub weight: Tensor,
    /// Shift β.
    pub bias: Tensor,
    /// Running mean (buffer).
    pub running_mean: Tensor,
    /// Running variance (buffer).
    pub running_var: Tensor,
    /// Exponential-average momentum (PyTorch default 0.1).
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Whether this layer participates in training.
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    /// True when the forward used batch statistics (trainable layer in
    /// training mode); selects the backward formula.
    batch_stats: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0, running stats (0, 1).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            weight: Tensor::ones([channels]),
            bias: Tensor::zeros([channels]),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.1,
            eps: 1e-5,
            trainable: true,
            grad_weight: Tensor::zeros([channels]),
            grad_bias: Tensor::zeros([channels]),
            cache: None,
        }
    }

    /// Forward pass (batch stats + running update in training mode).
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let (n, c, h, w) = dims4(&x);
        assert_eq!(c, self.channels, "bn channels");
        let count = (n * h * w) as f32;
        let xd = x.data();
        let plane = h * w;

        // A frozen batch-norm layer keeps using its running statistics and
        // does not update them, even in training mode. This matches the
        // partial-update model relation in the paper: when only the
        // classifier is trainable, *no other layer's state changes*, which is
        // what makes the parameter update a single layer.
        let use_batch_stats = ctx.training && self.trainable;
        let (mean, var) = if use_batch_stats {
            // Per-channel sums reduced over images.
            let chunk_sums = |range: std::ops::Range<usize>| -> Vec<f32> {
                let mut sums = vec![0.0f32; c];
                for ni in range {
                    for ci in 0..c {
                        let base = ni * c * plane + ci * plane;
                        let mut acc = 0.0f32;
                        for i in 0..plane {
                            acc += xd[base + i];
                        }
                        sums[ci] += acc;
                    }
                }
                sums
            };
            let parallel = ctx.mode == ExecMode::Parallel && n > 1 && n * c * plane >= PAR_MIN_WORK;
            let mut sums = vec![0.0f32; c];
            let partials = if parallel {
                let rs = ranges(n);
                parallel_partials(rs.len(), |i| chunk_sums(rs[i].clone()))
            } else {
                vec![chunk_sums(0..n)]
            };
            reduce_partials(&mut sums, partials, ctx.mode);
            let mean: Vec<f32> = sums.iter().map(|s| s / count).collect();

            let mean_ref = &mean;
            let chunk_sq = |range: std::ops::Range<usize>| -> Vec<f32> {
                let mut sums = vec![0.0f32; c];
                for ni in range {
                    for ci in 0..c {
                        let base = ni * c * plane + ci * plane;
                        let m = mean_ref[ci];
                        let mut acc = 0.0f32;
                        for i in 0..plane {
                            let d = xd[base + i] - m;
                            acc += d * d;
                        }
                        sums[ci] += acc;
                    }
                }
                sums
            };
            let mut sq = vec![0.0f32; c];
            let partials = if parallel {
                let rs = ranges(n);
                parallel_partials(rs.len(), |i| chunk_sq(rs[i].clone()))
            } else {
                vec![chunk_sq(0..n)]
            };
            reduce_partials(&mut sq, partials, ctx.mode);
            let var: Vec<f32> = sq.iter().map(|s| s / count).collect();

            // Update running stats (unbiased variance, PyTorch convention).
            let unbias = count / (count - 1.0).max(1.0);
            let rm = self.running_mean.data_mut();
            for (r, m) in rm.iter_mut().zip(&mean) {
                *r = (1.0 - self.momentum) * *r + self.momentum * m;
            }
            let rv = self.running_var.data_mut();
            for (r, v) in rv.iter_mut().zip(&var) {
                *r = (1.0 - self.momentum) * *r + self.momentum * (v * unbias);
            }
            (mean, var)
        } else {
            (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = Tensor::zeros([n, c, h, w]);
        let mut out = Tensor::zeros([n, c, h, w]);
        {
            let xh = xhat.data_mut();
            let od = out.data_mut();
            let g = self.weight.data();
            let b = self.bias.data();
            for ni in 0..n {
                for ci in 0..c {
                    let base = ni * c * plane + ci * plane;
                    let (m, is) = (mean[ci], inv_std[ci]);
                    for i in 0..plane {
                        let v = (xd[base + i] - m) * is;
                        xh[base + i] = v;
                        od[base + i] = g[ci] * v + b[ci];
                    }
                }
            }
        }
        if ctx.training {
            self.cache = Some(BnCache { xhat, inv_std, batch_stats: use_batch_stats });
        }
        out
    }

    /// Backward pass (training-mode batch-norm gradient).
    pub fn backward(&mut self, gout: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let cache = self.cache.take().expect("bn backward before forward (training)");
        let (n, c, h, w) = dims4(&gout);
        let plane = h * w;
        let count = (n * plane) as f32;
        let gd = gout.data();
        let xh = cache.xhat.data();

        // dgamma, dbeta
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = ni * c * plane + ci * plane;
                let mut dg = 0.0f32;
                let mut db = 0.0f32;
                for i in 0..plane {
                    dg += gd[base + i] * xh[base + i];
                    db += gd[base + i];
                }
                dgamma[ci] += dg;
                dbeta[ci] += db;
            }
        }
        for (a, v) in self.grad_weight.data_mut().iter_mut().zip(&dgamma) {
            *a += v;
        }
        for (a, v) in self.grad_bias.data_mut().iter_mut().zip(&dbeta) {
            *a += v;
        }

        // Batch-stats path: dx = (γ·inv_std)·(g − dbeta/count − xhat·dgamma/count).
        // Running-stats path (frozen layer): stats are constants, so
        // dx = (γ·inv_std)·g.
        let gw = self.weight.data();
        let mut gin = Tensor::zeros([n, c, plane / w, w]);
        {
            let gi = gin.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let base = ni * c * plane + ci * plane;
                    let coef = gw[ci] * cache.inv_std[ci];
                    if cache.batch_stats {
                        let mdb = dbeta[ci] / count;
                        let mdg = dgamma[ci] / count;
                        for i in 0..plane {
                            gi[base + i] = coef * (gd[base + i] - mdb - xh[base + i] * mdg);
                        }
                    } else {
                        for i in 0..plane {
                            gi[base + i] = coef * gd[base + i];
                        }
                    }
                }
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.bias"), &self.bias, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.running_mean"), &self.running_mean, EntryKind::Buffer, self.trainable);
        f(format!("{prefix}.running_var"), &self.running_var, EntryKind::Buffer, self.trainable);
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        f(format!("{prefix}.bias"), &mut self.bias, EntryKind::Parameter);
        f(format!("{prefix}.running_mean"), &mut self.running_mean, EntryKind::Buffer);
        f(format!("{prefix}.running_var"), &mut self.running_var, EntryKind::Buffer);
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        f(format!("{prefix}.weight"), &mut self.weight, &mut self.grad_weight);
        f(format!("{prefix}.bias"), &mut self.bias, &mut self.grad_bias);
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer: `y = W x + b` over `[N, in]` inputs.
pub struct Linear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Weight `[out, in]`.
    pub weight: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    /// Whether this layer participates in training.
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Creates a zero-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Linear {
            in_features,
            out_features,
            weight: Tensor::zeros([out_features, in_features]),
            bias: Tensor::zeros([out_features]),
            trainable: true,
            grad_weight: Tensor::zeros([out_features, in_features]),
            grad_bias: Tensor::zeros([out_features]),
            cache_input: None,
        }
    }

    /// Initializes weight and bias with the given rules, drawing from `fill`.
    pub fn init(mut self, w: Init, b: Init, fill: &mut Fill<'_>) -> Self {
        self.weight = w.materialize([self.out_features, self.in_features], fill);
        self.bias = b.materialize([self.out_features], fill);
        self
    }

    /// Forward pass over `[N, in]`.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 2, "linear expects [N, F]");
        let (n, fin) = (d[0], d[1]);
        assert_eq!(fin, self.in_features);
        let mut out = Tensor::zeros([n, self.out_features]);
        {
            let od = out.data_mut();
            let xd = x.data();
            let bd = self.bias.data();
            for ni in 0..n {
                let row_in = &xd[ni * fin..(ni + 1) * fin];
                let row_out = mmlib_tensor::ops::matvec(&self.weight, row_in, ctx.mode)
                    .expect("linear shapes checked above");
                for (o, (y, b)) in row_out.iter().zip(bd).enumerate() {
                    od[ni * self.out_features + o] = y + b;
                }
            }
        }
        self.cache_input = Some(x);
        out
    }

    /// Backward pass.
    pub fn backward(&mut self, gout: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let x = self.cache_input.take().expect("linear backward before forward");
        let n = x.shape().dim(0);
        let (fin, fout) = (self.in_features, self.out_features);
        let xd = x.data();
        let gd = gout.data();

        // Weight grad: reduce over images, completion-order in parallel mode.
        let chunk_grad_into = |range: std::ops::Range<usize>, gw: &mut [f32]| {
            for ni in range {
                for o in 0..fout {
                    let gval = gd[ni * fout + o];
                    if gval == 0.0 {
                        continue;
                    }
                    let base = o * fin;
                    let xrow = &xd[ni * fin..(ni + 1) * fin];
                    for (dst, xv) in gw[base..base + fin].iter_mut().zip(xrow) {
                        *dst += gval * xv;
                    }
                }
            }
        };
        if ctx.mode == ExecMode::Parallel && n > 1 && n * fout * fin >= PAR_MIN_WORK {
            let rs = ranges(n);
            let partials = parallel_partials(rs.len(), |i| {
                let mut gw = vec![0.0f32; fout * fin];
                chunk_grad_into(rs[i].clone(), &mut gw);
                gw
            });
            reduce_partials(self.grad_weight.data_mut(), partials, ctx.mode);
        } else {
            chunk_grad_into(0..n, self.grad_weight.data_mut());
        }

        // Bias grad.
        {
            let gb = self.grad_bias.data_mut();
            for ni in 0..n {
                for o in 0..fout {
                    gb[o] += gd[ni * fout + o];
                }
            }
        }

        // Input grad: gin[n, f] = Σ_o g[n, o]·W[o, f].
        let mut gin = Tensor::zeros([n, fin]);
        {
            let gi = gin.data_mut();
            let wd = self.weight.data();
            for ni in 0..n {
                for o in 0..fout {
                    let gval = gd[ni * fout + o];
                    if gval == 0.0 {
                        continue;
                    }
                    let wrow = &wd[o * fin..(o + 1) * fin];
                    for (dst, wv) in gi[ni * fin..(ni + 1) * fin].iter_mut().zip(wrow) {
                        *dst += gval * wv;
                    }
                }
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.bias"), &self.bias, EntryKind::Parameter, self.trainable);
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        f(format!("{prefix}.bias"), &mut self.bias, EntryKind::Parameter);
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        f(format!("{prefix}.weight"), &mut self.weight, &mut self.grad_weight);
        f(format!("{prefix}.bias"), &mut self.bias, &mut self.grad_bias);
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }
}
