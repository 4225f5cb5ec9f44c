//! The five evaluation architectures (paper Table 2).
//!
//! Each builder reproduces the torchvision layer layout closely enough that
//! the *trainable parameter counts match the paper exactly*:
//!
//! | Architecture | #Params    | Partially updated |
//! |--------------|-----------:|------------------:|
//! | MobileNetV2  |  3,504,872 |         1,281,000 |
//! | GoogLeNet    |  6,624,904 |         1,025,000 |
//! | ResNet-18    | 11,689,512 |           513,000 |
//! | ResNet-50    | 25,557,032 |         2,049,000 |
//! | ResNet-152   | 60,192,808 |         2,049,000 |
//!
//! "Partially updated" is the paper's partial-update model relation: only the
//! final fully-connected classifier is trainable. These counts are asserted
//! in this module's tests.
//!
//! Two faithful quirks are kept on purpose:
//! * GoogLeNet's "5×5" inception branch actually uses a 3×3 kernel —
//!   torchvision's famous kernel-size bug, preserved there for weight
//!   compatibility. The paper's counts are torchvision counts, so we keep it.
//! * GoogLeNet initializes every conv/linear weight with the expensive
//!   inverse-CDF truncated normal ([`Init::TruncatedNormalPpf`]), which makes
//!   its initialization disproportionately slow — the cause of the
//!   recovery-time anomaly in the paper's Fig. 12.

use mmlib_tensor::{Fill, Init};
use serde::{Deserialize, Serialize};

use crate::common::{Dropout, Flatten, GlobalAvgPool, MaxPool2d, ReLU, ReLU6};
use crate::layers::{BatchNorm2d, Conv2d, Linear};
use crate::module::{Module, Residual, Sequential};

/// Identifier of one of the five evaluation architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchId {
    /// MobileNetV2 (Sandler et al., 2018).
    MobileNetV2,
    /// GoogLeNet (Szegedy et al., 2015), torchvision variant without aux heads.
    GoogLeNet,
    /// ResNet-18 (He et al., 2016).
    ResNet18,
    /// ResNet-50.
    ResNet50,
    /// ResNet-152.
    ResNet152,
    /// A ~18k-parameter CNN that is **not** part of the paper's Table 2.
    /// It exists so tests and property suites can exercise whole save/
    /// recover chains in milliseconds; excluded from [`ArchId::all`].
    TinyCnn,
}

impl ArchId {
    /// All architectures in the paper's Table 2 order (excludes the
    /// test-only [`ArchId::TinyCnn`]).
    pub fn all() -> [ArchId; 5] {
        [ArchId::MobileNetV2, ArchId::GoogLeNet, ArchId::ResNet18, ArchId::ResNet50, ArchId::ResNet152]
    }

    /// Canonical lowercase name (used in documents and file names).
    pub fn name(self) -> &'static str {
        match self {
            ArchId::MobileNetV2 => "mobilenetv2",
            ArchId::GoogLeNet => "googlenet",
            ArchId::ResNet18 => "resnet18",
            ArchId::ResNet50 => "resnet50",
            ArchId::ResNet152 => "resnet152",
            ArchId::TinyCnn => "tinycnn",
        }
    }

    /// Parses a canonical name back into an id.
    pub fn from_name(name: &str) -> Option<ArchId> {
        if name == ArchId::TinyCnn.name() {
            return Some(ArchId::TinyCnn);
        }
        ArchId::all().into_iter().find(|a| a.name() == name)
    }

    /// The paper's Table 2 trainable-parameter count for this architecture.
    pub fn paper_param_count(self) -> u64 {
        match self {
            ArchId::MobileNetV2 => 3_504_872,
            ArchId::GoogLeNet => 6_624_904,
            ArchId::ResNet18 => 11_689_512,
            ArchId::ResNet50 => 25_557_032,
            ArchId::ResNet152 => 60_192_808,
            ArchId::TinyCnn => 18_416,
        }
    }

    /// The paper's Table 2 partially-updated (classifier-only) count.
    pub fn paper_partial_param_count(self) -> u64 {
        match self {
            ArchId::MobileNetV2 => 1_281_000,
            ArchId::GoogLeNet => 1_025_000,
            ArchId::ResNet18 => 513_000,
            ArchId::ResNet50 => 2_049_000,
            ArchId::ResNet152 => 2_049_000,
            ArchId::TinyCnn => 17_000,
        }
    }

    /// Path prefix of the final classifier layer — the "last fully connected
    /// layers" the paper leaves trainable for partially updated versions.
    pub fn classifier_prefix(self) -> &'static str {
        match self {
            ArchId::MobileNetV2 => "classifier",
            _ => "fc",
        }
    }

    /// Smallest square input resolution the module tree supports (the
    /// stride/pooling pyramid must not collapse below 1×1).
    pub fn min_resolution(self) -> usize {
        match self {
            ArchId::TinyCnn => 8,
            _ => 32,
        }
    }

    /// Builds the architecture. A [`Fill::Seeded`] source runs its
    /// torchvision-style initialization; [`Fill::Skeleton`] builds the same
    /// tree and shapes without drawing a sample.
    pub fn build(self, fill: &mut Fill<'_>) -> Module {
        match self {
            ArchId::MobileNetV2 => mobilenet_v2(fill),
            ArchId::GoogLeNet => googlenet(fill),
            ArchId::ResNet18 => resnet(&[2, 2, 2, 2], Block::Basic, fill),
            ArchId::ResNet50 => resnet(&[3, 4, 6, 3], Block::Bottleneck, fill),
            ArchId::ResNet152 => resnet(&[3, 8, 36, 3], Block::Bottleneck, fill),
            ArchId::TinyCnn => tiny_cnn(fill),
        }
    }

    /// A canonical textual representation of the architecture definition —
    /// the "model code" artifact the baseline approach stores alongside the
    /// parameters (paper §3.1).
    pub fn source_code(self) -> String {
        format!(
            "// mmlib architecture definition v1\n\
             // Rust re-implementation of torchvision {name}\n\
             arch = {name}\n\
             classes = 1000\n\
             params = {params}\n\
             classifier = {clf}\n",
            name = self.name(),
            params = self.paper_param_count(),
            clf = self.classifier_prefix(),
        )
    }
}

const NUM_CLASSES: usize = 1000;

enum Block {
    Basic,
    Bottleneck,
}

fn named(children: Vec<(String, Module)>) -> Module {
    Module::Sequential(Sequential::new(children))
}

// ---------------------------------------------------------------------------
// ResNet
// ---------------------------------------------------------------------------

fn resnet_conv(
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
    fill: &mut Fill<'_>,
) -> Module {
    Module::Conv2d(
        Conv2d::new(cin, cout, k, stride, pad, 1, false).init(Init::KaimingNormalFanOut, fill),
    )
}

fn basic_block(cin: usize, cout: usize, stride: usize, fill: &mut Fill<'_>) -> Module {
    let body = named(vec![
        ("conv1".into(), resnet_conv(cin, cout, 3, stride, 1, fill)),
        ("bn1".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
        ("relu1".into(), Module::ReLU(ReLU::new())),
        ("conv2".into(), resnet_conv(cout, cout, 3, 1, 1, fill)),
        ("bn2".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
    ]);
    let downsample = (stride != 1 || cin != cout).then(|| {
        named(vec![
            ("0".into(), resnet_conv(cin, cout, 1, stride, 0, fill)),
            ("1".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
        ])
    });
    Module::Residual(Residual::new(body, downsample, true))
}

fn bottleneck_block(cin: usize, width: usize, stride: usize, fill: &mut Fill<'_>) -> Module {
    let cout = width * 4;
    let body = named(vec![
        ("conv1".into(), resnet_conv(cin, width, 1, 1, 0, fill)),
        ("bn1".into(), Module::BatchNorm2d(BatchNorm2d::new(width))),
        ("relu1".into(), Module::ReLU(ReLU::new())),
        ("conv2".into(), resnet_conv(width, width, 3, stride, 1, fill)),
        ("bn2".into(), Module::BatchNorm2d(BatchNorm2d::new(width))),
        ("relu2".into(), Module::ReLU(ReLU::new())),
        ("conv3".into(), resnet_conv(width, cout, 1, 1, 0, fill)),
        ("bn3".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
    ]);
    let downsample = (stride != 1 || cin != cout).then(|| {
        named(vec![
            ("0".into(), resnet_conv(cin, cout, 1, stride, 0, fill)),
            ("1".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
        ])
    });
    Module::Residual(Residual::new(body, downsample, true))
}

fn resnet(layers: &[usize; 4], block: Block, fill: &mut Fill<'_>) -> Module {
    let widths = [64usize, 128, 256, 512];
    let expansion = match block {
        Block::Basic => 1,
        Block::Bottleneck => 4,
    };
    let mut children: Vec<(String, Module)> = vec![
        ("conv1".into(), resnet_conv(3, 64, 7, 2, 3, fill)),
        ("bn1".into(), Module::BatchNorm2d(BatchNorm2d::new(64))),
        ("relu".into(), Module::ReLU(ReLU::new())),
        ("maxpool".into(), Module::MaxPool2d(MaxPool2d::new(3, 2, 1))),
    ];
    let mut cin = 64usize;
    for (i, (&n, &width)) in layers.iter().zip(&widths).enumerate() {
        let stage_stride = if i == 0 { 1 } else { 2 };
        let mut blocks = Vec::with_capacity(n);
        for j in 0..n {
            let stride = if j == 0 { stage_stride } else { 1 };
            let b = match block {
                Block::Basic => basic_block(cin, width, stride, fill),
                Block::Bottleneck => bottleneck_block(cin, width, stride, fill),
            };
            cin = width * expansion;
            blocks.push((j.to_string(), b));
        }
        children.push((format!("layer{}", i + 1), named(blocks)));
    }
    children.push(("avgpool".into(), Module::GlobalAvgPool(GlobalAvgPool::new())));
    children.push((
        "fc".into(),
        Module::Linear(Linear::new(cin, NUM_CLASSES).init(Init::UniformFanIn, Init::UniformFanIn, fill)),
    ));
    named(children)
}

// ---------------------------------------------------------------------------
// MobileNetV2
// ---------------------------------------------------------------------------

fn mnv2_conv_bn_relu(
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    groups: usize,
    fill: &mut Fill<'_>,
) -> Vec<(String, Module)> {
    let pad = (k - 1) / 2;
    vec![
        (
            "0".into(),
            Module::Conv2d(
                Conv2d::new(cin, cout, k, stride, pad, groups, false)
                    .init(Init::KaimingNormalFanOut, fill),
            ),
        ),
        ("1".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
        ("2".into(), Module::ReLU6(ReLU6::new())),
    ]
}

fn inverted_residual(cin: usize, cout: usize, stride: usize, expand: usize, fill: &mut Fill<'_>) -> Module {
    let hidden = cin * expand;
    let mut seq: Vec<(String, Module)> = Vec::new();
    let mut idx = 0usize;
    let mut push = |seq: &mut Vec<(String, Module)>, m: Module| {
        seq.push((idx.to_string(), m));
        idx += 1;
    };
    if expand != 1 {
        // Pointwise expansion.
        push(&mut seq, Module::Conv2d(Conv2d::new(cin, hidden, 1, 1, 0, 1, false).init(Init::KaimingNormalFanOut, fill)));
        push(&mut seq, Module::BatchNorm2d(BatchNorm2d::new(hidden)));
        push(&mut seq, Module::ReLU6(ReLU6::new()));
    }
    // Depthwise.
    push(&mut seq, Module::Conv2d(Conv2d::new(hidden, hidden, 3, stride, 1, hidden, false).init(Init::KaimingNormalFanOut, fill)));
    push(&mut seq, Module::BatchNorm2d(BatchNorm2d::new(hidden)));
    push(&mut seq, Module::ReLU6(ReLU6::new()));
    // Linear projection.
    push(&mut seq, Module::Conv2d(Conv2d::new(hidden, cout, 1, 1, 0, 1, false).init(Init::KaimingNormalFanOut, fill)));
    push(&mut seq, Module::BatchNorm2d(BatchNorm2d::new(cout)));
    let body = named(seq);
    if stride == 1 && cin == cout {
        Module::Residual(Residual::new(body, None, false))
    } else {
        named(vec![("conv".into(), body)])
    }
}

fn mobilenet_v2(fill: &mut Fill<'_>) -> Module {
    // (expand, out_channels, repeats, first_stride) — Table 2 of the paper's
    // reference [30] (Sandler et al.).
    const CFG: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut features: Vec<(String, Module)> = Vec::new();
    features.push(("0".into(), named(mnv2_conv_bn_relu(3, 32, 3, 2, 1, fill))));
    let mut cin = 32usize;
    let mut fi = 1usize;
    for (t, c, n, s) in CFG {
        for j in 0..n {
            let stride = if j == 0 { s } else { 1 };
            features.push((fi.to_string(), inverted_residual(cin, c, stride, t, fill)));
            cin = c;
            fi += 1;
        }
    }
    features.push((fi.to_string(), named(mnv2_conv_bn_relu(cin, 1280, 1, 1, 1, fill))));
    named(vec![
        ("features".into(), named(features)),
        ("avgpool".into(), Module::GlobalAvgPool(GlobalAvgPool::new())),
        (
            "classifier".into(),
            named(vec![
                ("0".into(), Module::Dropout(Dropout::new(0.2))),
                (
                    "1".into(),
                    Module::Linear(
                        Linear::new(1280, NUM_CLASSES)
                            .init(Init::KaimingNormalFanOut, Init::Zeros, fill),
                    ),
                ),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// GoogLeNet
// ---------------------------------------------------------------------------

fn basic_conv(cin: usize, cout: usize, k: usize, stride: usize, pad: usize, fill: &mut Fill<'_>) -> Module {
    named(vec![
        (
            "conv".into(),
            Module::Conv2d(
                Conv2d::new(cin, cout, k, stride, pad, 1, false)
                    .init(Init::TruncatedNormalPpf { std: 0.01 }, fill),
            ),
        ),
        ("bn".into(), Module::BatchNorm2d(BatchNorm2d::new(cout))),
        ("relu".into(), Module::ReLU(ReLU::new())),
    ])
}

#[allow(clippy::too_many_arguments)]
fn inception(
    cin: usize,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    pool_proj: usize,
    fill: &mut Fill<'_>,
) -> Module {
    Module::Branches(crate::module::Branches::new(vec![
        ("branch1".into(), basic_conv(cin, c1, 1, 1, 0, fill)),
        (
            "branch2".into(),
            named(vec![
                ("0".into(), basic_conv(cin, c3r, 1, 1, 0, fill)),
                ("1".into(), basic_conv(c3r, c3, 3, 1, 1, fill)),
            ]),
        ),
        (
            "branch3".into(),
            named(vec![
                ("0".into(), basic_conv(cin, c5r, 1, 1, 0, fill)),
                // torchvision's famous bug: the "5x5" branch uses kernel 3.
                ("1".into(), basic_conv(c5r, c5, 3, 1, 1, fill)),
            ]),
        ),
        (
            "branch4".into(),
            named(vec![
                ("0".into(), Module::MaxPool2d(MaxPool2d::new(3, 1, 1))),
                ("1".into(), basic_conv(cin, pool_proj, 1, 1, 0, fill)),
            ]),
        ),
    ]))
}

fn googlenet(fill: &mut Fill<'_>) -> Module {
    named(vec![
        ("conv1".into(), basic_conv(3, 64, 7, 2, 3, fill)),
        ("maxpool1".into(), Module::MaxPool2d(MaxPool2d::new(3, 2, 1))),
        ("conv2".into(), basic_conv(64, 64, 1, 1, 0, fill)),
        ("conv3".into(), basic_conv(64, 192, 3, 1, 1, fill)),
        ("maxpool2".into(), Module::MaxPool2d(MaxPool2d::new(3, 2, 1))),
        ("inception3a".into(), inception(192, 64, 96, 128, 16, 32, 32, fill)),
        ("inception3b".into(), inception(256, 128, 128, 192, 32, 96, 64, fill)),
        ("maxpool3".into(), Module::MaxPool2d(MaxPool2d::new(3, 2, 1))),
        ("inception4a".into(), inception(480, 192, 96, 208, 16, 48, 64, fill)),
        ("inception4b".into(), inception(512, 160, 112, 224, 24, 64, 64, fill)),
        ("inception4c".into(), inception(512, 128, 128, 256, 24, 64, 64, fill)),
        ("inception4d".into(), inception(512, 112, 144, 288, 32, 64, 64, fill)),
        ("inception4e".into(), inception(528, 256, 160, 320, 32, 128, 128, fill)),
        ("maxpool4".into(), Module::MaxPool2d(MaxPool2d::new(2, 2, 0))),
        ("inception5a".into(), inception(832, 256, 160, 320, 32, 128, 128, fill)),
        ("inception5b".into(), inception(832, 384, 192, 384, 48, 128, 128, fill)),
        ("avgpool".into(), Module::GlobalAvgPool(GlobalAvgPool::new())),
        ("dropout".into(), Module::Dropout(Dropout::new(0.2))),
        (
            "fc".into(),
            Module::Linear(
                Linear::new(1024, NUM_CLASSES).init(Init::TruncatedNormalPpf { std: 0.01 }, Init::Zeros, fill),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// TinyCnn (test-only; not part of the paper's Table 2)
// ---------------------------------------------------------------------------

fn tiny_cnn(fill: &mut Fill<'_>) -> Module {
    named(vec![
        (
            "conv1".into(),
            Module::Conv2d(Conv2d::new(3, 8, 3, 2, 1, 1, false).init(Init::KaimingNormalFanOut, fill)),
        ),
        ("bn1".into(), Module::BatchNorm2d(BatchNorm2d::new(8))),
        ("relu1".into(), Module::ReLU(ReLU::new())),
        (
            "conv2".into(),
            Module::Conv2d(Conv2d::new(8, 16, 3, 2, 1, 1, false).init(Init::KaimingNormalFanOut, fill)),
        ),
        ("bn2".into(), Module::BatchNorm2d(BatchNorm2d::new(16))),
        ("relu2".into(), Module::ReLU(ReLU::new())),
        ("avgpool".into(), Module::GlobalAvgPool(GlobalAvgPool::new())),
        (
            "fc".into(),
            Module::Linear(Linear::new(16, NUM_CLASSES).init(Init::UniformFanIn, Init::UniformFanIn, fill)),
        ),
    ])
}

// Flatten is currently unused by the builders (GlobalAvgPool already emits
// [N, C]) but is part of the public layer set; reference it so the import is
// intentional rather than stray.
#[allow(unused)]
fn _uses_flatten() -> Flatten {
    Flatten::new()
}
