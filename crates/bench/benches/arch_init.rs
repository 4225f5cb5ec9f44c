//! Architecture construction cost — the ablation behind the paper's Fig. 12
//! GoogLeNet anomaly: paper-faithful recovery constructs the architecture
//! (running its init routine) before overwriting parameters, and
//! GoogLeNet's inverse-CDF truncated-normal initializer is
//! disproportionately slow for its parameter count. Default recovery builds
//! a `Model::skeleton` instead and skips the init.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlib_model::{ArchId, Model};

fn bench_init(c: &mut Criterion) {
    let mut group = c.benchmark_group("arch_init");
    group.sample_size(10);
    for arch in [ArchId::MobileNetV2, ArchId::GoogLeNet, ArchId::ResNet18] {
        group.bench_with_input(BenchmarkId::from_parameter(arch.name()), &arch, |b, &arch| {
            b.iter(|| Model::new_initialized(arch, 0))
        });
    }
    group.finish();
}

criterion_group!(arch_init, bench_init);
criterion_main!(arch_init);
