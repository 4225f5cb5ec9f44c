//! Criterion micro-benchmarks for the mmlib substrate: hashing,
//! serialization, Merkle diffing (vs the naive scan — the ablation for the
//! paper's Fig. 4 design choice), and deterministic-vs-parallel reductions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmlib_core::merkle::MerkleTree;
use mmlib_tensor::hash::{hash_tensor, sha256};
use mmlib_tensor::ser::{state_from_bytes, state_to_bytes, tensor_from_bytes, tensor_to_bytes};
use mmlib_tensor::{ops, ExecMode, Pcg32, Tensor};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [4 * 1024usize, 1024 * 1024, 16 * 1024 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
    }
    group.finish();
}

fn bench_tensor_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_tensor");
    for numel in [4_096usize, 1_048_576] {
        let mut rng = Pcg32::seeded(1);
        let mut t = Tensor::rand_normal([numel], 0.0, 1.0, &mut rng);
        group.throughput(Throughput::Bytes((numel * 4) as u64));
        group.bench_function(BenchmarkId::from_parameter(numel), |b| {
            b.iter(|| {
                // A write drops the digest memo, so every iteration hashes.
                t.data_mut();
                hash_tensor(&t)
            })
        });
    }
    group.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_ser");
    let mut rng = Pcg32::seeded(2);
    let t = Tensor::rand_normal([1024, 1024], 0.0, 1.0, &mut rng);
    group.throughput(Throughput::Bytes(t.nbytes() as u64));
    group.bench_function("to_bytes_4MB", |b| b.iter(|| tensor_to_bytes(&t)));
    let bytes = tensor_to_bytes(&t);
    group.bench_function("from_bytes_4MB", |b| b.iter(|| tensor_from_bytes(&bytes).unwrap()));

    // A state dict with many small entries stresses per-entry overheads.
    let entries: Vec<(String, Tensor)> = (0..256)
        .map(|i| (format!("layer{i}.weight"), Tensor::rand_normal([64, 64], 0.0, 1.0, &mut rng)))
        .collect();
    group.bench_function("state_dict_256x16KB", |b| {
        b.iter(|| state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t)).collect::<Vec<_>>()))
    });
    let sd_bytes = state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t)).collect::<Vec<_>>());
    group.bench_function("state_dict_parse", |b| b.iter(|| state_from_bytes(&sd_bytes).unwrap()));
    group.finish();
}

fn bench_merkle_diff(c: &mut Criterion) {
    // Ablation: Merkle walk vs naive leaf scan at the layer counts of the
    // paper's example and of the real architectures (ResNet-152: 311).
    let mut group = c.benchmark_group("merkle_diff");
    for n in [8usize, 64, 128, 311] {
        let base: Vec<(String, _)> =
            (0..n).map(|i| (format!("layer{i}"), sha256(format!("v{i}").as_bytes()))).collect();
        let mut changed = base.clone();
        let last = changed.len() - 1;
        changed[last].1 = sha256(b"changed");
        let ta = MerkleTree::from_leaves(base);
        let tb = MerkleTree::from_leaves(changed);
        group.bench_with_input(BenchmarkId::new("merkle", n), &(&ta, &tb), |b, (ta, tb)| {
            b.iter(|| ta.diff(tb))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &(&ta, &tb), |b, (ta, tb)| {
            b.iter(|| ta.diff_naive(tb))
        });
    }
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_product");
    let mut rng = Pcg32::seeded(3);
    let n = 1_000_000usize;
    let a: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b2: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("serial_1M", |b| {
        b.iter(|| ops::dot(&a, &b2, ExecMode::Deterministic))
    });
    group.bench_function("parallel_1M", |b| b.iter(|| ops::dot(&a, &b2, ExecMode::Parallel)));
    group.finish();
}

criterion_group!(
    micro,
    bench_sha256,
    bench_tensor_hash,
    bench_serialization,
    bench_merkle_diff,
    bench_reductions
);
criterion_main!(micro);
