//! Criterion benchmarks of the three approaches' save and recover paths
//! (one bench per approach x operation, on a partially-updated ResNet-18 —
//! the per-table data behind Figs. 7/10/11 at micro scale).

use criterion::{criterion_group, criterion_main, Criterion};
use mmlib_core::meta::ModelRelation;
use mmlib_core::{RecoverOptions, SaveService, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const SCALE: f64 = 1.0 / 4096.0;

struct Fixture {
    svc: SaveService,
    model: Model,
    base: mmlib_core::meta::SavedModelId,
    prov: TrainProvenance,
    _dir: tempfile::TempDir,
}

fn fixture() -> Fixture {
    let dir = tempfile::tempdir().unwrap();
    let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
    let mut model = Model::new_initialized(ArchId::ResNet18, 1);
    model.set_fully_trainable();
    let base = svc.save_full(&model, None, "initial").unwrap();

    model.set_classifier_only_trainable();
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 16,
        seed: 5,
        max_images: Some(4),
        ..Default::default()
    };
    let sgd_config = SgdConfig::default();
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(2),
        seed: 5,
        mode: ExecMode::Deterministic,
    };
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(&mut model);
    Fixture { svc, model, base, prov, _dir: dir }
}

fn bench_saves(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("save");
    group.sample_size(10);
    group.bench_function("baseline_resnet18", |b| {
        b.iter(|| f.svc.save_full(&f.model, Some(&f.base), "partially_updated").unwrap())
    });
    group.bench_function("param_update_resnet18", |b| {
        b.iter(|| f.svc.save_update(&f.model, &f.base, "partially_updated").unwrap())
    });
    group.bench_function("provenance_resnet18", |b| {
        b.iter(|| f.svc.save_provenance(&f.model, &f.base, &f.prov).unwrap())
    });
    group.finish();
}

fn bench_recovers(c: &mut Criterion) {
    let f = fixture();
    let ba = f.svc.save_full(&f.model, Some(&f.base), "partially_updated").unwrap();
    let (pua, _) = f.svc.save_update(&f.model, &f.base, "partially_updated").unwrap();
    let mpa = f.svc.save_provenance(&f.model, &f.base, &f.prov).unwrap();
    let mut group = c.benchmark_group("recover");
    group.sample_size(10);
    group.bench_function("baseline_resnet18", |b| {
        b.iter(|| f.svc.recover(&ba, RecoverOptions::default().paper_init(true)).unwrap())
    });
    group.bench_function("param_update_resnet18", |b| {
        b.iter(|| f.svc.recover(&pua, RecoverOptions::default().paper_init(true)).unwrap())
    });
    group.bench_function("provenance_resnet18", |b| {
        b.iter(|| f.svc.recover(&mpa, RecoverOptions::default().paper_init(true)).unwrap())
    });
    group.finish();
}

criterion_group!(approaches, bench_saves, bench_recovers);
criterion_main!(approaches);
