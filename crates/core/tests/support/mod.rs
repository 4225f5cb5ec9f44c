//! A small saved population shared by the skeleton-recovery tests: one
//! snapshot and one derived save per approach and encoding.

use mmlib_core::meta::{ModelRelation, SavedModelId};
use mmlib_core::{SaveService, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

/// One saved version and the model it must recover to.
pub struct Saved {
    pub label: &'static str,
    pub id: SavedModelId,
    pub model: Model,
}

/// Saves a BA root of `arch`, then a plain PUA update, a `delta_v1` PUA
/// update and an MPA child of it.
pub fn population(svc: &SaveService, arch: ArchId) -> Vec<Saved> {
    let root = Model::new_initialized(arch, 11);
    let root_id = svc.save_full(&root, None, "initial").unwrap();

    let mut updated = root.duplicate();
    updated.set_classifier_only_trainable();
    updated.visit_trainable_mut(&mut |_, w, _| w.data_mut().iter_mut().for_each(|v| *v += 1e-3));
    let (pua, _) = svc.save_update(&updated, &root_id, "partially_updated").unwrap();
    let (delta, _, _) =
        svc.save_update_compressed(&updated, &root, &root_id, "partially_updated").unwrap();

    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: arch.min_resolution(),
        shuffle: true,
        augment: true,
        seed: 5,
        max_images: Some(2),
    };
    let sgd_config = SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0, max_grad_norm: None };
    let train_config = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: Some(1),
        seed: 5,
        mode: ExecMode::Deterministic,
    };
    let scale = 0.0002;
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: scale,
        dataset_external: false,
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation: ModelRelation::PartiallyUpdated,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, scale), loader_config);
    let mut trained = root.duplicate();
    ModelRelation::PartiallyUpdated.apply_trainability(&mut trained);
    ImageNetTrainService::new(loader, sgd, train_config).train(&mut trained);
    let mpa = svc.save_provenance(&trained, &root_id, &prov).unwrap();

    vec![
        Saved { label: "BA", id: root_id, model: root },
        Saved { label: "PUA", id: pua, model: updated.duplicate() },
        Saved { label: "PUA delta_v1", id: delta, model: updated },
        Saved { label: "MPA", id: mpa, model: trained },
    ]
}
