//! Model provenance approach (MPA, paper §3.3): save *how* the model was
//! made, not the model.
//!
//! A derived model is represented by (1) the training process — a
//! [`crate::wrapper`] tree of the train service, dataloader, and stateful
//! optimizer; (2) the training environment; (3) the training dataset,
//! packed into a single container file (or an external reference when a
//! dedicated dataset manager owns it); and (4) the base-model reference.
//! Recovery recovers the base recursively and *replays the training*
//! deterministically, then verifies the replayed model against the stored
//! Merkle root.

use std::time::Instant;

use mmlib_data::loader::LoaderConfig;
use mmlib_data::{container, Dataset, DatasetId};
use mmlib_model::Model;
use mmlib_train::{ImageNetTrainService, OptimizerConfig, TrainConfig, TrainService};

use crate::error::CoreError;
use crate::meta::{ApproachKind, DatasetRef, ModelInfoDoc, ModelRelation, SavedModelId};
use crate::recovery::{RecoverBreakdown, SaveService};
use crate::report::{SaveClock, SaveRequest};
use crate::wrapper;

/// Everything the provenance approach must capture about one training run.
///
/// Build this *before* training (the optimizer state must be the
/// pre-training state so the replay starts from the same point), train, and
/// then call [`SaveService::save_provenance`] with the trained model.
#[derive(Debug, Clone)]
pub struct TrainProvenance {
    /// Which Table 1 dataset was trained on.
    pub dataset_id: DatasetId,
    /// The byte-size scale the dataset was materialized with.
    pub dataset_scale: f64,
    /// `true` when a dedicated external system manages the dataset; mmlib
    /// then stores only the reference, not the container (paper §3.3,
    /// "Managing Data sets" — and the §4.7 scenario where this makes the
    /// MPA's storage shrink to the training information).
    pub dataset_external: bool,
    /// The dataloader's constructor arguments.
    pub loader_config: LoaderConfig,
    /// The optimizer's class and constructor arguments.
    pub optimizer: OptimizerConfig,
    /// The optimizer's serialized internal state *before* training.
    pub optimizer_state_before: Vec<u8>,
    /// The training hyper-parameters.
    pub train_config: TrainConfig,
    /// Relation of the produced model to its base.
    pub relation: ModelRelation,
}

impl SaveService {
    /// Saves `model_after_training` by provenance against `base`.
    ///
    /// The model's parameters are **not** stored — only its Merkle root (to
    /// verify the replay) and the provenance needed to reproduce it.
    ///
    /// Thin wrapper over [`SaveService::save`] with a
    /// [`SaveRequest::provenance`] request.
    pub fn save_provenance(
        &self,
        model_after_training: &Model,
        base: &SavedModelId,
        prov: &TrainProvenance,
    ) -> Result<SavedModelId, CoreError> {
        Ok(self.save(SaveRequest::provenance(model_after_training, base, prov))?.id)
    }

    pub(crate) fn save_provenance_phased(
        &self,
        model_after_training: &Model,
        base: &SavedModelId,
        prov: &TrainProvenance,
        clock: &mut SaveClock<'_>,
    ) -> Result<SavedModelId, CoreError> {
        if prov.relation == ModelRelation::Initial {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "provenance saves describe derived models, not initial ones".into(),
            });
        }
        if prov.train_config.mode != mmlib_tensor::ExecMode::Deterministic {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "provenance saves require deterministic training (paper §4.5)".into(),
            });
        }

        // (3) Dataset: pack to a single file unless managed externally.
        let dataset = Dataset::new(prov.dataset_id, prov.dataset_scale);
        let container_file = if prov.dataset_external {
            None
        } else {
            let packed = clock.time("pack", || container::pack(&dataset));
            Some(clock.time("write", || self.storage().put_file(&packed))?.as_str().to_string())
        };
        let dataset_ref = DatasetRef {
            name: prov.dataset_id.short_name().to_string(),
            scale: prov.dataset_scale,
            container_file,
            content_digest: dataset.content_digest().to_hex(),
        };

        // (1) Training process: wrapper documents.
        let loader_doc =
            clock.time("write", || wrapper::save_loader_wrapper(self.storage(), &prov.loader_config))?;
        let sgd_doc = clock.time("write", || {
            wrapper::save_optimizer_wrapper(
                self.storage(),
                &prov.optimizer,
                &prov.optimizer_state_before,
            )
        })?;
        let train_doc = clock.time("write", || {
            wrapper::save_train_service_wrapper(
                self.storage(),
                &prov.train_config,
                &loader_doc,
                &sgd_doc,
            )
        })?;

        // (2) Environment and verification data (the resulting model's
        // layer hashes), plus (4) the model-info document tying in the base
        // reference and the wrapper tree, plus the lineage record — all one
        // batch commit, with model-info referencing the in-batch items via
        // `$batch:N` and the external wrapper/train docs by their real ids.
        let tree = self.save_tree(model_after_training, clock);
        let info = ModelInfoDoc {
            approach: ApproachKind::Provenance,
            arch: model_after_training.arch.name().to_string(),
            relation: prov.relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(0),
            code_file: None,
            weights_file: None,
            update_encoding: None,
            layer_hash_doc: mmlib_store::batch_ref(1),
            root_hash: tree.root().to_hex(),
            train_doc: Some(train_doc.as_str().to_string()),
            dataset: Some(dataset_ref),
        };
        let batch = vec![
            self.environment_item()?,
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
            self.lineage_item(&info, mmlib_store::batch_ref(2), None)?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        Ok(SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(2))?))
    }

    /// Replays a provenance document's training onto its already-recovered
    /// base: one step of the chain replay in `SaveService::recover_inner`.
    pub(crate) fn replay_onto(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        mut model: Model,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        // Load provenance pieces.
        let dataset_ref = info.dataset.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "provenance document lacks a dataset reference".into(),
        })?;
        let train_doc = info.train_doc.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "provenance document lacks a train-service reference".into(),
        })?;

        let start = Instant::now();
        let dataset_id = DatasetId::from_short_name(&dataset_ref.name).ok_or_else(|| {
            CoreError::BadModelDocument {
                id: id.clone(),
                reason: format!("unknown dataset {:?}", dataset_ref.name),
            }
        })?;
        let dataset = Dataset::new(dataset_id, dataset_ref.scale);
        // Verify the stored container (when present) round-trips and matches
        // the declared content digest.
        if let Some(file_id) = &dataset_ref.container_file {
            let packed = self.read_file(file_id)?;
            let unpacked = container::unpack(&packed)?;
            if unpacked.id != dataset_id || unpacked.blobs.len() as u64 != dataset.len() {
                return Err(CoreError::VerificationFailed {
                    id: id.clone(),
                    reason: "dataset container does not match its reference".into(),
                });
            }
        }
        if dataset.content_digest().to_hex() != dataset_ref.content_digest {
            return Err(CoreError::VerificationFailed {
                id: id.clone(),
                reason: "dataset content digest mismatch".into(),
            });
        }
        let mut svc: ImageNetTrainService = wrapper::reconstruct_train_service(
            self.storage(),
            &mmlib_store::DocId::from_string(train_doc.clone()),
            dataset,
        )?;
        breakdown.load += start.elapsed();

        // Replay the training (the dominant recover cost, §4.4).
        let start = Instant::now();
        info.relation.apply_trainability(&mut model);
        svc.train(&mut model);
        breakdown.recover += start.elapsed();
        Ok(model)
    }
}
