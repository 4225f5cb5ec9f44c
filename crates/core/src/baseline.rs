//! Baseline approach (BA, paper §3.1): complete independent snapshots.
//!
//! Save: environment doc + layer-hash doc + model-info doc; architecture
//! code and the full serialized state dict as files. Recovery loads
//! everything back, rebuilds the architecture, decodes the parameters into
//! it, and verifies. The rebuild is an uninitialized skeleton by default;
//! [`RecoverOptions::paper_init`](crate::RecoverOptions::paper_init) runs
//! the architecture's init routine first, as the paper's mmlib does — the
//! step that makes GoogLeNet's recovery anomalously slow (Fig. 12).

use std::time::Instant;

use mmlib_model::Model;
use mmlib_tensor::ser::{parse_state, state_to_bytes};

use crate::error::CoreError;
use crate::meta::{ModelInfoDoc, ModelRelation, SavedModelId};
use crate::recovery::{RecoverBreakdown, SaveService};
use crate::report::{SaveClock, SaveRequest};

impl SaveService {
    /// Saves a complete snapshot of `model` (the baseline approach).
    ///
    /// `base` is recorded as metadata only — the baseline "explicitly
    /// excludes loading documents holding base model information" at
    /// recovery. `relation` documents how this model relates to its base.
    ///
    /// Thin wrapper over [`SaveService::save`] with a
    /// [`SaveRequest::full`] request.
    pub fn save_full(
        &self,
        model: &Model,
        base: Option<&SavedModelId>,
        relation: &str,
    ) -> Result<SavedModelId, CoreError> {
        let mut req = SaveRequest::full(model).relation(relation);
        if let Some(base) = base {
            req = req.base(base);
        }
        Ok(self.save(req)?.id)
    }

    pub(crate) fn save_full_phased(
        &self,
        model: &Model,
        base: Option<&SavedModelId>,
        relation: &str,
        clock: &mut SaveClock<'_>,
    ) -> Result<SavedModelId, CoreError> {
        let relation = parse_relation(relation, base)?;

        // Full state dict file.
        let entries = model.state_entries();
        let bytes = clock.time("serialize", || {
            state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>())
                .to_vec()
        });

        // Layer hashes: the baseline's optional recovery checksums —
        // mmlib always stores them, as the paper's PUA interop requires a
        // base's hashes to be loadable without recovering it.
        let tree = self.save_tree(model, clock);

        // The whole save is one batch commit: artifacts first, then the
        // model-info document referencing them by intra-batch `$batch:N`
        // placeholders, then the lineage record referencing model-info.
        // Item order is visibility order, so the old write-after-write
        // crash semantics hold while the save pays one durability tail
        // (one staged fdatasync per item + one directory fsync per store)
        // instead of a tmp+fsync+rename+dir-fsync round per artifact.
        let info = ModelInfoDoc {
            approach: crate::meta::ApproachKind::Baseline,
            arch: model.arch.name().to_string(),
            relation,
            base_model: base.map(|b| b.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(0),
            code_file: Some(mmlib_store::batch_ref(1)),
            weights_file: Some(mmlib_store::batch_ref(2)),
            update_encoding: None,
            layer_hash_doc: mmlib_store::batch_ref(3),
            root_hash: tree.root().to_hex(),
            train_doc: None,
            dataset: None,
        };
        let batch = vec![
            self.environment_item()?,
            mmlib_store::BatchItem::File { bytes: model.arch.source_code().into_bytes() },
            mmlib_store::BatchItem::File { bytes },
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
            self.lineage_item(&info, mmlib_store::batch_ref(4), None)?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        Ok(SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(4))?))
    }

    /// Rewrites an already-saved model in place as a full snapshot.
    ///
    /// `model` must be the recovered parameters of `id` (callers recover it
    /// once; delta-chain compaction in `mmlib-lineage` recovers a whole
    /// chain in one forward pass). The parameters are verified against the
    /// stored Merkle root first, then the full state dict is written as a
    /// new weights file and the model-info document is updated: approach
    /// becomes [`ApproachKind::Baseline`](crate::meta::ApproachKind), the
    /// recovery base is cleared, and a parameter update's old delta file is
    /// removed. Content identity — the id, root hash, and layer-hash
    /// document — is untouched, so recovery stays byte-identical while its
    /// chain depth drops to zero. Returns the file id the old weights file
    /// had, when one was replaced.
    ///
    /// Crash ordering: new file → document update → old-file removal, so an
    /// interruption leaves either the old committed state or the new one,
    /// plus at most an unreferenced file for `fsck --repair` to quarantine.
    pub fn promote_to_snapshot(
        &self,
        id: &SavedModelId,
        model: &Model,
    ) -> Result<Option<String>, CoreError> {
        let mut info = self.load_model_info(id)?;
        crate::verify::verify_against_root(model, &info.root_hash, id)?;
        if info.approach == crate::meta::ApproachKind::Baseline {
            return Ok(None); // already a snapshot — idempotent
        }

        let entries = model.state_entries();
        let bytes =
            state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>());
        let weights_file = self.storage().put_file(&bytes)?;

        let old_weights = info.weights_file.take();
        info.approach = crate::meta::ApproachKind::Baseline;
        info.base_model = None;
        info.weights_file = Some(weights_file.as_str().to_string());
        info.update_encoding = None;
        self.storage()
            .docs()
            .update(id.doc_id(), crate::error::to_json_value("ModelInfoDoc", &info)?)?;

        if let Some(old) = &old_weights {
            self.storage().files().remove(&mmlib_store::FileId::from_string(old.clone()))?;
        }
        Ok(old_weights)
    }

    /// Recovers a baseline snapshot (no recursion). `paper_init` runs the
    /// architecture's init routine before the load (see
    /// [`RecoverOptions::paper_init`](crate::RecoverOptions::paper_init)).
    pub(crate) fn recover_full(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        paper_init: bool,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        let arch = self.arch_of(info, id)?;
        let weights_id = info.weights_file.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "baseline document lacks a weights file".into(),
        })?;

        let start = Instant::now();
        let bytes = self.read_file(weights_id)?;
        // The code file is loaded too (it is part of the exact
        // representation), although the Rust build resolves the
        // architecture from its identifier.
        if let Some(code_id) = &info.code_file {
            let _ = self.read_file(code_id)?;
        }
        breakdown.load += start.elapsed();

        let start = Instant::now();
        // Rebuild the architecture object and decode the stored state
        // straight into its tensors. Every entry is overwritten, so the
        // skeleton's placeholder zeros never survive. With `paper_init` the
        // rebuild first runs the init routine — what
        // `torchvision.models.X()` + `load_state_dict` does, and the origin
        // of the GoogLeNet recovery anomaly (paper Fig. 12).
        let mut model =
            if paper_init { Model::new_initialized(arch, 0) } else { Model::skeleton(arch) };
        model.load_encoded(&parse_state(&bytes)?)?;
        breakdown.recover += start.elapsed();
        Ok(model)
    }
}

pub(crate) fn parse_relation(
    relation: &str,
    base: Option<&SavedModelId>,
) -> Result<ModelRelation, CoreError> {
    let parsed = match relation {
        "initial" => ModelRelation::Initial,
        "fully_updated" => ModelRelation::FullyUpdated,
        "partially_updated" => ModelRelation::PartiallyUpdated,
        other => {
            return Err(CoreError::BadModelDocument {
                id: SavedModelId(mmlib_store::DocId::from_string("unsaved".into())),
                reason: format!("unknown relation {other:?}"),
            })
        }
    };
    if parsed == ModelRelation::Initial && base.is_some() {
        return Err(CoreError::BadModelDocument {
            id: SavedModelId(mmlib_store::DocId::from_string("unsaved".into())),
            reason: "initial models cannot have a base".into(),
        });
    }
    if parsed != ModelRelation::Initial && base.is_none() {
        return Err(CoreError::BadModelDocument {
            id: SavedModelId(mmlib_store::DocId::from_string("unsaved".into())),
            reason: format!("{relation} requires a base model"),
        });
    }
    Ok(parsed)
}
