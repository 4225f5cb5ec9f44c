//! The save/recover service: shared plumbing and the chain recovery
//! dispatcher.
//!
//! One [`SaveService`] exposes all three approaches (the approach used is
//! recorded per model document, so a store may mix them) and one
//! [`SaveService::recover`] entry point that resolves base-model chains —
//! the paper's recursive recovery of §3.2/§3.3, run as a loop so chain
//! depth costs heap, not stack.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mmlib_model::{ArchId, Model};
use mmlib_obs::Recorder;
use mmlib_store::{BatchId, DocId, FileId, ModelStorage, StoreError};

use crate::env::EnvironmentInfo;
use crate::error::{to_json_value, CoreError};
use crate::merkle::MerkleTree;
use crate::meta::{kinds, ApproachKind, ModelInfoDoc, SavedModelId};

/// Unpacks a [`BatchId`] expected to identify a document.
pub(crate) fn batch_doc_id(id: Option<BatchId>) -> Result<DocId, CoreError> {
    match id {
        Some(BatchId::Doc(d)) => Ok(d),
        other => Err(CoreError::Store(StoreError::Malformed(format!(
            "batch returned {other:?} where a document id was expected"
        )))),
    }
}

/// Options controlling a recovery.
#[derive(Debug, Clone, Copy)]
pub struct RecoverOptions {
    /// Verify the current environment against the saved one (the paper's
    /// >1 s "check env" step; §4.4 disables it in one experiment).
    pub check_env: bool,
    /// Verify the recovered parameters against the stored Merkle root.
    pub verify: bool,
    /// Maximum base-chain depth (cycle/corruption guard).
    pub max_chain_depth: usize,
    /// Rebuild snapshots the way the paper's mmlib does —
    /// `torchvision.models.X()` runs the random init, then
    /// `load_state_dict` overwrites it — instead of decoding into an
    /// uninitialized skeleton. The result is bit-identical either way; only
    /// the `rebuild` phase's cost differs. The reproduction harness turns
    /// it on so its TTR figures (Fig. 12's GoogLeNet anomaly among them)
    /// keep the paper's semantics.
    pub paper_init: bool,
}

impl Default for RecoverOptions {
    fn default() -> Self {
        RecoverOptions { check_env: true, verify: true, max_chain_depth: 1024, paper_init: false }
    }
}

impl RecoverOptions {
    /// The defaults: environment check on, verification on, depth 1024,
    /// skeleton rebuild (no paper init).
    pub fn new() -> RecoverOptions {
        RecoverOptions::default()
    }

    /// Enables/disables the environment check.
    pub fn check_env(mut self, on: bool) -> RecoverOptions {
        self.check_env = on;
        self
    }

    /// Enables/disables Merkle-root verification of the result.
    pub fn verify(mut self, on: bool) -> RecoverOptions {
        self.verify = on;
        self
    }

    /// Sets the maximum base-chain depth.
    pub fn max_chain_depth(mut self, depth: usize) -> RecoverOptions {
        self.max_chain_depth = depth;
        self
    }

    /// Enables/disables the paper-faithful init before loading a snapshot.
    pub fn paper_init(mut self, on: bool) -> RecoverOptions {
        self.paper_init = on;
        self
    }
}

/// Wall-time breakdown of one recovery (paper Fig. 12's categories).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverBreakdown {
    /// Reading documents and files.
    pub load: Duration,
    /// Building the model object and applying state / updates / replayed
    /// training.
    pub recover: Duration,
    /// Environment verification.
    pub check_env: Duration,
    /// Parameter verification against the stored Merkle root.
    pub verify: Duration,
    /// Number of base models recovered along the chain (0 for a snapshot).
    pub recovered_bases: u32,
}

impl RecoverBreakdown {
    /// Total recovery wall time.
    pub fn total(&self) -> Duration {
        self.load + self.recover + self.check_env + self.verify
    }
}

/// A recovered model plus its recovery-time breakdown.
pub struct RecoveredModel {
    /// The recovered model (bit-exact to the saved one when `verify` is on).
    pub model: Model,
    /// How the recovery time was spent.
    pub breakdown: RecoverBreakdown,
}

impl std::fmt::Debug for RecoveredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveredModel")
            .field("arch", &self.model.arch)
            .field("breakdown", &self.breakdown)
            .finish_non_exhaustive()
    }
}

/// The model management service: save with any approach, recover uniformly.
pub struct SaveService {
    storage: ModelStorage,
    environment: EnvironmentInfo,
    obs: Option<Arc<Recorder>>,
}

impl SaveService {
    /// Creates a service over a storage backend, capturing the current
    /// environment once. Metrics go to the process-wide
    /// [`mmlib_obs::recorder`] unless overridden with
    /// [`SaveService::with_recorder`].
    pub fn new(storage: ModelStorage) -> SaveService {
        SaveService { storage, environment: EnvironmentInfo::capture(), obs: None }
    }

    /// Routes this service's metrics to `recorder` instead of the global
    /// one (isolated accounting for tests and benches).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> SaveService {
        self.obs = Some(recorder);
        self
    }

    /// The recorder this service reports to.
    pub(crate) fn obs(&self) -> &Recorder {
        self.obs.as_deref().unwrap_or_else(|| mmlib_obs::recorder())
    }

    /// The recorder this service reports to (the global one unless
    /// overridden with [`SaveService::with_recorder`]). Layers built on top
    /// of the service — `mmlib-lineage` — report through the same recorder
    /// so one exposition covers the whole stack.
    pub fn recorder(&self) -> &Recorder {
        self.obs()
    }

    /// The underlying storage (metrics: `bytes_written`).
    pub fn storage(&self) -> &ModelStorage {
        &self.storage
    }

    /// The environment captured at service construction.
    pub fn environment(&self) -> &EnvironmentInfo {
        &self.environment
    }

    // ---- shared save plumbing -------------------------------------------

    /// The environment document as a batch item (see
    /// [`mmlib_store::BatchItem`]).
    pub(crate) fn environment_item(&self) -> Result<mmlib_store::BatchItem, CoreError> {
        Ok(mmlib_store::BatchItem::Doc {
            kind: kinds::ENVIRONMENT.to_string(),
            body: to_json_value("EnvironmentInfo", &self.environment)?,
        })
    }

    /// A layer-hash (Merkle) document as a batch item.
    pub(crate) fn layer_hashes_item(
        &self,
        tree: &MerkleTree,
    ) -> Result<mmlib_store::BatchItem, CoreError> {
        Ok(mmlib_store::BatchItem::Doc {
            kind: kinds::LAYER_HASHES.to_string(),
            body: to_json_value("MerkleTree", tree)?,
        })
    }

    /// The model-info document as a batch item. `info`'s referent fields
    /// hold [`mmlib_store::batch_ref`] placeholders for ids generated by the
    /// same batch; keeping model-info in the batch (ordered after its
    /// referents) preserves the sequential path's crash ordering while the
    /// whole save pays a single durability tail.
    pub(crate) fn model_info_item(
        &self,
        info: &ModelInfoDoc,
    ) -> Result<mmlib_store::BatchItem, CoreError> {
        Ok(mmlib_store::BatchItem::Doc {
            kind: kinds::MODEL_INFO.to_string(),
            body: to_json_value("ModelInfoDoc", info)?,
        })
    }

    /// The lineage record as a batch item: the derivation edge the lineage
    /// DAG (`mmlib-lineage`) is built from, one per save. `model_ref` is the
    /// intra-batch reference to the model-info item, so ordering the record
    /// last keeps the old semantics — a lineage record always describes a
    /// model that exists, and a crash in between leaves a model without a
    /// record, which every lineage reader treats as a root-less legacy
    /// node.
    pub(crate) fn lineage_item(
        &self,
        info: &ModelInfoDoc,
        model_ref: String,
        changed_layers: Option<usize>,
    ) -> Result<mmlib_store::BatchItem, CoreError> {
        let record = crate::meta::LineageRecordDoc {
            model: model_ref,
            parent: info.base_model.clone(),
            approach: info.approach,
            relation: info.relation,
            root_hash: info.root_hash.clone(),
            changed_layers,
            tags: Vec::new(),
            rebased_from: None,
        };
        Ok(mmlib_store::BatchItem::Doc {
            kind: kinds::LINEAGE.to_string(),
            body: to_json_value("LineageRecordDoc", &record)?,
        })
    }

    /// Loads and decodes a model-info document.
    pub fn load_model_info(&self, id: &SavedModelId) -> Result<ModelInfoDoc, CoreError> {
        let doc = self.storage.get_doc(id.doc_id())?;
        if doc.kind != kinds::MODEL_INFO {
            return Err(CoreError::BadModelDocument {
                id: id.clone(),
                reason: format!("document kind is {:?}, expected model_info", doc.kind),
            });
        }
        serde_json::from_value(doc.body).map_err(|e| CoreError::BadModelDocument {
            id: id.clone(),
            reason: format!("undecodable body: {e}"),
        })
    }

    /// Loads the stored Merkle tree of a saved model.
    pub(crate) fn load_layer_hashes(&self, info: &ModelInfoDoc, id: &SavedModelId) -> Result<MerkleTree, CoreError> {
        let doc = self.storage.get_doc(&DocId::from_string(info.layer_hash_doc.clone()))?;
        serde_json::from_value(doc.body).map_err(|e| CoreError::BadModelDocument {
            id: id.clone(),
            reason: format!("undecodable layer-hash doc: {e}"),
        })
    }

    /// Decodes the architecture recorded in a model document.
    pub(crate) fn arch_of(&self, info: &ModelInfoDoc, id: &SavedModelId) -> Result<ArchId, CoreError> {
        ArchId::from_name(&info.arch).ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: format!("unknown architecture {:?}", info.arch),
        })
    }

    /// Reads a stored file by its string id.
    pub(crate) fn read_file(&self, id: &str) -> Result<Vec<u8>, CoreError> {
        Ok(self.storage.get_file(&FileId::from_string(id.to_string()))?)
    }

    // ---- environment check ----------------------------------------------

    /// Checks the environment document of a saved model against the current
    /// environment, mirroring the paper's recover-time "check env" step.
    pub(crate) fn check_environment(&self, info: &ModelInfoDoc) -> Result<(), CoreError> {
        let doc = self.storage.get_doc(&DocId::from_string(info.environment_doc.clone()))?;
        let saved: EnvironmentInfo = serde_json::from_value(doc.body)
            .map_err(|e| CoreError::Store(e.into()))?;
        let mismatches = saved.mismatches_against(&self.environment);
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(CoreError::EnvironmentMismatch { mismatches })
        }
    }

    // ---- recovery dispatch ------------------------------------------------

    /// Recovers a saved model, resolving its base chain.
    ///
    /// Returns the model together with a wall-time breakdown accumulated
    /// over the whole chain. Verification (when enabled) runs once, on the
    /// final model, against the stored Merkle root of the *requested* id —
    /// intermediate chain steps only feed parameters forward.
    ///
    /// Thin wrapper over [`SaveService::recover_report`], which adds phase
    /// and verification reporting.
    pub fn recover(&self, id: &SavedModelId, opts: RecoverOptions) -> Result<RecoveredModel, CoreError> {
        let report = self.recover_report(id, opts)?;
        Ok(RecoveredModel { model: report.model, breakdown: report.breakdown })
    }

    /// Walks `id`'s `base_model` links down to its snapshot (loading each
    /// model-info document and checking its environment; `id` is depth 0),
    /// then rebuilds the chain forward one step at a time. Both passes are
    /// loops, so chain depth costs heap, never stack.
    pub(crate) fn recover_inner(
        &self,
        id: &SavedModelId,
        opts: &RecoverOptions,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        let mut derived: Vec<(SavedModelId, ModelInfoDoc)> = Vec::new();
        let mut next = id.clone();
        let (snapshot_id, snapshot) = loop {
            let depth = derived.len();
            if depth > opts.max_chain_depth {
                return Err(CoreError::BaseChainTooDeep { id: next, limit: opts.max_chain_depth });
            }
            let start = Instant::now();
            let info = self.load_model_info(&next)?;
            breakdown.load += start.elapsed();
            if depth > 0 {
                breakdown.recovered_bases += 1;
            }
            if opts.check_env {
                let start = Instant::now();
                self.check_environment(&info)?;
                breakdown.check_env += start.elapsed();
            }
            if info.approach == ApproachKind::Baseline {
                break (next, info);
            }
            let base = info.base_model.clone().ok_or_else(|| CoreError::BadModelDocument {
                id: next.clone(),
                reason: format!("{} document lacks a base model", info.approach.abbrev()),
            })?;
            derived.push((next, info));
            next = SavedModelId(DocId::from_string(base));
        };
        let mut model = self.recover_full(&snapshot, &snapshot_id, opts.paper_init, breakdown)?;
        for (id, info) in derived.iter().rev() {
            model = self.rebuild_onto(info, id, Some(model), breakdown)?;
        }
        Ok(model)
    }

    /// One recovery step from a loaded model-info document: snapshots
    /// ignore `base` (and rebuild as skeletons), parameter updates and
    /// provenance saves apply themselves onto it.
    fn rebuild_onto(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        base: Option<Model>,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        let need_base = |base: Option<Model>| {
            base.ok_or_else(|| CoreError::BadModelDocument {
                id: id.clone(),
                reason: "recover_onto needs the recovered base model for a derived save".into(),
            })
        };
        match info.approach {
            ApproachKind::Baseline => self.recover_full(info, id, false, breakdown),
            ApproachKind::ParamUpdate => {
                self.apply_update_onto(info, id, need_base(base)?, breakdown)
            }
            ApproachKind::Provenance => self.replay_onto(info, id, need_base(base)?, breakdown),
        }
    }

    /// Recovers exactly one saved model given its recovery base already in
    /// memory, without walking the base chain: snapshots ignore `base`,
    /// parameter updates and provenance saves apply themselves onto it.
    ///
    /// This is the single-step building block behind the batch family
    /// recovery in `mmlib-lineage`, which memoizes shared ancestors so each
    /// chain node is fetched and rebuilt exactly once. The caller is
    /// responsible for passing the model the document's `base_model` refers
    /// to; the result is **not** verified — verify against the stored root
    /// with [`SaveService::verify_recovered`] when bit-exactness matters.
    /// Snapshots are rebuilt as skeletons (no paper init).
    pub fn recover_onto(
        &self,
        id: &SavedModelId,
        base: Option<Model>,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        let start = Instant::now();
        let info = self.load_model_info(id)?;
        breakdown.load += start.elapsed();
        self.rebuild_onto(&info, id, base, breakdown)
    }

    /// Verifies a recovered model against the stored Merkle root of `id`.
    pub fn verify_recovered(&self, model: &Model, id: &SavedModelId) -> Result<(), CoreError> {
        let info = self.load_model_info(id)?;
        crate::verify::verify_against_root(model, &info.root_hash, id)
    }
}
