//! Parameter-update approach (PUA, paper §3.2): save only what changed.
//!
//! Saving a derived model `M` (`B → M`) compares M's per-layer hashes to
//! B's *stored* hashes — loading only B's Merkle document, never its
//! parameters ("we can identify the changed layers by only recovering and
//! comparing the direct base model's hash values instead of recursively
//! recovering it fully"). Only the changed layers' tensors are serialized.
//!
//! Recovery resolves B first (which may itself be an update), then merges
//! M's parameter update with M's values winning conflicts.

use std::time::Instant;

use mmlib_model::Model;
use mmlib_tensor::ser::{parse_state, state_to_bytes};

use crate::error::CoreError;
use crate::merkle::MerkleDiff;
use crate::meta::{ApproachKind, ModelInfoDoc, SavedModelId};
use crate::recovery::{RecoverBreakdown, SaveService};
use crate::report::{missing_field, SaveClock, SaveRequest};

impl SaveService {
    /// Saves `model` as a parameter update against `base`.
    ///
    /// Returns the saved id and the Merkle diff that determined the update
    /// (exposed for the Fig. 4 comparison-count experiments).
    ///
    /// Thin wrapper over [`SaveService::save`] with a
    /// [`SaveRequest::update`] request.
    pub fn save_update(
        &self,
        model: &Model,
        base: &SavedModelId,
        relation: &str,
    ) -> Result<(SavedModelId, MerkleDiff), CoreError> {
        let report = self.save(SaveRequest::update(model, base).relation(relation))?;
        let diff = report
            .diff
            .ok_or_else(|| missing_field("update reports carry a diff"))?;
        Ok((report.id, diff))
    }

    pub(crate) fn save_update_phased(
        &self,
        model: &Model,
        base: &SavedModelId,
        relation: &str,
        clock: &mut SaveClock<'_>,
    ) -> Result<(SavedModelId, MerkleDiff), CoreError> {
        let relation = crate::baseline::parse_relation(relation, Some(base))?;

        // Load only the base's hash document — not its parameters.
        let base_info = clock.time("diff", || self.load_model_info(base))?;
        if base_info.arch != model.arch.name() {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: format!(
                    "parameter update requires matching architectures (base {}, model {})",
                    base_info.arch,
                    model.arch.name()
                ),
            });
        }
        let base_tree = clock.time("diff", || self.load_layer_hashes(&base_info, base))?;
        let tree = self.save_tree(model, clock);
        let diff = clock.time("diff", || base_tree.diff(&tree));

        // Serialize only the changed layers' state entries (parameters and
        // buffers — both are part of the exact representation).
        let changed: std::collections::BTreeSet<&str> =
            diff.changed.iter().map(|s| s.as_str()).collect();
        let entries = model.state_entries();
        let bytes = clock.time("serialize", || {
            let update: Vec<(&str, &mmlib_tensor::Tensor)> = entries
                .iter()
                .filter(|(path, _, _, _)| {
                    let layer = path.rsplit_once('.').map_or("", |(l, _)| l);
                    changed.contains(layer)
                })
                .map(|(p, t, _, _)| (p.as_str(), *t))
                .collect();
            state_to_bytes(update)
        });

        // One batch commits the whole save: artifacts, then model-info
        // referencing them via `$batch:N`, then the lineage record — item
        // order is visibility order, so crash windows match the old
        // sequential writes at a fraction of the sync cost.
        let info = ModelInfoDoc {
            approach: ApproachKind::ParamUpdate,
            arch: model.arch.name().to_string(),
            relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(1),
            code_file: None, // derived models share the base's code
            weights_file: Some(mmlib_store::batch_ref(0)),
            update_encoding: None,
            layer_hash_doc: mmlib_store::batch_ref(2),
            root_hash: tree.root().to_hex(),
            train_doc: None,
            dataset: None,
        };
        let batch = vec![
            mmlib_store::BatchItem::File { bytes: bytes.to_vec() },
            self.environment_item()?,
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
            self.lineage_item(&info, mmlib_store::batch_ref(3), Some(diff.changed.len()))?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        let id = SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(3))?);
        Ok((id, diff))
    }

    /// Saves `model` as a **delta-compressed** parameter update against
    /// `base` — the storage extension of the §4.7 trade-off discussion.
    ///
    /// Unlike [`SaveService::save_update`], this needs the base model's
    /// parameters *in memory* (`base_model`) to form XOR deltas. That is the
    /// common U3 situation: the node just derived `model` from `base_model`
    /// and still holds both. The base's integrity is checked against the
    /// stored root hash before any delta is formed.
    /// Thin wrapper over [`SaveService::save`] with a
    /// [`SaveRequest::compressed_update`] request.
    pub fn save_update_compressed(
        &self,
        model: &Model,
        base_model: &Model,
        base: &SavedModelId,
        relation: &str,
    ) -> Result<(SavedModelId, MerkleDiff, mmlib_compress::EncodedUpdate), CoreError> {
        let report =
            self.save(SaveRequest::compressed_update(model, base_model, base).relation(relation))?;
        let diff = report
            .diff
            .ok_or_else(|| missing_field("compressed-update reports carry a diff"))?;
        let encoded = report
            .encoded
            .ok_or_else(|| missing_field("compressed-update reports carry the encoding"))?;
        Ok((report.id, diff, encoded))
    }

    pub(crate) fn save_update_compressed_phased(
        &self,
        model: &Model,
        base_model: &Model,
        base: &SavedModelId,
        relation: &str,
        clock: &mut SaveClock<'_>,
    ) -> Result<(SavedModelId, MerkleDiff, mmlib_compress::EncodedUpdate), CoreError> {
        let relation = crate::baseline::parse_relation(relation, Some(base))?;
        let base_info = clock.time("diff", || self.load_model_info(base))?;
        if base_info.arch != model.arch.name() || base_model.arch != model.arch {
            return Err(CoreError::BadModelDocument {
                id: base.clone(),
                reason: "delta update requires matching architectures".into(),
            });
        }
        // The in-memory base must be the stored base, or deltas would
        // decode against the wrong parameters. (Charged to "hash": this is
        // a Merkle pass over the base's parameters.)
        let base_tree = self.save_tree(base_model, clock);
        crate::verify::check_root(&base_tree, &base_info.root_hash, base)?;

        let base_tree = clock.time("diff", || self.load_layer_hashes(&base_info, base))?;
        let tree = self.save_tree(model, clock);
        let diff = clock.time("diff", || base_tree.diff(&tree));
        let changed: std::collections::BTreeSet<&str> =
            diff.changed.iter().map(|s| s.as_str()).collect();

        let entries = model.state_entries();
        let update: Vec<(&str, &mmlib_tensor::Tensor)> = entries
            .iter()
            .filter(|(path, _, _, _)| {
                let layer = path.rsplit_once('.').map_or("", |(l, _)| l);
                changed.contains(layer)
            })
            .map(|(p, t, _, _)| (p.as_str(), *t))
            .collect();

        let base_entries = base_model.state_entries();
        let base_map: std::collections::BTreeMap<&str, &mmlib_tensor::Tensor> =
            base_entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
        let base_fn = |name: &str| base_map.get(name).copied();
        let encoded = clock.time("compress", || mmlib_compress::encode_update(&update, &base_fn));

        // Same single-batch layout as the uncompressed path above.
        let info = ModelInfoDoc {
            approach: ApproachKind::ParamUpdate,
            arch: model.arch.name().to_string(),
            relation,
            base_model: Some(base.doc_id().as_str().to_string()),
            environment_doc: mmlib_store::batch_ref(1),
            code_file: None,
            weights_file: Some(mmlib_store::batch_ref(0)),
            update_encoding: Some("delta_v1".to_string()),
            layer_hash_doc: mmlib_store::batch_ref(2),
            root_hash: tree.root().to_hex(),
            train_doc: None,
            dataset: None,
        };
        let batch = vec![
            mmlib_store::BatchItem::File { bytes: encoded.bytes.clone() },
            self.environment_item()?,
            self.layer_hashes_item(&tree)?,
            self.model_info_item(&info)?,
            self.lineage_item(&info, mmlib_store::batch_ref(3), Some(diff.changed.len()))?,
        ];
        let ids = clock.time("write", || self.storage().commit_batch(batch))?;
        let id = SavedModelId(crate::recovery::batch_doc_id(ids.into_iter().nth(3))?);
        Ok((id, diff, encoded))
    }

    /// Applies a parameter-update document onto its already-recovered base:
    /// one step of the chain replay in `SaveService::recover_inner`.
    pub(crate) fn apply_update_onto(
        &self,
        info: &ModelInfoDoc,
        id: &SavedModelId,
        mut model: Model,
        breakdown: &mut RecoverBreakdown,
    ) -> Result<Model, CoreError> {
        let weights_id = info.weights_file.as_ref().ok_or_else(|| CoreError::BadModelDocument {
            id: id.clone(),
            reason: "parameter-update document lacks an update file".into(),
        })?;
        let start = Instant::now();
        let bytes = self.read_file(weights_id)?;
        breakdown.load += start.elapsed();

        // Merge policy (§3.2): prioritize M's information on conflicts.
        let start = Instant::now();
        match info.update_encoding.as_deref() {
            // Decoded straight into the base's tensors.
            None | Some("state_dict") => model.apply_encoded(&parse_state(&bytes)?)?,
            Some("delta_v1") => {
                // Decode XOR deltas against the just-recovered base.
                let base_entries = model.state_entries();
                let base_map: std::collections::BTreeMap<&str, &mmlib_tensor::Tensor> =
                    base_entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect();
                let base_fn = |name: &str| base_map.get(name).copied();
                let decoded = mmlib_compress::decode_update(&bytes, &base_fn).map_err(|e| {
                    CoreError::BadModelDocument {
                        id: id.clone(),
                        reason: format!("undecodable delta update: {e}"),
                    }
                })?;
                drop(base_map);
                drop(base_entries);
                model.apply_update(&decoded)?;
            }
            Some(other) => {
                return Err(CoreError::BadModelDocument {
                    id: id.clone(),
                    reason: format!("unknown update encoding {other:?}"),
                })
            }
        }
        breakdown.recover += start.elapsed();
        Ok(model)
    }
}
