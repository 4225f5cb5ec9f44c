//! Failure-injection tests of the recovery path's document handling.

use mmlib_core::meta::SavedModelId;
use mmlib_core::{CoreError, RecoverOptions, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use serde_json::json;

fn svc(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

#[test]
fn wrong_kind_document_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    // An environment doc is not a model doc.
    let env_id = s.storage().insert_doc("environment", json!({})).unwrap();
    let err = s
        .recover(&SavedModelId(env_id), RecoverOptions::default())
        .unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }));
}

#[test]
fn undecodable_body_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let id = s.storage().insert_doc("model_info", json!({"approach": "???"})).unwrap();
    let err = s.recover(&SavedModelId(id), RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }));
}

#[test]
fn unknown_architecture_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 1);
    let id = s.save_full(&model, None, "initial").unwrap();
    // Corrupt the arch field.
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    doc.body["arch"] = json!("lenet-9000");
    s.storage().docs().update(id.doc_id(), doc.body).unwrap();
    let err = s.recover(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BadModelDocument { .. }), "{err}");
}

#[test]
fn missing_weights_file_is_reported() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 2);
    let id = s.save_full(&model, None, "initial").unwrap();
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    let weights = doc.body["weights_file"].as_str().unwrap().to_string();
    s.storage().files().remove(&mmlib_store::FileId::from_string(weights)).unwrap();
    doc.body["code_file"] = doc.body["code_file"].clone();
    let err = s.recover(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::Store(mmlib_store::StoreError::MissingFile(_))), "{err}");
}

#[test]
fn dangling_base_reference_is_reported() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 3);
    model.set_fully_trainable();
    let base = s.save_full(&model, None, "initial").unwrap();
    model.visit_trainable_mut(&mut |p, t, _| {
        if p.starts_with("fc") {
            t.data_mut()[0] += 1.0;
        }
    });
    let (update, _) = s.save_update(&model, &base, "partially_updated").unwrap();
    // Point the update at a nonexistent base.
    let mut doc = s.storage().get_doc(update.doc_id()).unwrap();
    doc.body["base_model"] = json!("gone-1");
    s.storage().docs().update(update.doc_id(), doc.body).unwrap();
    let err = s.recover(&update, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::Store(mmlib_store::StoreError::MissingDocument(_))), "{err}");
}

#[test]
fn cyclic_base_chain_hits_the_depth_guard() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
    model.set_fully_trainable();
    let base = s.save_full(&model, None, "initial").unwrap();
    model.visit_trainable_mut(&mut |p, t, _| {
        if p.starts_with("fc") {
            t.data_mut()[0] += 1.0;
        }
    });
    let (update, _) = s.save_update(&model, &base, "partially_updated").unwrap();
    // Create a cycle: the update's base points at itself.
    let mut doc = s.storage().get_doc(update.doc_id()).unwrap();
    doc.body["base_model"] = json!(update.doc_id().as_str());
    s.storage().docs().update(update.doc_id(), doc.body).unwrap();
    let err = s.recover(&update, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::BaseChainTooDeep { .. }), "{err}");
}

/// The depth guard is reached by a loop over the base links, not by
/// recursion, so walking a cycle to the 1024-link limit returns
/// `BaseChainTooDeep` even on a 256 KiB stack.
#[test]
fn cyclic_base_chain_hits_the_depth_guard_on_a_small_stack() {
    let err = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let dir = tempfile::tempdir().unwrap();
            let s = svc(dir.path());
            let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
            model.set_fully_trainable();
            let base = s.save_full(&model, None, "initial").unwrap();
            model.visit_trainable_mut(&mut |p, t, _| {
                if p.starts_with("fc") {
                    t.data_mut()[0] += 1.0;
                }
            });
            let (update, _) = s.save_update(&model, &base, "partially_updated").unwrap();
            let mut doc = s.storage().get_doc(update.doc_id()).unwrap();
            doc.body["base_model"] = json!(update.doc_id().as_str());
            s.storage().docs().update(update.doc_id(), doc.body).unwrap();
            s.recover(&update, RecoverOptions::default()).unwrap_err()
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(matches!(err, CoreError::BaseChainTooDeep { limit: 1024, .. }), "{err}");
}

#[test]
fn tampered_root_hash_fails_verification() {
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 5);
    let id = s.save_full(&model, None, "initial").unwrap();
    let mut doc = s.storage().get_doc(id.doc_id()).unwrap();
    doc.body["root_hash"] = json!("ff".repeat(32));
    s.storage().docs().update(id.doc_id(), doc.body).unwrap();
    let err = s.recover(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::VerificationFailed { .. }));
}
