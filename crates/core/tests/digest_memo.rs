//! Save-path hashing over per-tensor digest memos: a save hashes exactly
//! the state entries written since they were last hashed, model copies
//! start warm, and recovery still verifies every loaded byte.

use std::sync::{Mutex, MutexGuard};

use mmlib_core::merkle::MerkleTree;
use mmlib_core::{CoreError, RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::ser::{parse_state, state_to_bytes};

/// Serializes the tests: each reads the process-wide hash counter.
static COUNTER: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(|e| e.into_inner())
}

fn hashed_bytes() -> u64 {
    mmlib_obs::recorder().counter_value("mmlib_tensor_hash_bytes_total", None)
}

fn svc(dir: &std::path::Path) -> SaveService {
    SaveService::new(ModelStorage::open(dir).unwrap())
}

/// Bumps the first element of every classifier parameter; returns the
/// bytes of the classifier's state entries.
fn touch_classifier(model: &mut Model) -> u64 {
    model.set_classifier_only_trainable();
    let mut bytes = 0u64;
    model.visit_trainable_mut(&mut |_, t, _| {
        t.data_mut()[0] += 1.0;
        bytes += t.nbytes() as u64;
    });
    bytes
}

/// The tree of an un-memoized copy of `model`, decoded from its bytes.
fn fresh_tree(model: &Model) -> MerkleTree {
    let entries = model.state_entries();
    let bytes = state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)));
    let mut fresh = Model::skeleton(model.arch);
    fresh.load_encoded(&parse_state(&bytes).unwrap()).unwrap();
    MerkleTree::from_model(&fresh)
}

fn state_bytes(model: &Model) -> Vec<u8> {
    let entries = model.state_entries();
    state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t))).to_vec()
}

#[test]
fn decoding_into_a_model_drops_the_written_memos() {
    let _guard = serial();
    let source = Model::new_initialized(ArchId::TinyCnn, 2);
    let full = state_bytes(&source);

    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    MerkleTree::from_model(&model);
    model.load_encoded(&parse_state(&full).unwrap()).unwrap();
    assert!(model.state_entries().iter().all(|(_, t, _, _)| t.cached_digest().is_none()));
    assert_eq!(MerkleTree::from_model(&model), fresh_tree(&source));

    // A partial update drops only the memos of the entries it writes.
    let mut model = Model::new_initialized(ArchId::TinyCnn, 1);
    MerkleTree::from_model(&model);
    let entries = source.state_entries();
    let (fc, _, _, _) = entries.iter().find(|(p, _, _, _)| p.starts_with("fc")).unwrap();
    let fc_entry: Vec<(&str, &mmlib_tensor::Tensor)> = entries
        .iter()
        .filter(|(p, _, _, _)| p == fc)
        .map(|(p, t, _, _)| (p.as_str(), *t))
        .collect();
    let update = state_to_bytes(fc_entry);
    model.apply_encoded(&parse_state(&update).unwrap()).unwrap();
    for (path, t, _, _) in model.state_entries() {
        assert_eq!(t.cached_digest().is_none(), &path == fc, "{path}");
    }
    assert_eq!(MerkleTree::from_model(&model), fresh_tree(&model));
}

#[test]
fn duplicates_start_warm() {
    let _guard = serial();
    let model = Model::new_initialized(ArchId::TinyCnn, 3);
    let tree = MerkleTree::from_model(&model);
    let before = hashed_bytes();
    let copy = model.duplicate();
    assert_eq!(MerkleTree::from_model(&copy), tree);
    assert_eq!(hashed_bytes() - before, 0, "a duplicate carries its source's memos");
}

#[test]
fn saves_hash_only_what_changed_across_services() {
    let _guard = serial();
    let dir = tempfile::tempdir().unwrap();
    let server = svc(dir.path());
    let mut model = Model::new_initialized(ArchId::TinyCnn, 4);
    let before = hashed_bytes();
    let base = server.save(SaveRequest::full(&model)).unwrap();
    assert_eq!(base.hashed_bytes, model.state_nbytes());
    assert_eq!(hashed_bytes() - before, model.state_nbytes());

    // Unchanged: nothing to hash.
    let again = server.save(SaveRequest::update(&model, &base.id)).unwrap();
    assert_eq!(again.hashed_bytes, 0);
    assert!(again.diff.unwrap().changed.is_empty());

    // A node's copy, saved through its own service, hashes just the
    // layers it changed.
    let node = svc(dir.path());
    let mut copy = model.duplicate();
    let changed = touch_classifier(&mut copy);
    let before = hashed_bytes();
    let update = node.save(SaveRequest::update(&copy, &base.id)).unwrap();
    assert_eq!(update.hashed_bytes, changed);
    assert_eq!(hashed_bytes() - before, changed);
    assert_eq!(update.diff.unwrap().changed, vec!["fc".to_string()]);
    let recovered = node.recover(&update.id, RecoverOptions::default()).unwrap();
    assert!(recovered.model.models_equal(&copy));

    // The memo never outlives a write: the source model diverges on its
    // own and its next save still finds the change.
    let changed = touch_classifier(&mut model);
    let update = server.save(SaveRequest::update(&model, &base.id)).unwrap();
    assert_eq!(update.hashed_bytes, changed);
    assert_eq!(MerkleTree::from_model(&model), fresh_tree(&model));
}

#[test]
fn verify_hashes_every_loaded_byte_and_catches_corruption() {
    let _guard = serial();
    let dir = tempfile::tempdir().unwrap();
    let s = svc(dir.path());
    let model = Model::new_initialized(ArchId::TinyCnn, 5);
    let id = s.save_full(&model, None, "initial").unwrap();

    // The saved model is fully memoized in this process; a clean recovery
    // still hashes the whole recovered state.
    let before = hashed_bytes();
    s.recover(&id, RecoverOptions::default()).unwrap();
    assert_eq!(hashed_bytes() - before, model.state_nbytes());

    // Flip one bit of the last stored parameter value.
    let doc = s.storage().get_doc(id.doc_id()).unwrap();
    let weights = doc.body["weights_file"].as_str().unwrap().to_string();
    let path = dir.path().join("files").join(format!("{weights}.bin"));
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, bytes).unwrap();

    let before = hashed_bytes();
    let err = s.recover(&id, RecoverOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::VerificationFailed { .. }), "{err}");
    assert_eq!(hashed_bytes() - before, model.state_nbytes());
}
