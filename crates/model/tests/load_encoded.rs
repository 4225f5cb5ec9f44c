//! The direct decoder — `parse_state` + `Model::load_encoded` /
//! `Model::apply_encoded` — keeps every check of the old
//! `state_from_bytes` + `load_state_dict` pair and returns the same errors.

use mmlib_model::{ArchId, Model};
use mmlib_tensor::ser::{parse_state, state_to_bytes};
use mmlib_tensor::Tensor;

fn encode(entries: &[(String, Tensor)]) -> Vec<u8> {
    state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t))).to_vec()
}

#[test]
fn load_encoded_restores_exactly() {
    let source = Model::new_initialized(ArchId::TinyCnn, 3);
    let bytes = encode(&source.state_dict());
    let mut target = Model::skeleton(ArchId::TinyCnn);
    target.load_encoded(&parse_state(&bytes).unwrap()).unwrap();
    assert!(target.models_equal(&source));
}

#[test]
fn every_truncation_is_an_error_not_a_panic() {
    let bytes = encode(&Model::new_initialized(ArchId::TinyCnn, 3).state_dict());
    let mut target = Model::skeleton(ArchId::TinyCnn);
    for cut in 0..bytes.len() {
        let loaded = parse_state(&bytes[..cut]).map(|e| target.load_encoded(&e));
        assert!(loaded.is_err(), "cut at {cut} accepted");
    }
}

#[test]
fn errors_match_load_state_dict() {
    let source = Model::new_initialized(ArchId::TinyCnn, 3);
    let full = source.state_dict();

    let mut missing = full.clone();
    missing.remove(1);
    let mut unexpected = full.clone();
    unexpected.push(("nonexistent.weight".to_string(), Tensor::zeros([1])));
    let mut mismatched = full.clone();
    mismatched[0].1 = Tensor::zeros([1, 2, 3]);
    let classifier_only: Vec<_> =
        full.iter().filter(|(p, _)| p.starts_with("fc")).cloned().collect();
    let mut update_unexpected = classifier_only.clone();
    update_unexpected.push(("fc.nonexistent".to_string(), Tensor::zeros([2])));
    let mut update_mismatched = classifier_only.clone();
    update_mismatched[0].1 = Tensor::zeros([3]);

    for (what, entries) in
        [("missing", &missing), ("unexpected", &unexpected), ("mismatched", &mismatched)]
    {
        let old = Model::skeleton(ArchId::TinyCnn).load_state_dict(entries).unwrap_err();
        let bytes = encode(entries);
        let new = Model::skeleton(ArchId::TinyCnn)
            .load_encoded(&parse_state(&bytes).unwrap())
            .unwrap_err();
        assert_eq!(new, old, "{what}");
    }
    for (what, entries) in [("unexpected", &update_unexpected), ("mismatched", &update_mismatched)]
    {
        let old = source.duplicate().apply_update(entries).unwrap_err();
        let bytes = encode(entries);
        let new = source.duplicate().apply_encoded(&parse_state(&bytes).unwrap()).unwrap_err();
        assert_eq!(new, old, "{what}");
    }

    // A plain update may cover any subset of the model's entries.
    let other = Model::new_initialized(ArchId::TinyCnn, 4);
    let mut merged = other.duplicate();
    merged.apply_encoded(&parse_state(&encode(&classifier_only)).unwrap()).unwrap();
    let others = other.state_dict();
    for (((path, got), (_, updated)), (_, kept)) in
        merged.state_dict().iter().zip(&full).zip(&others)
    {
        let want = if path.starts_with("fc") { updated } else { kept };
        assert!(got.bit_eq(want), "{path}");
    }
}
