//! Recovery verification.
//!
//! Every save records the Merkle root over the model's layer hashes;
//! recovery recomputes the root over the recovered parameters and compares
//! (paper §3.1 "optionally checksums to verify that a model was correctly
//! recovered" / §3.2 "beneficial to check if a model was correctly
//! recovered").

use mmlib_model::Model;

use crate::error::CoreError;
use crate::merkle::MerkleTree;
use crate::meta::SavedModelId;

/// Verifies a recovered model against a stored Merkle root (hex).
pub fn verify_against_root(model: &Model, root_hex: &str, id: &SavedModelId) -> Result<(), CoreError> {
    check_root(&MerkleTree::from_model(model), root_hex, id)
}

/// Compares an already-built tree's root against a stored root (hex).
pub(crate) fn check_root(
    tree: &MerkleTree,
    root_hex: &str,
    id: &SavedModelId,
) -> Result<(), CoreError> {
    let actual = tree.root().to_hex();
    if actual == root_hex {
        Ok(())
    } else {
        Err(CoreError::VerificationFailed {
            id: id.clone(),
            reason: format!("merkle root mismatch: stored {root_hex}, recovered {actual}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_model::ArchId;
    use mmlib_store::DocId;

    #[test]
    fn matching_root_verifies() {
        let model = Model::new_initialized(ArchId::ResNet18, 1);
        let root = MerkleTree::from_model(&model).root().to_hex();
        let id = SavedModelId(DocId::from_string("t-1".into()));
        assert!(verify_against_root(&model, &root, &id).is_ok());
    }

    #[test]
    fn single_bit_flip_fails_verification() {
        let mut model = Model::new_initialized(ArchId::ResNet18, 1);
        let root = MerkleTree::from_model(&model).root().to_hex();
        // Flip one bit of one parameter.
        model.visit_trainable_mut(&mut |path, param, _| {
            if path == "fc.bias" {
                let d = param.data_mut();
                d[0] = f32::from_bits(d[0].to_bits() ^ 1);
            }
        });
        let id = SavedModelId(DocId::from_string("t-2".into()));
        let err = verify_against_root(&model, &root, &id).unwrap_err();
        assert!(matches!(err, CoreError::VerificationFailed { .. }));
    }
}
