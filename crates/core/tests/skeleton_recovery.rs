//! Skeleton recovery (the default) and paper-faithful recovery
//! (`RecoverOptions::paper_init`) produce bit-identical models for every
//! approach. Verification is off, so an entry a skeleton left at zero
//! cannot hide behind the Merkle check.

mod support;

use mmlib_core::{RecoverOptions, SaveService};
use mmlib_model::ArchId;
use mmlib_store::ModelStorage;

#[test]
fn skeleton_and_paper_init_recover_identically() {
    for arch in [ArchId::TinyCnn, ArchId::MobileNetV2] {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        for saved in support::population(&svc, arch) {
            let opts = RecoverOptions::new().verify(false);
            let skeleton = svc.recover(&saved.id, opts).unwrap().model;
            let paper = svc.recover(&saved.id, opts.paper_init(true)).unwrap().model;
            let what = format!("{} {}", arch.name(), saved.label);
            assert!(skeleton.models_equal(&paper), "{what}: skeleton and paper init differ");
            assert!(skeleton.models_equal(&saved.model), "{what}: recovery is not exact");
        }
    }
}
