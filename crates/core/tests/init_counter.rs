//! `mmlib_tensor_init_elems_total` is a machine-invariant count of the
//! init work a recovery pays for: zero by default, the architecture's
//! seeded-init element count with `RecoverOptions::paper_init`.
//!
//! The counter is process-wide, so this binary holds exactly one test.

mod support;

use mmlib_core::{RecoverOptions, SaveService};
use mmlib_model::module::EntryKind;
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;

/// Elements written by seeded init so far, process-wide.
fn init_elems() -> u64 {
    mmlib_obs::recorder().counter_value("mmlib_tensor_init_elems_total", None)
}

#[test]
fn recover_init_elems_are_zero_by_default_and_exact_with_paper_init() {
    for arch in [ArchId::TinyCnn, ArchId::MobileNetV2] {
        let before = init_elems();
        let fresh = Model::new_initialized(arch, 0);
        let per_init = init_elems() - before;
        // Every conv and linear parameter is seeded; batch-norm layers (the
        // ones with running statistics) are built from constants.
        let entries = fresh.state_entries();
        let bn_layers: Vec<&str> =
            entries.iter().filter_map(|(p, _, _, _)| p.strip_suffix(".running_mean")).collect();
        let seeded: u64 = entries
            .iter()
            .filter(|(p, _, kind, _)| {
                *kind == EntryKind::Parameter
                    && !bn_layers.contains(&p.rsplit_once('.').map_or("", |(l, _)| l))
            })
            .map(|(_, t, _, _)| t.numel() as u64)
            .sum();
        assert_eq!(per_init, seeded, "{}", arch.name());
        if arch == ArchId::TinyCnn {
            assert_eq!(per_init, 18_368);
        }

        let before = init_elems();
        let copy = fresh.duplicate();
        assert_eq!(init_elems(), before, "{}: duplicate ran the init", arch.name());
        assert!(copy.models_equal(&fresh));

        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        for saved in support::population(&svc, arch) {
            let what = format!("{} {}", arch.name(), saved.label);
            let before = init_elems();
            let rec = svc.recover(&saved.id, RecoverOptions::default()).unwrap();
            assert_eq!(init_elems() - before, 0, "{what}: default recover ran the init");
            assert!(rec.model.models_equal(&saved.model), "{what}");

            let before = init_elems();
            svc.recover(&saved.id, RecoverOptions::default().paper_init(true)).unwrap();
            assert_eq!(init_elems() - before, per_init, "{what}: paper init count");
        }
    }
}
