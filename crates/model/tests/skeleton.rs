//! `Model::skeleton` builds an architecture's exact module tree without its
//! init routine, `Model::duplicate` copies through it, and
//! `Model::new_initialized` stays bit-identical to the pinned digests it
//! produced before the construction/randomization split.
//!
//! The init counter is process-wide, so this binary holds exactly one test.

use mmlib_model::{ArchId, Model};
use mmlib_tensor::hash::sha256;
use mmlib_tensor::ser::state_to_bytes;

fn init_elems() -> u64 {
    mmlib_obs::recorder().counter_value("mmlib_tensor_init_elems_total", None)
}

fn state_digest(model: &Model) -> String {
    let entries = model.state_entries();
    sha256(&state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)).collect::<Vec<_>>()))
        .to_hex()
}

#[test]
fn skeleton_and_duplicate_draw_no_init() {
    let pinned = [
        (ArchId::TinyCnn, 0, "48630d61988158074c7e3f721e0e96a093d20e8dc55cb9198317c3cd7bb03ead"),
        (ArchId::TinyCnn, 7, "2f5fba44d1a790338d2faa9f7fac5078be8c2ff30c36eb148a17788000447931"),
        (
            ArchId::MobileNetV2,
            0,
            "cd035db7eeab2bd4ecaf37098dac1e64683e1a93940ac99dde81c3919072235c",
        ),
    ];
    for (arch, seed, digest) in pinned {
        let before = init_elems();
        let source = Model::new_initialized(arch, seed);
        assert!(init_elems() > before, "{}: seeded build must count its init", arch.name());
        assert_eq!(state_digest(&source), digest, "{} seed {seed} drifted", arch.name());

        let before = init_elems();
        let skeleton = Model::skeleton(arch);
        let copy = source.duplicate();
        assert_eq!(init_elems(), before, "{}: skeleton or duplicate ran the init", arch.name());
        assert!(copy.models_equal(&source), "{}: duplicate is not exact", arch.name());

        // Same entries and shapes; every value is either the initialized
        // model's own (batch-norm constants, zero biases) or a zero
        // placeholder where the init would have drawn samples.
        let (sk, src) = (skeleton.state_entries(), source.state_entries());
        assert_eq!(sk.len(), src.len());
        for ((sp, st, _, _), (pp, pt, _, _)) in sk.iter().zip(&src) {
            assert_eq!(sp, pp);
            assert_eq!(st.shape(), pt.shape(), "{sp}");
            assert!(
                st.bit_eq(pt) || st.data().iter().all(|&v| v == 0.0),
                "{sp}: skeleton holds neither the constant nor a zero placeholder"
            );
            if sp.ends_with("running_var") {
                assert!(st.bit_eq(pt), "{sp}: batch-norm constants must match");
            }
        }
    }
}
