//! Property-based tests of the core invariants, run over the test-sized
//! `TinyCnn` architecture so each case costs milliseconds:
//!
//! * `recover(save(m)) == m` for every approach, over random derivation
//!   chains mixing approaches and relations;
//! * Merkle diff finds exactly the layers the naive scan finds, for random
//!   change sets, with at most `2·leaves − 1` comparisons;
//! * provenance replay is deterministic for random hyper-parameters.

use mmlib_core::merkle::MerkleTree;
use mmlib_core::meta::ModelRelation;
use mmlib_core::{RecoverOptions, SaveService, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_store::ModelStorage;
use mmlib_tensor::hash::sha256;
use mmlib_tensor::ser::{parse_state, state_to_bytes};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};
use proptest::prelude::*;

const SCALE: f64 = 0.0001;

/// One random chain step.
#[derive(Debug, Clone)]
struct Step {
    approach: u8, // 0 = BA, 1 = PUA, 2 = MPA
    partial: bool,
    seed: u64,
    lr: f32,
    momentum: f32,
    epochs: u64,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..3, any::<bool>(), any::<u64>(), 0.001f32..0.1, 0.0f32..0.95, 1u64..3).prop_map(
        |(approach, partial, seed, lr, momentum, epochs)| Step {
            approach,
            partial,
            seed,
            lr,
            momentum,
            epochs,
        },
    )
}

fn apply_step(
    svc: &SaveService,
    model: &mut Model,
    base: &mmlib_core::meta::SavedModelId,
    step: &Step,
) -> mmlib_core::meta::SavedModelId {
    let relation = if step.partial {
        ModelRelation::PartiallyUpdated
    } else {
        ModelRelation::FullyUpdated
    };
    relation.apply_trainability(model);
    let loader_config = LoaderConfig {
        batch_size: 2,
        resolution: 8,
        seed: step.seed,
        max_images: Some(4),
        ..Default::default()
    };
    let sgd_config = SgdConfig { lr: step.lr, momentum: step.momentum, weight_decay: 0.0, max_grad_norm: Some(1.0) };
    let train_config = TrainConfig {
        epochs: step.epochs,
        max_batches_per_epoch: Some(2),
        seed: step.seed,
        mode: ExecMode::Deterministic,
    };
    let sgd = Sgd::new(sgd_config);
    let prov = TrainProvenance {
        dataset_id: DatasetId::CocoOutdoor512,
        dataset_scale: SCALE,
        dataset_external: step.seed.is_multiple_of(2),
        loader_config,
        optimizer: sgd_config.into(),
        optimizer_state_before: sgd.state_bytes(),
        train_config,
        relation,
    };
    let loader = DataLoader::new(Dataset::new(DatasetId::CocoOutdoor512, SCALE), loader_config);
    let mut trainer = ImageNetTrainService::new(loader, sgd, train_config);
    trainer.train(model);

    let relation_str = if step.partial { "partially_updated" } else { "fully_updated" };
    match step.approach {
        0 => svc.save_full(model, Some(base), relation_str).unwrap(),
        1 => svc.save_update(model, base, relation_str).unwrap().0,
        _ => svc.save_provenance(model, base, &prov).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn random_mixed_chains_recover_exactly(steps in prop::collection::vec(arb_step(), 1..4), init_seed in any::<u64>()) {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, init_seed);
        model.set_fully_trainable();
        let mut base = svc.save_full(&model, None, "initial").unwrap();
        for step in &steps {
            base = apply_step(&svc, &mut model, &base, step);
        }
        let recovered = svc.recover(&base, RecoverOptions::default()).unwrap();
        prop_assert!(recovered.model.models_equal(&model));
        // A baseline link is an independent snapshot: recovery stops there.
        // Expected chain depth = consecutive non-baseline links at the tail.
        let expected_depth = steps.iter().rev().take_while(|s| s.approach != 0).count();
        prop_assert_eq!(recovered.breakdown.recovered_bases as usize, expected_depth);
    }

    #[test]
    fn merkle_diff_equals_naive_diff(n in 1usize..200, changed_bits in any::<u64>()) {
        let base: Vec<(String, _)> = (0..n)
            .map(|i| (format!("layer{i}"), sha256(format!("v{i}").as_bytes())))
            .collect();
        let mut other = base.clone();
        for (i, leaf) in other.iter_mut().enumerate() {
            if changed_bits >> (i % 64) & 1 == 1 {
                leaf.1 = sha256(format!("changed{i}").as_bytes());
            }
        }
        let ta = MerkleTree::from_leaves(base);
        let tb = MerkleTree::from_leaves(other);
        let merkle = ta.diff(&tb);
        let naive = ta.diff_naive(&tb);
        prop_assert_eq!(&merkle.changed, &naive.changed);
        prop_assert!(merkle.comparisons <= (2 * n - 1) as u64 + 1, "comparisons {} for {} leaves", merkle.comparisons, n);
        // Roots agree iff nothing changed.
        prop_assert_eq!(ta.root() == tb.root(), merkle.changed.is_empty());
    }

    /// Digest memos may only skip work, never change a digest: after any
    /// subset of parameter writes, the tree of the (partly memoized) model
    /// equals the tree of an un-memoized copy decoded from its serialized
    /// state.
    #[test]
    fn hash_cache_matches_from_model_for_any_mutation_subset(
        init_seed in any::<u64>(),
        mutate_bits in any::<u64>(),
        rounds in 1usize..4,
    ) {
        let mut model = Model::new_initialized(ArchId::TinyCnn, init_seed);
        model.set_fully_trainable();
        MerkleTree::from_model(&model);
        for round in 0..rounds {
            // Mutate an arbitrary subset of parameters (round-rotated so
            // successive rounds touch different layers).
            let mut i = 0usize;
            model.visit_trainable_mut(&mut |_, param, _| {
                if mutate_bits >> ((i + round) % 64) & 1 == 1 && param.numel() > 0 {
                    let d = param.data_mut();
                    d[0] = f32::from_bits(d[0].to_bits() ^ 1);
                }
                i += 1;
            });
            let got = MerkleTree::from_model(&model);
            let entries = model.state_entries();
            let bytes = state_to_bytes(entries.iter().map(|(p, t, _, _)| (p.as_str(), *t)));
            let mut fresh = Model::skeleton(ArchId::TinyCnn);
            fresh.load_encoded(&parse_state(&bytes).unwrap()).unwrap();
            let expected = MerkleTree::from_model(&fresh);
            prop_assert_eq!(got.root(), expected.root(), "round {}", round);
            for (path, digest) in expected.leaves() {
                prop_assert_eq!(got.leaf(path), Some(digest));
            }
        }
    }

    #[test]
    fn provenance_replay_is_deterministic(step in arb_step(), init_seed in any::<u64>()) {
        let dir = tempfile::tempdir().unwrap();
        let svc = SaveService::new(ModelStorage::open(dir.path()).unwrap());
        let mut model = Model::new_initialized(ArchId::TinyCnn, init_seed);
        model.set_fully_trainable();
        let base = svc.save_full(&model, None, "initial").unwrap();
        let mut step = step.clone();
        step.approach = 2; // force provenance
        let id = apply_step(&svc, &mut model, &base, &step);
        // Two independent recoveries replay to the same bits.
        let a = svc.recover(&id, RecoverOptions::default()).unwrap();
        let b = svc.recover(&id, RecoverOptions::default()).unwrap();
        prop_assert!(a.model.models_equal(&b.model));
        prop_assert!(a.model.models_equal(&model));
    }
}
