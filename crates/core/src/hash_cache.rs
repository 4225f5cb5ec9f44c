//! Save-path hashing over per-tensor digest memos.
//!
//! Every save stores the model's Merkle tree (paper §3.2), and consecutive
//! saves of a training run change only a few layers. Each [`Tensor`]
//! memoizes its own SHA-256 digest until it is next written, and model
//! copies carry the memos, so a save hashes exactly the entries written
//! since they were last hashed — whichever service, node or copy hashed
//! them before.
//!
//! Invalidation is the tensor's: every write path clears its memo, so a
//! memo only ever holds the digest of that tensor's current shape and
//! bytes, and the tree built here equals the tree of an un-memoized copy
//! (the core proptests enforce this). Verification is unaffected: recovered
//! tensors are decoded fresh and carry no memo, so verify still hashes every
//! loaded byte.
//!
//! The sub-phase labels ([`HASH_SUBPHASES`]) are older than the memo and
//! kept because benchmarks key on them; their doc says what each now times.

use std::time::Instant;

use mmlib_model::Model;
use mmlib_tensor::{hash_par, Tensor};

use crate::merkle::MerkleTree;
use crate::recovery::SaveService;
use crate::report::{SaveClock, SAVE_PHASE};

/// Sub-phase labels recorded into `mmlib_save_phase_seconds` alongside the
/// coarse `hash` phase, so expositions show where hash time goes:
///
/// * `hash_fingerprint` — the O(entries) scan for entries without a digest
///   memo;
/// * `hash_rehash` — SHA-256 of those entries on the parallel pool;
/// * `hash_splice` — layer digests plus tree assembly.
///
/// These are histogram labels, not breakdown phases: the bench phase
/// taxonomy and its zero-sample gate are unaffected.
pub const HASH_SUBPHASES: [&str; 3] = ["hash_fingerprint", "hash_rehash", "hash_splice"];

impl SaveService {
    /// Merkle tree of `model`'s current parameters: [`MerkleTree::from_model`]
    /// charged to the `hash` phase with its sub-phases timed, adding the
    /// bytes it actually hashed (the memo-less entries) to the clock's
    /// count.
    pub(crate) fn save_tree(&self, model: &Model, clock: &mut SaveClock<'_>) -> MerkleTree {
        let obs = self.obs();
        let [scan, rehash, splice] = HASH_SUBPHASES;
        let (tree, hashed) = clock.time("hash", || {
            let start = Instant::now();
            let entries = model.state_entries();
            let cold: Vec<&Tensor> = entries
                .iter()
                .map(|(_, t, _, _)| *t)
                .filter(|t| t.cached_digest().is_none())
                .collect();
            let hashed: u64 = cold.iter().map(|t| t.nbytes() as u64).sum();
            obs.observe_duration(SAVE_PHASE, ("phase", scan), start.elapsed());

            let start = Instant::now();
            hash_par::hash_tensors(&cold);
            obs.observe_duration(SAVE_PHASE, ("phase", rehash), start.elapsed());

            let start = Instant::now();
            let tree = MerkleTree::from_model(model);
            obs.observe_duration(SAVE_PHASE, ("phase", splice), start.elapsed());
            (tree, hashed)
        });
        clock.hashed_bytes += hashed;
        tree
    }
}
