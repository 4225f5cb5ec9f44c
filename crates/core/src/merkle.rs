//! Merkle tree over per-layer parameter hashes (paper §3.2, Fig. 4).
//!
//! The parameter-update approach must find which layers of a derived model
//! changed relative to its base *without* recovering the base's parameters.
//! Every save therefore stores the model's per-layer hashes organized as a
//! Merkle tree; comparing two trees finds the changed layers with far fewer
//! hash comparisons than the naive layer-by-layer scan once models get deep
//! (the paper's example: 8 layers → 7 comparisons, 64 → 13, 128 → 15 when
//! the last two layers changed).

use mmlib_model::Model;
use mmlib_tensor::hash::{hash_pair, Digest, Sha256};
use serde::{Deserialize, Serialize};

/// A Merkle tree over an ordered list of `(layer_path, digest)` leaves.
///
/// Interior levels pair adjacent nodes; an odd trailing node is carried up
/// unchanged. The root commits to every layer's parameters *and* the layer
/// order, so equal roots ⇒ equal models (up to hash collision).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleTree {
    /// `levels[0]` = leaves (layer order), last level = `[root]`.
    levels: Vec<Vec<Digest>>,
    /// Layer paths, parallel to `levels[0]`.
    paths: Vec<String>,
}

/// Result of diffing two Merkle trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleDiff {
    /// Paths of layers whose hashes differ, in canonical order.
    pub changed: Vec<String>,
    /// Number of node-pair hash comparisons performed (the metric of the
    /// paper's Fig. 4).
    pub comparisons: u64,
}

/// Computes the per-entry digests for every state entry of a model, in
/// state-entry order, hashing tensors across the parallel worker pool.
///
/// Digests are byte-identical to serial `hash_tensor` calls (SHA-256 has no
/// combine order); parallelism only changes wall time.
pub fn model_entry_digests(model: &Model) -> (Vec<String>, Vec<Digest>) {
    let entries = model.state_entries();
    let tensors: Vec<&mmlib_tensor::Tensor> = entries.iter().map(|(_, t, _, _)| *t).collect();
    let digests = mmlib_tensor::hash_par::hash_tensors(&tensors);
    (entries.into_iter().map(|(path, _, _, _)| path).collect(), digests)
}

/// Folds per-entry digests into `(layer_path, digest)` leaves: a layer's
/// digest chains its state entries (parameters and buffers) in canonical
/// order — consecutive entries sharing a layer prefix (the path minus its
/// final `.name` component) feed `name` then entry digest into one
/// [`Sha256`].
pub fn layer_hashes_from_entries(paths: &[String], digests: &[Digest]) -> Vec<(String, Digest)> {
    let mut out: Vec<(String, Digest)> = Vec::new();
    let mut current: Option<(String, Sha256)> = None;
    for (path, digest) in paths.iter().zip(digests) {
        let (layer, name) = path.rsplit_once('.').unwrap_or(("", path.as_str()));
        match &mut current {
            Some((cur_layer, h)) if cur_layer.as_str() == layer => {
                h.update(name.as_bytes());
                h.update(&digest.0);
            }
            _ => {
                if let Some((l, h)) = current.take() {
                    out.push((l, h.finalize()));
                }
                let mut h = Sha256::new();
                h.update(name.as_bytes());
                h.update(&digest.0);
                current = Some((layer.to_string(), h));
            }
        }
    }
    if let Some((l, h)) = current.take() {
        out.push((l, h.finalize()));
    }
    out
}

/// Computes `(layer_path, digest)` for every layer of a model.
pub fn model_layer_hashes(model: &Model) -> Vec<(String, Digest)> {
    let (paths, digests) = model_entry_digests(model);
    layer_hashes_from_entries(&paths, &digests)
}

impl MerkleTree {
    /// Builds a tree from `(layer_path, digest)` leaves.
    ///
    /// # Panics
    /// Panics on an empty leaf list — a model always has layers.
    pub fn from_leaves(leaves: Vec<(String, Digest)>) -> MerkleTree {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        let (paths, level0): (Vec<String>, Vec<Digest>) = leaves.into_iter().unzip();
        let mut levels = vec![level0];
        loop {
            let next = match levels.last() {
                Some(prev) if prev.len() > 1 => {
                    let mut next = Vec::with_capacity(prev.len().div_ceil(2));
                    for pair in prev.chunks(2) {
                        match pair {
                            [a, b] => next.push(hash_pair(a, b)),
                            [a] => next.push(*a), // odd node carried up unchanged
                            _ => continue, // chunks(2) never yields other sizes
                        }
                    }
                    next
                }
                _ => break,
            };
            levels.push(next);
        }
        MerkleTree { levels, paths }
    }

    /// Builds the tree for a model's current parameters.
    pub fn from_model(model: &Model) -> MerkleTree {
        Self::from_leaves(model_layer_hashes(model))
    }

    /// The root digest, committing to all layers.
    pub fn root(&self) -> Digest {
        // Construction guarantees at least one level holding one digest;
        // the zero digest covers the impossible empty shape without a panic.
        self.levels.last().and_then(|level| level.first()).copied().unwrap_or(Digest([0u8; 32]))
    }

    /// Number of leaves (layers).
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Leaf digests with their layer paths.
    pub fn leaves(&self) -> impl Iterator<Item = (&str, &Digest)> {
        self.paths.iter().map(|p| p.as_str()).zip(self.levels[0].iter())
    }

    /// The digest of the named layer, if present.
    pub fn leaf(&self, path: &str) -> Option<&Digest> {
        self.paths.iter().position(|p| p == path).map(|i| &self.levels[0][i])
    }

    /// Diffs two trees built over the same layer structure, returning the
    /// changed layer paths and the number of hash comparisons performed.
    ///
    /// Top-down walk: compare roots; recurse only into differing subtrees.
    /// This is the comparison-count saving of Fig. 4.
    ///
    /// # Panics
    /// Panics if the trees have different layer structures (an architecture
    /// change is not a parameter update).
    pub fn diff(&self, other: &MerkleTree) -> MerkleDiff {
        assert_eq!(self.paths, other.paths, "merkle diff requires identical layer structure");
        let mut comparisons = 0u64;
        let mut changed = Vec::new();
        let top = self.levels.len() - 1;
        // Recursive walk over (level, index).
        fn walk(
            a: &MerkleTree,
            b: &MerkleTree,
            level: usize,
            index: usize,
            comparisons: &mut u64,
            changed: &mut Vec<String>,
        ) {
            *comparisons += 1;
            if a.levels[level][index] == b.levels[level][index] {
                return;
            }
            if level == 0 {
                changed.push(a.paths[index].clone());
                return;
            }
            let child_level = level - 1;
            let left = index * 2;
            let right = left + 1;
            if right < a.levels[child_level].len() {
                walk(a, b, child_level, left, comparisons, changed);
                walk(a, b, child_level, right, comparisons, changed);
            } else {
                // Odd carried node: the parent IS the child; descend without
                // an extra comparison (the hash is literally the same value).
                *comparisons -= 1; // the recursive call below re-counts it
                walk(a, b, child_level, left, comparisons, changed);
            }
        }
        walk(self, other, top, 0, &mut comparisons, &mut changed);
        MerkleDiff { changed, comparisons }
    }

    /// The naive layer-by-layer diff used as the ablation baseline: always
    /// performs exactly `leaf_count` comparisons.
    pub fn diff_naive(&self, other: &MerkleTree) -> MerkleDiff {
        assert_eq!(self.paths, other.paths, "diff requires identical layer structure");
        let mut changed = Vec::new();
        for (i, path) in self.paths.iter().enumerate() {
            if self.levels[0][i] != other.levels[0][i] {
                changed.push(path.clone());
            }
        }
        MerkleDiff { changed, comparisons: self.paths.len() as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_tensor::hash::sha256;

    fn leaves(n: usize) -> Vec<(String, Digest)> {
        (0..n).map(|i| (format!("layer{i}"), sha256(format!("v{i}").as_bytes()))).collect()
    }

    fn with_changed(n: usize, changed: &[usize]) -> Vec<(String, Digest)> {
        (0..n)
            .map(|i| {
                let content = if changed.contains(&i) {
                    format!("changed{i}")
                } else {
                    format!("v{i}")
                };
                (format!("layer{i}"), sha256(content.as_bytes()))
            })
            .collect()
    }

    #[test]
    fn equal_trees_have_equal_roots_and_one_comparison() {
        let a = MerkleTree::from_leaves(leaves(8));
        let b = MerkleTree::from_leaves(leaves(8));
        assert_eq!(a.root(), b.root());
        let diff = a.diff(&b);
        assert!(diff.changed.is_empty());
        assert_eq!(diff.comparisons, 1, "equal models need only the root comparison");
    }

    #[test]
    fn paper_figure4_eight_layers_last_two_changed_needs_seven() {
        let a = MerkleTree::from_leaves(leaves(8));
        let b = MerkleTree::from_leaves(with_changed(8, &[6, 7]));
        let diff = a.diff(&b);
        assert_eq!(diff.changed, vec!["layer6", "layer7"]);
        assert_eq!(diff.comparisons, 7, "paper Fig. 4: 7 instead of 8 comparisons");
    }

    #[test]
    fn paper_sixty_four_layers_needs_thirteen() {
        let a = MerkleTree::from_leaves(leaves(64));
        let b = MerkleTree::from_leaves(with_changed(64, &[62, 63]));
        let diff = a.diff(&b);
        assert_eq!(diff.comparisons, 13, "paper §3.2: 64 layers → 13 comparisons");
        assert_eq!(diff.changed.len(), 2);
    }

    #[test]
    fn paper_one_hundred_twenty_eight_layers_needs_fifteen() {
        let a = MerkleTree::from_leaves(leaves(128));
        let b = MerkleTree::from_leaves(with_changed(128, &[126, 127]));
        let diff = a.diff(&b);
        assert_eq!(diff.comparisons, 15, "paper §3.2: 128 layers → 15 comparisons");
    }

    #[test]
    fn naive_diff_always_compares_all_leaves() {
        let a = MerkleTree::from_leaves(leaves(64));
        let b = MerkleTree::from_leaves(with_changed(64, &[62, 63]));
        let diff = a.diff_naive(&b);
        assert_eq!(diff.comparisons, 64);
        assert_eq!(diff.changed, a.diff(&b).changed);
    }

    #[test]
    fn odd_leaf_counts_work() {
        for n in [1usize, 3, 5, 7, 41, 127] {
            let a = MerkleTree::from_leaves(leaves(n));
            let b = MerkleTree::from_leaves(with_changed(n, &[n - 1]));
            let diff = a.diff(&b);
            assert_eq!(diff.changed, vec![format!("layer{}", n - 1)], "n={n}");
            assert_ne!(a.root(), b.root());
            // And self-diff stays clean.
            assert!(a.diff(&a.clone()).changed.is_empty());
        }
    }

    #[test]
    fn all_layers_changed_finds_all() {
        let n = 16;
        let a = MerkleTree::from_leaves(leaves(n));
        let b = MerkleTree::from_leaves(with_changed(n, &(0..n).collect::<Vec<_>>()));
        let diff = a.diff(&b);
        assert_eq!(diff.changed.len(), n);
        // Full walk: every node compared once = 2n-1 for a perfect tree.
        assert_eq!(diff.comparisons, (2 * n - 1) as u64);
    }

    #[test]
    #[should_panic(expected = "identical layer structure")]
    fn structure_mismatch_panics() {
        let a = MerkleTree::from_leaves(leaves(4));
        let b = MerkleTree::from_leaves(leaves(5));
        a.diff(&b);
    }

    #[test]
    fn model_layer_hashes_group_entries() {
        let model = mmlib_model::Model::new_initialized(mmlib_model::ArchId::ResNet18, 0);
        let hashes = model_layer_hashes(&model);
        let layers = model.layers();
        assert_eq!(hashes.len(), layers.len());
        for ((hp, _), l) in hashes.iter().zip(&layers) {
            assert_eq!(hp, &l.path);
        }
    }

    #[test]
    fn layer_hashes_from_entries_matches_layer_digest() {
        let model = mmlib_model::Model::new_initialized(mmlib_model::ArchId::TinyCnn, 0);
        let (paths, digests) = model_entry_digests(&model);
        let grouped = layer_hashes_from_entries(&paths, &digests);
        assert_eq!(grouped, model_layer_hashes(&model));
    }

    #[test]
    fn serde_round_trip() {
        let t = MerkleTree::from_leaves(leaves(9));
        let json = serde_json::to_string(&t).unwrap();
        let back: MerkleTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
