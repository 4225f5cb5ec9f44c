//! The [`Model`] type: architecture id + module tree + state-dict API.

use std::collections::BTreeMap;
use std::fmt;

use mmlib_tensor::ser::{EncodedEntry, EncodedTensor};
use mmlib_tensor::{Fill, Pcg32, Tensor};

use crate::arch::ArchId;
use crate::module::{Ctx, EntryKind, Module};

/// Errors produced by state-dict loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The state dict lacks an entry the model expects.
    MissingEntry(String),
    /// The state dict contains an entry the model does not have.
    UnexpectedEntry(String),
    /// An entry exists but its shape does not match the model's tensor.
    ShapeMismatch {
        /// Entry path.
        path: String,
        /// Shape dims the model expects.
        expected: Vec<usize>,
        /// Shape dims the state dict provides.
        actual: Vec<usize>,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingEntry(p) => write!(f, "state dict missing entry {p}"),
            ModelError::UnexpectedEntry(p) => write!(f, "state dict has unexpected entry {p}"),
            ModelError::ShapeMismatch { path, expected, actual } => {
                write!(f, "shape mismatch at {path}: expected {expected:?}, got {actual:?}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Description of one mmlib layer (a parameterized leaf module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDesc {
    /// Canonical layer path (e.g. `"layer1.0.body.conv1"`).
    pub path: String,
    /// Whether the layer is currently trainable.
    pub trainable: bool,
}

/// A deep-learning model: `M = (M_a, M_p)` in the paper's notation — an
/// architecture plus its parameters. This is the unit mmlib saves and
/// recovers, and the recovery invariant is `recover(save(m)) == m`
/// bit-for-bit over the full state dict (parameters *and* buffers).
pub struct Model {
    /// The architecture id (`M_a` is this id plus [`ArchId::source_code`]
    /// plus the captured environment).
    pub arch: ArchId,
    root: Module,
}

impl Model {
    /// Builds and initializes a model with the architecture's torchvision
    /// init routine. The same `(arch, seed)` always yields a bit-identical
    /// model (§2.3's seeded-randomness requirement).
    pub fn new_initialized(arch: ArchId, seed: u64) -> Model {
        let mut rng = Pcg32::new(seed, 0x6d6d6c69622d6d6f); // "mmlib-mo"
        Model { arch, root: arch.build(&mut Fill::Seeded(&mut rng)) }
    }

    /// Builds the architecture's module tree — same shapes, same
    /// batch-norm constants — without running its init routine: every
    /// randomly initialized tensor is left zeroed and no PRNG sample is
    /// drawn. This is the construction half of [`Model::new_initialized`],
    /// for callers that overwrite every entry right away (recovery,
    /// [`Model::duplicate`]).
    pub fn skeleton(arch: ArchId) -> Model {
        Model { arch, root: arch.build(&mut Fill::Skeleton) }
    }

    /// Wraps an existing module tree (used in tests).
    pub fn from_module(arch: ArchId, root: Module) -> Model {
        Model { arch, root }
    }

    /// Immutable access to the module tree.
    pub fn root(&self) -> &Module {
        &self.root
    }

    /// Mutable access to the module tree.
    pub fn root_mut(&mut self) -> &mut Module {
        &mut self.root
    }

    /// Forward pass on `[N, 3, H, W]` input.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.root.forward(x, ctx)
    }

    /// Backward pass from the loss gradient.
    pub fn backward(&mut self, grad: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.root.backward(grad, ctx)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.root.zero_grad();
    }

    /// The full state dict (parameters + buffers) in canonical order, cloned.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.root.visit_state("", &mut |path, t, _, _| out.push((path, t.clone())));
        out
    }

    /// Borrowed state-dict view `(path, tensor, kind, layer_trainable)` in
    /// canonical order — allocation-free for hashing and serialization.
    pub fn state_entries(&self) -> Vec<(String, &Tensor, EntryKind, bool)> {
        let mut out = Vec::new();
        self.root
            .visit_state("", &mut |path, t, kind, trainable| out.push((path, t, kind, trainable)));
        out
    }

    /// Loads a full state dict. Every model entry must be present, every
    /// provided entry must exist in the model, and shapes must match.
    pub fn load_state_dict(&mut self, entries: &[(String, Tensor)]) -> Result<(), ModelError> {
        self.merge(entries.iter().map(|(p, t)| (p.as_str(), t)), true)
    }

    /// Applies a *partial* state dict: provided entries overwrite matching
    /// model entries; everything else is left untouched. This is the merge
    /// the parameter-update approach performs at recovery ("prioritizing
    /// M's parameter information in case of merge conflicts", §3.2).
    pub fn apply_update(&mut self, entries: &[(String, Tensor)]) -> Result<(), ModelError> {
        self.merge(entries.iter().map(|(p, t)| (p.as_str(), t)), false)
    }

    /// [`Model::load_state_dict`] from a parsed
    /// [`state_to_bytes`](mmlib_tensor::ser::state_to_bytes) buffer
    /// ([`mmlib_tensor::ser::parse_state`]): each entry's bytes are decoded
    /// straight into the model's existing tensor, with no intermediate
    /// tensors. Same checks, same errors.
    pub fn load_encoded(&mut self, entries: &[EncodedEntry<'_>]) -> Result<(), ModelError> {
        self.merge(entries.iter().map(|e| (e.name, &e.tensor)), true)
    }

    /// [`Model::apply_update`] from a parsed buffer, decoding in place like
    /// [`Model::load_encoded`].
    pub fn apply_encoded(&mut self, entries: &[EncodedEntry<'_>]) -> Result<(), ModelError> {
        self.merge(entries.iter().map(|e| (e.name, &e.tensor)), false)
    }

    /// Copies each provided entry into the model tensor of the same path.
    /// With `complete`, every model entry must be provided.
    fn merge<'e, S: StateSource + 'e>(
        &mut self,
        entries: impl Iterator<Item = (&'e str, &'e S)>,
        complete: bool,
    ) -> Result<(), ModelError> {
        let mut provided: BTreeMap<&str, &S> = entries.collect();
        let mut error: Option<ModelError> = None;
        self.root.visit_state_mut("", &mut |path, dst, _| {
            if error.is_some() {
                return;
            }
            match provided.remove(path.as_str()) {
                Some(src) if src.dims() != dst.shape().dims() => {
                    error = Some(ModelError::ShapeMismatch {
                        path,
                        expected: dst.shape().dims().to_vec(),
                        actual: src.dims().to_vec(),
                    });
                }
                // Write in place: reusing the existing allocation matters
                // on systems where page faults are expensive.
                Some(src) => src.write_into(dst.data_mut()),
                None if complete => error = Some(ModelError::MissingEntry(path)),
                None => {}
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        if let Some((path, _)) = provided.pop_first() {
            return Err(ModelError::UnexpectedEntry(path.to_string()));
        }
        Ok(())
    }

    /// Total count of *parameter* elements (buffers excluded), regardless of
    /// trainability — the paper's "#Params" column.
    pub fn param_count(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, kind, _| {
            if kind == EntryKind::Parameter {
                n += t.numel() as u64;
            }
        });
        n
    }

    /// Count of parameter elements in currently-trainable layers — the
    /// paper's "part. updated" column when only the classifier is trainable.
    pub fn trainable_param_count(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, kind, trainable| {
            if kind == EntryKind::Parameter && trainable {
                n += t.numel() as u64;
            }
        });
        n
    }

    /// Raw byte size of the full state dict (parameters + buffers).
    pub fn state_nbytes(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, _, _| n += t.nbytes() as u64);
        n
    }

    /// Enumerates the mmlib layers (parameterized leaf modules) in order.
    pub fn layers(&self) -> Vec<LayerDesc> {
        let mut out = Vec::new();
        self.root.layer_paths("", &mut out);
        out.into_iter().map(|(path, trainable)| LayerDesc { path, trainable }).collect()
    }

    /// Marks every layer trainable (fully-updated model relation).
    pub fn set_fully_trainable(&mut self) {
        self.root.set_trainable("", &|_| true);
    }

    /// Freezes everything except the classifier (partially-updated relation:
    /// "only the last fully connected layers", paper §4.1).
    pub fn set_classifier_only_trainable(&mut self) {
        let prefix = self.arch.classifier_prefix();
        self.root.set_trainable("", &move |path| path.starts_with(prefix));
    }

    /// Visits `(path, param, grad)` for trainable parameters (optimizer hook).
    pub fn visit_trainable_mut(&mut self, f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor)) {
        self.root.visit_trainable_mut("", f);
    }

    /// Copies another model's full state into this one, in place (no
    /// intermediate clones — important on page-fault-expensive hosts).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_state_from(&mut self, other: &Model) {
        assert_eq!(self.arch, other.arch, "copy_state_from requires equal architectures");
        let src: Vec<(String, &Tensor)> = {
            let mut v = Vec::new();
            other.root().visit_state("", &mut |p, t, _, _| v.push((p, t)));
            v
        };
        let mut i = 0usize;
        self.root.visit_state_mut("", &mut |path, dst, _| {
            let (sp, st) = &src[i];
            assert_eq!(&path, sp, "state traversal order must match");
            dst.data_mut().copy_from_slice(st.data());
            i += 1;
        });
        assert_eq!(i, src.len());
    }

    /// Creates an independent copy of this model (architecture + exact
    /// state). `Model` is deliberately not `Clone` so copies stay explicit.
    pub fn duplicate(&self) -> Model {
        let mut copy = Model::skeleton(self.arch);
        copy.copy_state_from(self);
        copy
    }

    /// Bit-exact model equality: same architecture and identical state dict
    /// (paper §2.1's `M_a = M'_a ∧ M_p = M'_p`).
    pub fn models_equal(&self, other: &Model) -> bool {
        if self.arch != other.arch {
            return false;
        }
        let a = self.state_entries();
        let b = other.state_entries();
        a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|((pa, ta, _, _), (pb, tb, _, _))| pa == pb && ta.bit_eq(tb))
    }
}

/// A source of one state entry's values: an in-memory tensor or an
/// encoded one, decoded on write.
trait StateSource {
    fn dims(&self) -> &[usize];
    /// Writes the values into `dst`, whose length the caller has matched
    /// to [`StateSource::dims`].
    fn write_into(&self, dst: &mut [f32]);
}

impl StateSource for Tensor {
    fn dims(&self) -> &[usize] {
        self.shape().dims()
    }

    fn write_into(&self, dst: &mut [f32]) {
        dst.copy_from_slice(self.data());
    }
}

impl StateSource for EncodedTensor<'_> {
    fn dims(&self) -> &[usize] {
        EncodedTensor::dims(self)
    }

    fn write_into(&self, dst: &mut [f32]) {
        self.decode_into(dst).expect("parse_state sized the data from the dims merge just matched");
    }
}
