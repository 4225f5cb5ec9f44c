//! # mmlib-core — the model management library
//!
//! Rust reproduction of the paper's primary contribution: three approaches
//! for saving and recovering *exact* deep-learning model representations in
//! a distributed environment, plus the probing tool that verifies model
//! reproducibility.
//!
//! ## The three approaches (paper §3)
//!
//! * **Baseline (BA)** — [`baseline`]: each model is saved as a complete,
//!   independent snapshot: metadata documents, architecture code +
//!   environment, and the full serialized state dict.
//! * **Parameter update (PUA)** — [`param_update`]: a derived model is saved
//!   as a reference to its base plus only the layers whose parameters
//!   changed, detected by comparing per-layer hashes organized in a
//!   [`merkle`] tree. Recovery is recursive: recover the base, then merge
//!   the update.
//! * **Model provenance (MPA)** — [`provenance`]: a derived model is saved
//!   as its *provenance* — training code/configuration (wrapped restorable
//!   objects, [`wrapper`]), a detailed environment capture ([`mod@env`]), the
//!   training dataset, and the base reference. Recovery replays the
//!   training deterministically.
//!
//! All three share one storage layout ([`meta`]) over `mmlib-store`'s
//! document + file stores, and one chain-resolving [`recovery`] service that
//! dispatches on the saved approach per model. Every save records a
//! Merkle root over the model's layer hashes, so every recovery can verify
//! bit-exactness ([`verify`]).
//!
//! ## Quick start
//!
//! ```
//! use mmlib_core::{SaveService, RecoverOptions};
//! use mmlib_model::{ArchId, Model};
//! use mmlib_store::ModelStorage;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let storage = ModelStorage::open(dir.path()).unwrap();
//! let svc = SaveService::new(storage);
//!
//! let model = Model::new_initialized(ArchId::ResNet18, 42);
//! let id = svc.save_full(&model, None, "initial").unwrap();
//! let recovered = svc.recover(&id, RecoverOptions::default()).unwrap();
//! assert!(recovered.model.models_equal(&model));
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baseline;
pub mod gc;
pub mod env;
pub mod error;
pub mod fsck;
pub mod hash_cache;
pub mod merkle;
pub mod meta;
pub mod param_update;
pub mod policy;
pub mod probe;
pub mod provenance;
pub mod recovery;
pub mod report;
pub mod verify;
pub mod wrapper;

pub use env::EnvironmentInfo;
pub use error::CoreError;
pub use fsck::{FsckIssue, FsckOptions, FsckReport};
pub use merkle::MerkleTree;
pub use meta::{ApproachKind, LineageRecordDoc, ModelRelation, SavedModelId};
pub use probe::{ProbeRecord, ProbeReport};
pub use provenance::TrainProvenance;
pub use recovery::{RecoverBreakdown, RecoverOptions, RecoveredModel, SaveService};
pub use report::{
    register_metrics, RecoverReport, SaveReport, SaveRequest, VerifyOutcome, RECOVER_PHASES,
    SAVE_PHASES,
};
