//! The unified save/recover API surface: [`SaveRequest`] in,
//! [`SaveReport`]/[`RecoverReport`] out.
//!
//! The five historical entry points (`save_full`, `save_update`,
//! `save_update_compressed`, `save_provenance`, `save_with_policy`) remain
//! as thin delegates, but they all funnel into [`SaveService::save`], which
//! times every phase through `mmlib-obs` and returns a uniform report: the
//! saved id, the approach actually used, the bytes it cost, and where the
//! time went. Recovery mirrors this with [`SaveService::recover_report`].

use std::time::{Duration, Instant};

use mmlib_model::Model;
use mmlib_obs::{PhaseBreakdown, PhaseClock, Recorder, DURATION_BUCKETS};

use crate::error::CoreError;
use crate::merkle::MerkleDiff;
use crate::meta::{ApproachKind, SavedModelId};
use crate::policy::ChainPolicy;
use crate::provenance::TrainProvenance;
use crate::recovery::{RecoverBreakdown, RecoverOptions, SaveService};

/// Histogram of per-phase save wall time, labeled `phase="..."`.
pub(crate) const SAVE_PHASE: &str = "mmlib_save_phase_seconds";
/// Histogram of whole-save wall time, labeled `approach="BA|PUA|MPA"`.
pub(crate) const SAVE_SECONDS: &str = "mmlib_save_seconds";
/// Counter of bytes written per save, labeled `approach="BA|PUA|MPA"`.
pub(crate) const SAVE_BYTES: &str = "mmlib_save_bytes_total";
/// Histogram of per-phase recover wall time, labeled `phase="..."`.
pub(crate) const RECOVER_PHASE: &str = "mmlib_recover_phase_seconds";
/// Histogram of whole-recovery wall time.
pub(crate) const RECOVER_SECONDS: &str = "mmlib_recover_seconds";

/// The save phase taxonomy (see DESIGN.md): every second of a save is
/// charged to exactly one of these labels.
pub const SAVE_PHASES: [&str; 7] =
    ["plan", "hash", "diff", "serialize", "compress", "pack", "write"];

/// The recover phase taxonomy, derived from [`RecoverBreakdown`].
pub const RECOVER_PHASES: [&str; 4] = ["fetch", "rebuild", "check_env", "verify"];

/// Pre-registers every core metric on `recorder`, so expositions list the
/// full phase taxonomy (with zero counts) before any save/recover runs.
pub fn register_metrics(recorder: &Recorder) {
    for phase in SAVE_PHASES {
        recorder.histogram(SAVE_PHASE, Some(("phase", phase)), &DURATION_BUCKETS);
    }
    for phase in RECOVER_PHASES {
        recorder.histogram(RECOVER_PHASE, Some(("phase", phase)), &DURATION_BUCKETS);
    }
    for approach in [ApproachKind::Baseline, ApproachKind::ParamUpdate, ApproachKind::Provenance] {
        recorder.histogram(SAVE_SECONDS, Some(("approach", approach.abbrev())), &DURATION_BUCKETS);
        recorder.counter(SAVE_BYTES, Some(("approach", approach.abbrev())));
    }
    recorder.histogram(RECOVER_SECONDS, None, &DURATION_BUCKETS);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestKind {
    Full,
    Update,
    CompressedUpdate,
    Provenance,
    Policy,
}

/// One save, described declaratively: which model, against which base, with
/// which approach. Build with the constructors
/// ([`SaveRequest::full`], [`SaveRequest::update`],
/// [`SaveRequest::compressed_update`], [`SaveRequest::provenance`],
/// [`SaveRequest::with_policy`]) and refine with the builder methods, then
/// pass to [`SaveService::save`].
#[derive(Clone)]
pub struct SaveRequest<'a> {
    kind: RequestKind,
    model: &'a Model,
    base: Option<&'a SavedModelId>,
    base_model: Option<&'a Model>,
    relation: Option<&'a str>,
    provenance: Option<&'a TrainProvenance>,
    policy: Option<ChainPolicy>,
}

impl<'a> SaveRequest<'a> {
    fn new(kind: RequestKind, model: &'a Model) -> SaveRequest<'a> {
        SaveRequest {
            kind,
            model,
            base: None,
            base_model: None,
            relation: None,
            provenance: None,
            policy: None,
        }
    }

    /// A full snapshot (the baseline approach).
    pub fn full(model: &'a Model) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Full, model)
    }

    /// A parameter update against `base`.
    pub fn update(model: &'a Model, base: &'a SavedModelId) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Update, model).base(base)
    }

    /// A delta-compressed parameter update; needs the base's parameters in
    /// memory (`base_model`) to form deltas.
    pub fn compressed_update(
        model: &'a Model,
        base_model: &'a Model,
        base: &'a SavedModelId,
    ) -> SaveRequest<'a> {
        let mut req = SaveRequest::new(RequestKind::CompressedUpdate, model).base(base);
        req.base_model = Some(base_model);
        req
    }

    /// A provenance save: store how `model` was trained from `base`.
    pub fn provenance(
        model: &'a Model,
        base: &'a SavedModelId,
        prov: &'a TrainProvenance,
    ) -> SaveRequest<'a> {
        SaveRequest::new(RequestKind::Provenance, model)
            .base(base)
            .provenance_data(prov)
    }

    /// A chain-policy save: cheap while the base chain is short, promoted
    /// to a snapshot at the policy's depth bound.
    pub fn with_policy(
        model: &'a Model,
        base: &'a SavedModelId,
        policy: ChainPolicy,
    ) -> SaveRequest<'a> {
        let mut req = SaveRequest::new(RequestKind::Policy, model).base(base);
        req.policy = Some(policy);
        req
    }

    /// Sets the base model id (recorded as lineage; required by every kind
    /// except [`SaveRequest::full`]).
    pub fn base(mut self, base: &'a SavedModelId) -> SaveRequest<'a> {
        self.base = Some(base);
        self
    }

    /// Sets the model's relation to its base (`"initial"`,
    /// `"fully_updated"`, `"partially_updated"`). Defaults to `"initial"`
    /// without a base and `"partially_updated"` with one.
    pub fn relation(mut self, relation: &'a str) -> SaveRequest<'a> {
        self.relation = Some(relation);
        self
    }

    /// Attaches training provenance (required for provenance saves and for
    /// policies whose cheap approach is provenance).
    pub fn provenance_data(mut self, prov: &'a TrainProvenance) -> SaveRequest<'a> {
        self.provenance = Some(prov);
        self
    }

    fn resolved_relation(&self) -> &str {
        self.relation
            .unwrap_or(if self.base.is_none() { "initial" } else { "partially_updated" })
    }

    fn require_base(&self) -> Result<&'a SavedModelId, CoreError> {
        self.base.ok_or_else(|| missing_field("this save kind requires a base model"))
    }
}

pub(crate) fn missing_field(reason: &str) -> CoreError {
    CoreError::BadModelDocument {
        id: SavedModelId(mmlib_store::DocId::from_string("unsaved".into())),
        reason: reason.into(),
    }
}

/// What one save did and what it cost — the uniform return of
/// [`SaveService::save`].
#[derive(Debug)]
pub struct SaveReport {
    /// The saved model id.
    pub id: SavedModelId,
    /// The approach actually used (a policy may promote to baseline).
    pub approach: ApproachKind,
    /// Bytes written to storage by this save (the paper's storage-
    /// consumption metric).
    pub storage_bytes: u64,
    /// Tensor bytes this save's Merkle passes actually hashed: the entries
    /// without a digest memo. Machine-invariant, unlike the `hash` phase's
    /// wall time.
    pub hashed_bytes: u64,
    /// Total time-to-save wall time.
    pub tts: Duration,
    /// Where the save time went, by phase (see [`SAVE_PHASES`]).
    pub phases: PhaseBreakdown,
    /// The resulting recovery-chain depth, for policy saves.
    pub chain_depth: Option<usize>,
    /// The Merkle diff, when a parameter update was saved.
    pub diff: Option<MerkleDiff>,
    /// The compressed encoding's statistics, for compressed updates.
    pub encoded: Option<mmlib_compress::EncodedUpdate>,
}

/// A save's phase clock, plus the tensor bytes its Merkle passes hashed
/// ([`SaveReport::hashed_bytes`]).
pub(crate) struct SaveClock<'r> {
    phases: PhaseClock<'r>,
    pub(crate) hashed_bytes: u64,
}

impl SaveClock<'_> {
    /// Runs `f`, charging its wall time to `phase`.
    pub(crate) fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        self.phases.time(phase, f)
    }
}

/// Whether a recovery's bit-exactness was checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The recovered parameters matched the stored Merkle root.
    Verified,
    /// Verification was disabled in [`RecoverOptions`].
    Skipped,
}

/// A recovered model with its full cost accounting — the uniform return of
/// [`SaveService::recover_report`].
pub struct RecoverReport {
    /// The recovered model.
    pub model: Model,
    /// The recovery-time breakdown accumulated over the whole base chain.
    pub breakdown: RecoverBreakdown,
    /// The breakdown re-expressed in the phase taxonomy
    /// ([`RECOVER_PHASES`]).
    pub phases: PhaseBreakdown,
    /// Whether the result was verified against the stored Merkle root.
    pub verification: VerifyOutcome,
    /// Total time-to-recover wall time.
    pub ttr: Duration,
}

impl std::fmt::Debug for RecoverReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverReport")
            .field("arch", &self.model.arch)
            .field("breakdown", &self.breakdown)
            .field("verification", &self.verification)
            .field("ttr", &self.ttr)
            .finish_non_exhaustive()
    }
}

impl SaveService {
    /// Saves a model as described by `req`, timing every phase.
    ///
    /// This is the single entry point behind `save_full`, `save_update`,
    /// `save_update_compressed`, `save_provenance`, and `save_with_policy`;
    /// the report carries everything those methods used to return, plus
    /// byte and phase accounting.
    pub fn save(&self, req: SaveRequest<'_>) -> Result<SaveReport, CoreError> {
        let obs = self.obs();
        let bytes_before = self.storage().bytes_written();
        let start = Instant::now();
        let mut clock =
            SaveClock { phases: PhaseClock::new(obs, SAVE_PHASE, "phase"), hashed_bytes: 0 };
        let relation = req.resolved_relation();

        let (id, approach, chain_depth, diff, encoded) = match req.kind {
            RequestKind::Full => {
                let id = self.save_full_phased(req.model, req.base, relation, &mut clock)?;
                (id, ApproachKind::Baseline, None, None, None)
            }
            RequestKind::Update => {
                let base = req.require_base()?;
                let (id, diff) = self.save_update_phased(req.model, base, relation, &mut clock)?;
                (id, ApproachKind::ParamUpdate, None, Some(diff), None)
            }
            RequestKind::CompressedUpdate => {
                let base = req.require_base()?;
                let base_model = req
                    .base_model
                    .ok_or_else(|| missing_field("compressed updates need the base model"))?;
                let (id, diff, encoded) = self.save_update_compressed_phased(
                    req.model, base_model, base, relation, &mut clock,
                )?;
                (id, ApproachKind::ParamUpdate, None, Some(diff), Some(encoded))
            }
            RequestKind::Provenance => {
                let base = req.require_base()?;
                let prov = req
                    .provenance
                    .ok_or_else(|| missing_field("provenance saves need TrainProvenance"))?;
                let id = self.save_provenance_phased(req.model, base, prov, &mut clock)?;
                (id, ApproachKind::Provenance, None, None, None)
            }
            RequestKind::Policy => {
                let base = req.require_base()?;
                let policy =
                    req.policy.ok_or_else(|| missing_field("policy requests carry a policy"))?;
                let base_depth = clock.time("plan", || self.chain_depth(base))?;
                let would_be = base_depth + 1;
                if would_be > policy.max_depth || policy.cheap == ApproachKind::Baseline {
                    let id = self.save_full_phased(req.model, Some(base), relation, &mut clock)?;
                    (id, ApproachKind::Baseline, Some(0), None, None)
                } else {
                    match policy.cheap {
                        // Handled by the promotion branch above; saving a
                        // baseline here keeps the arm panic-free and correct
                        // even if that branch's condition drifts.
                        ApproachKind::Baseline => {
                            let id = self.save_full_phased(
                                req.model,
                                Some(base),
                                relation,
                                &mut clock,
                            )?;
                            (id, ApproachKind::Baseline, Some(0), None, None)
                        }
                        ApproachKind::ParamUpdate => {
                            let (id, diff) =
                                self.save_update_phased(req.model, base, relation, &mut clock)?;
                            (id, ApproachKind::ParamUpdate, Some(would_be), Some(diff), None)
                        }
                        ApproachKind::Provenance => {
                            let prov = req.provenance.ok_or_else(|| {
                                missing_field("provenance chain policy requires TrainProvenance")
                            })?;
                            let id =
                                self.save_provenance_phased(req.model, base, prov, &mut clock)?;
                            (id, ApproachKind::Provenance, Some(would_be), None, None)
                        }
                    }
                }
            }
        };

        // The lineage record — one per save, the derivation edge the
        // lineage DAG (`mmlib-lineage`) is built from — is committed by the
        // per-approach save batch itself (ordered after model-info), so no
        // separate write happens here.
        let tts = start.elapsed();
        let storage_bytes = self.storage().bytes_written().saturating_sub(bytes_before);
        obs.observe_duration(SAVE_SECONDS, ("approach", approach.abbrev()), tts);
        obs.inc_labeled(SAVE_BYTES, ("approach", approach.abbrev()), storage_bytes);
        Ok(SaveReport {
            id,
            approach,
            storage_bytes,
            hashed_bytes: clock.hashed_bytes,
            tts,
            phases: clock.phases.finish(),
            chain_depth,
            diff,
            encoded,
        })
    }

    /// Recovers a saved model like [`SaveService::recover`], but returns
    /// the full report: phase breakdown in the shared taxonomy, the
    /// verification outcome, and the total TTR.
    pub fn recover_report(
        &self,
        id: &SavedModelId,
        opts: RecoverOptions,
    ) -> Result<RecoverReport, CoreError> {
        let obs = self.obs();
        let start = Instant::now();
        let mut breakdown = RecoverBreakdown::default();
        let model = self.recover_inner(id, &opts, &mut breakdown)?;

        // Verification of the final model, against the *requested* id's
        // stored Merkle root (intermediate chain steps only feed parameters
        // forward).
        let verification = if opts.verify {
            let vstart = Instant::now();
            let info = self.load_model_info(id)?;
            crate::verify::verify_against_root(&model, &info.root_hash, id)?;
            breakdown.verify += vstart.elapsed();
            VerifyOutcome::Verified
        } else {
            VerifyOutcome::Skipped
        };
        let ttr = start.elapsed();

        let mut phases = PhaseBreakdown::new();
        for (phase, d) in [
            ("fetch", breakdown.load),
            ("rebuild", breakdown.recover),
            ("check_env", breakdown.check_env),
            ("verify", breakdown.verify),
        ] {
            phases.add(phase, d);
            obs.observe_duration(RECOVER_PHASE, ("phase", phase), d);
        }
        obs.observe(RECOVER_SECONDS, ttr.as_secs_f64());
        Ok(RecoverReport { model, breakdown, phases, verification, ttr })
    }
}
