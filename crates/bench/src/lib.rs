//! Shared experiment plumbing for the mmlib benchmark harness.
//!
//! The `repro` binary (`src/bin/repro.rs`) regenerates every table and
//! figure of the paper's evaluation; the criterion benches under `benches/`
//! measure the micro costs (hashing, Merkle diffing, serialization,
//! per-approach save/recover). Both build on the helpers here.

#![forbid(unsafe_code)]

use mmlib_core::meta::{ApproachKind, ModelRelation};
use mmlib_dist::flow::{run_flow, FlowConfig, FlowKind, FlowResult};
use mmlib_model::ArchId;
use mmlib_store::ModelStorage;

/// Global knobs for a harness invocation.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Byte-size scale for datasets in the standard-flow experiments.
    /// 1.0 preserves the paper's dataset:model size ratios exactly.
    pub scale: f64,
    /// Byte-size scale for the DIST-N experiments (402 provenance saves at
    /// full scale would write tens of GB; the paper's *trends* are
    /// scale-free).
    pub dist_scale: f64,
    /// Runs per timed experiment (medians are taken across runs × nodes).
    pub runs: usize,
    /// Fast mode: smaller architectures / flows where the full version is
    /// expensive, for smoke-testing the harness itself.
    pub fast: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { scale: 1.0, dist_scale: 1.0 / 16.0, runs: 1, fast: false }
    }
}

/// Builds the standard-flow configuration used by Figs. 7 and 9–11.
pub fn standard_flow_config(
    approach: ApproachKind,
    arch: ArchId,
    relation: ModelRelation,
    u3_dataset: mmlib_data::DatasetId,
    scale: f64,
    recover_all: bool,
    seed: u64,
) -> FlowConfig {
    let mut config = FlowConfig::standard(approach, arch, relation);
    config.u3_dataset = u3_dataset;
    config.dataset_scale = scale;
    config.recover_all = recover_all;
    config.seed = seed;
    // Training resolution does not enter any storage or per-byte cost; use
    // the smallest resolution each stride pyramid supports (GoogLeNet's
    // pooling chain needs 32).
    config.train.resolution = if arch == ArchId::GoogLeNet { 32 } else { 16 };
    config
}

/// Runs a flow in a fresh temp directory (dropped afterwards, so repeated
/// experiments do not accumulate tens of GB on disk).
pub fn run_flow_tmp(config: &FlowConfig) -> FlowResult {
    let dir = tempfile::tempdir().expect("temp dir for flow storage");
    run_flow(config, dir.path())
}

/// Runs a flow `runs` times (varying the seed) and concatenates results for
/// cross-run medians, as the paper does across its five repetitions.
pub fn run_flow_runs(config: &FlowConfig, runs: usize) -> FlowResult {
    let results: Vec<FlowResult> = (0..runs)
        .map(|r| {
            let mut c = config.clone();
            c.seed = config.seed ^ ((r as u64) << 48);
            run_flow_tmp(&c)
        })
        .collect();
    mmlib_dist::metrics::concat_results(&results)
}

/// Formats bytes as decimal megabytes (the paper's unit).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The save phases each approach is expected to exercise during a standard
/// flow (its U1 is always a full snapshot, so the baseline's phases appear
/// in every approach's flow; listed here are the phases of the approach's
/// own U2/U3 saves plus that shared snapshot).
pub fn expected_save_phases(approach: ApproachKind) -> &'static [&'static str] {
    match approach {
        ApproachKind::Baseline => &["serialize", "hash", "write"],
        ApproachKind::ParamUpdate => &["diff", "hash", "serialize", "write"],
        ApproachKind::Provenance => &["pack", "hash", "write"],
    }
}

/// Recover phases every recovery reports (zero-duration phases included).
pub const EXPECTED_RECOVER_PHASES: [&str; 4] = ["fetch", "rebuild", "check_env", "verify"];

/// Aggregates phase breakdowns into `{phase: {seconds, samples}}`, where
/// `samples` counts the records whose breakdown contains the phase.
fn phase_stats<'a>(
    breakdowns: impl Iterator<Item = &'a mmlib_obs::PhaseBreakdown>,
) -> serde_json::Value {
    let mut acc: Vec<(String, f64, u64)> = Vec::new();
    for b in breakdowns {
        for (phase, d) in b.entries() {
            match acc.iter_mut().find(|(p, _, _)| p == phase) {
                Some(slot) => {
                    slot.1 += d.as_secs_f64();
                    slot.2 += 1;
                }
                None => acc.push((phase.to_string(), d.as_secs_f64(), 1)),
            }
        }
    }
    let mut map = serde_json::Map::new();
    for (phase, seconds, samples) in acc {
        map.insert(
            phase,
            serde_json::json!({"seconds": seconds, "samples": samples}),
        );
    }
    serde_json::Value::Object(map)
}

/// Runs the standard flow once per approach at a pinned scale/seed and
/// renders per-approach TTS/TTR/storage with per-phase breakdowns as JSON
/// (the `repro --json` payload, written to `BENCH_PR4.json`).
///
/// Returns the document and the list of problems — instrumented phases that
/// reported zero samples — so callers can fail the run on regressions.
pub fn phase_benchmark(config: &HarnessConfig, seed: u64) -> (serde_json::Value, Vec<String>) {
    phase_benchmark_with_arch(config, seed, ArchId::MobileNetV2)
}

/// [`phase_benchmark`] over an explicit architecture. The committed bench
/// documents always use MobileNetV2; tests use `TinyCnn` so structural
/// checks (phase coverage, JSON shape) stay in the millisecond range.
pub fn phase_benchmark_with_arch(
    config: &HarnessConfig,
    seed: u64,
    arch: ArchId,
) -> (serde_json::Value, Vec<String>) {
    let mut approaches = serde_json::Map::new();
    let mut problems = Vec::new();
    for approach in ApproachKind::all() {
        let flow = standard_flow_config(
            approach,
            arch,
            ModelRelation::PartiallyUpdated,
            mmlib_data::DatasetId::CocoFood512,
            config.scale,
            true,
            seed,
        );
        let result = run_flow_runs(&flow, config.runs);
        let tts = mmlib_dist::metrics::median_duration(
            result.saves.iter().map(|s| s.tts).collect(),
        );
        let ttr = mmlib_dist::metrics::median_duration(
            result.recovers.iter().map(|r| r.ttr).collect(),
        );
        let storage = mmlib_dist::metrics::median_u64(
            result.saves.iter().map(|s| s.storage_bytes).collect(),
        );
        let sync_ops = mmlib_dist::metrics::median_u64(
            result.saves.iter().map(|s| s.sync_ops).collect(),
        );
        let save_hash_bytes: Vec<serde_json::Value> = result
            .saves
            .iter()
            .map(|s| {
                serde_json::json!({
                    "use_case": s.use_case.as_str(),
                    "hashed_bytes": s.hashed_bytes,
                    "changed_bytes": s.changed_bytes,
                })
            })
            .collect();
        let save_phases = phase_stats(result.saves.iter().map(|s| &s.phases));
        let recover_phases = phase_stats(result.recovers.iter().map(|r| &r.phases));

        for &phase in expected_save_phases(approach) {
            if save_phases[phase]["samples"].as_u64().unwrap_or(0) == 0 {
                problems.push(format!("{}: save phase {phase:?} has zero samples", approach.abbrev()));
            }
        }
        for phase in EXPECTED_RECOVER_PHASES {
            if recover_phases[phase]["samples"].as_u64().unwrap_or(0) == 0 {
                problems.push(format!("{}: recover phase {phase:?} has zero samples", approach.abbrev()));
            }
        }

        approaches.insert(
            approach.abbrev().to_string(),
            serde_json::json!({
                "saves": result.saves.len(),
                "recovers": result.recovers.len(),
                "tts_ms_median": tts.as_secs_f64() * 1e3,
                "ttr_ms_median": ttr.as_secs_f64() * 1e3,
                "storage_bytes_median": storage,
                "save_sync_ops_median": sync_ops,
                "save_hash_bytes": save_hash_bytes,
                "save_phases": save_phases,
                "recover_phases": recover_phases,
            }),
        );
    }
    let doc = serde_json::json!({
        "config": {
            "scale": config.scale,
            "runs": config.runs,
            "fast": config.fast,
            "seed": seed,
            "arch": arch.name(),
            "flow": "STANDARD",
            "relation": "PartiallyUpdated",
        },
        "approaches": serde_json::Value::Object(approaches),
    });
    (doc, problems)
}

/// Minimum speedup of the PUA `hash` save phase over the frozen baseline
/// document (digest memos mean a save hashes only the changed layers).
/// Hashing is CPU-bound, so its wall clock is stable enough to gate.
pub const GATE_PUA_HASH_SPEEDUP: f64 = 2.0;

/// Minimum reduction factor of BA durability sync operations per save.
pub const GATE_BA_WRITE_SPEEDUP: f64 = 1.5;

/// Sync operations one baseline save issued under the per-artifact write
/// protocol BENCH_PR4.json was generated with: six artifacts (environment
/// doc, code file, weights file, layer-hash doc, model-info doc, lineage
/// record), each paying one payload fdatasync plus one directory fsync.
/// This is a protocol constant, not a measurement.
pub const BA_PER_ARTIFACT_SYNC_OPS: f64 = 12.0;

/// Compares a freshly generated phase-benchmark document against a frozen
/// baseline and returns the list of regressions. Empty result means the
/// gate passes. Four checks:
///
/// * PUA `hash` save-phase wall clock must hold
///   [`GATE_PUA_HASH_SPEEDUP`] over the frozen baseline (CPU-bound, so
///   run-to-run stable).
/// * Every PUA update save must hash at most the bytes of the layers its
///   Merkle diff found changed: unchanged tensors answer from their digest
///   memo. A byte count, so it holds on any machine.
/// * BA durability syncs per save must be at least
///   [`GATE_BA_WRITE_SPEEDUP`] below [`BA_PER_ARTIFACT_SYNC_OPS`]. The
///   write win is gated on sync *count*, not wall clock: device throughput
///   on shared storage varies severalfold run to run, which would make a
///   wall-clock I/O ratio gate flaky in both directions, while the number
///   of fdatasync/fsync calls per save is exactly the structure the
///   batch commit coalesces and is identical on every machine.
/// * Every phase instrumented in the baseline must still report samples.
pub fn phase_gate(current: &serde_json::Value, baseline: &serde_json::Value) -> Vec<String> {
    let mut problems = Vec::new();
    let seconds = |doc: &serde_json::Value, approach: &str, phase: &str| {
        doc["approaches"][approach]["save_phases"][phase]["seconds"].as_f64()
    };
    match (seconds(baseline, "PUA", "hash"), seconds(current, "PUA", "hash")) {
        (Some(old), Some(new)) if new > 0.0 => {
            let speedup = old / new;
            if speedup < GATE_PUA_HASH_SPEEDUP {
                problems.push(format!(
                    "PUA save phase \"hash\": {old:.4}s -> {new:.4}s is {speedup:.2}x, below the {GATE_PUA_HASH_SPEEDUP:.1}x gate"
                ));
            }
        }
        (old, new) => problems.push(format!(
            "PUA save phase \"hash\": cannot compute speedup (baseline {old:?}, current {new:?})"
        )),
    }
    let updates: Vec<(&str, u64, u64)> = current["approaches"]["PUA"]["save_hash_bytes"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|s| {
            let (hashed, changed) = (s["hashed_bytes"].as_u64()?, s["changed_bytes"].as_u64()?);
            Some((s["use_case"].as_str()?, hashed, changed))
        })
        .collect();
    if updates.is_empty() {
        problems.push("PUA save_hash_bytes missing or without update saves".to_string());
    }
    for (use_case, hashed, changed) in updates.into_iter().filter(|(_, h, c)| h > c) {
        problems.push(format!(
            "PUA update save {use_case} hashed {hashed} bytes, more than its changed layers' {changed}"
        ));
    }
    let sync_bound = BA_PER_ARTIFACT_SYNC_OPS / GATE_BA_WRITE_SPEEDUP;
    match current["approaches"]["BA"]["save_sync_ops_median"].as_u64() {
        Some(ops) if ops > 0 => {
            if ops as f64 > sync_bound {
                problems.push(format!(
                    "BA save issues {ops} sync ops, above the {sync_bound:.1} bound \
                     ({BA_PER_ARTIFACT_SYNC_OPS:.0} per-artifact syncs / {GATE_BA_WRITE_SPEEDUP:.1}x)"
                ));
            }
        }
        other => problems.push(format!(
            "BA save_sync_ops_median missing or zero in the current document ({other:?})"
        )),
    }
    // Structural drift guard: every instrumented phase of the baseline must
    // still report samples — a phase silently dropping to zero would let
    // the ratio gates pass vacuously on the next re-baseline.
    if let Some(approaches) = baseline["approaches"].as_object() {
        for (approach, entry) in approaches {
            for kind in ["save_phases", "recover_phases"] {
                let Some(phases) = entry[kind].as_object() else { continue };
                for phase in phases.keys() {
                    if current["approaches"][approach.as_str()][kind][phase.as_str()]["samples"]
                        .as_u64()
                        .unwrap_or(0)
                        == 0
                    {
                        problems.push(format!(
                            "{approach}: baseline {kind} entry {phase:?} has zero samples in the current document"
                        ));
                    }
                }
            }
        }
    }
    problems
}

/// Formats a flow kind name for DIST experiments respecting fast mode.
pub fn dist_flow_kind(fast: bool) -> FlowKind {
    if fast {
        FlowKind::Dist5
    } else {
        FlowKind::Dist20
    }
}

/// The chain depth the lineage benchmark compacts (the PR 6 acceptance
/// depth) and the bound it compacts to.
pub const LINEAGE_BENCH_DEPTH: usize = 64;
/// Depth bound used by the lineage benchmark's compaction.
pub const LINEAGE_BENCH_MAX_DEPTH: usize = 8;

/// TTR-vs-chain-depth benchmark (the `repro --lineage-json` payload,
/// written to `BENCH_PR6.json`): builds a depth-64 parameter-update chain,
/// measures tip TTR with a recover-phase breakdown, compacts the chain to
/// a depth bound of 8, and measures again — against a fresh depth-8 chain
/// as the control.
///
/// Returns the JSON document and the list of problems (non-byte-identical
/// recovery, TTR above 1.5x the control, missing promotions), so callers
/// can fail the run on regressions.
pub fn lineage_depth_benchmark(config: &HarnessConfig, seed: u64) -> (serde_json::Value, Vec<String>) {
    use mmlib_core::{RecoverOptions, SaveService};
    use mmlib_model::Model;
    use std::time::{Duration, Instant};

    let depth = LINEAGE_BENCH_DEPTH;
    let max_depth = LINEAGE_BENCH_MAX_DEPTH;
    let runs = config.runs.max(if config.fast { 3 } else { 5 });
    let mut problems = Vec::new();

    let build = |dir: &std::path::Path, depth: usize| -> (SaveService, mmlib_core::meta::SavedModelId) {
        let svc = SaveService::new(ModelStorage::open(dir).expect("open bench store"));
        let mut model = Model::new_initialized(ArchId::TinyCnn, seed);
        model.set_fully_trainable();
        let mut tip = svc.save_full(&model, None, "initial").expect("save chain root");
        for step in 0..depth {
            let mut first = true;
            model.visit_trainable_mut(&mut |_, w, _| {
                if first {
                    w.data_mut()[0] += 1e-3 + step as f32 * 1e-4;
                    first = false;
                }
            });
            let (id, _) =
                svc.save_update(&model, &tip, "partially_updated").expect("save chain link");
            tip = id;
        }
        (svc, tip)
    };
    // Min-of-N recovery time plus the breakdown of the last run (the
    // breakdown is deterministic in structure; only durations vary).
    let time_recover = |svc: &SaveService, id: &mmlib_core::meta::SavedModelId| {
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let t = Instant::now();
            let rec = svc.recover(id, RecoverOptions::default().paper_init(true)).expect("recover bench tip");
            best = best.min(t.elapsed());
            last = Some(rec);
        }
        let rec = last.expect("at least one recovery run");
        (best, rec)
    };
    let breakdown_json = |b: &mmlib_core::RecoverBreakdown| {
        serde_json::json!({
            "load_ms": b.load.as_secs_f64() * 1e3,
            "recover_ms": b.recover.as_secs_f64() * 1e3,
            "check_env_ms": b.check_env.as_secs_f64() * 1e3,
            "verify_ms": b.verify.as_secs_f64() * 1e3,
            "recovered_bases": b.recovered_bases,
        })
    };

    let dir = tempfile::tempdir().expect("temp dir for lineage bench");
    let (svc, tip) = build(dir.path(), depth);
    let (ttr_before, rec_before) = time_recover(&svc, &tip);
    let bits_before: Vec<Vec<u32>> = rec_before
        .model
        .state_dict()
        .into_iter()
        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();

    let lineage = mmlib_lineage::Lineage::new(&svc);
    let compact_start = Instant::now();
    let report = lineage.compact(&tip, max_depth).expect("compact bench chain");
    let compact_time = compact_start.elapsed();
    if report.promoted.is_empty() {
        problems.push(format!("compaction of a depth-{depth} chain promoted nothing"));
    }

    let (ttr_after, rec_after) = time_recover(&svc, &tip);
    let bits_after: Vec<Vec<u32>> = rec_after
        .model
        .state_dict()
        .into_iter()
        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    if bits_before != bits_after {
        problems.push("recovery after compaction is not byte-identical".to_string());
    }

    // Control: a chain that was depth-8 from the start.
    let dir_control = tempfile::tempdir().expect("temp dir for control chain");
    let (svc_control, tip_control) = build(dir_control.path(), max_depth);
    let (ttr_control, rec_control) = time_recover(&svc_control, &tip_control);
    if ttr_after > ttr_control.mul_f64(1.5) {
        problems.push(format!(
            "compacted depth-{depth} TTR {ttr_after:?} exceeds 1.5x the depth-{max_depth} \
             control {ttr_control:?}"
        ));
    }

    let doc = serde_json::json!({
        "config": {
            "depth": depth,
            "max_depth": max_depth,
            "runs": runs,
            "seed": seed,
            "arch": "tinycnn",
            "fast": config.fast,
        },
        "before": {
            "ttr_ms": ttr_before.as_secs_f64() * 1e3,
            "phases": breakdown_json(&rec_before.breakdown),
        },
        "compaction": {
            "promoted": report.promoted.len(),
            "chain_len": report.chain.len(),
            "bytes_written": report.bytes_written,
            "seconds": compact_time.as_secs_f64(),
        },
        "after": {
            "ttr_ms": ttr_after.as_secs_f64() * 1e3,
            "phases": breakdown_json(&rec_after.breakdown),
        },
        "control_depth8": {
            "ttr_ms": ttr_control.as_secs_f64() * 1e3,
            "phases": breakdown_json(&rec_control.breakdown),
        },
        "byte_identical": bits_before == bits_after,
        "speedup": ttr_before.as_secs_f64() / ttr_after.as_secs_f64().max(1e-9),
    });
    (doc, problems)
}

#[cfg(test)]
mod tests {
    use super::phase_gate;

    fn baseline(pua_hash: f64) -> serde_json::Value {
        serde_json::json!({
            "approaches": {
                "PUA": {"save_phases": {"hash": {"seconds": pua_hash, "samples": 10}}},
            }
        })
    }

    fn current(pua_hash: f64, ba_sync_ops: u64) -> serde_json::Value {
        with_hashed(pua_hash, ba_sync_ops, 5_124_000)
    }

    /// A current document whose one PUA update save hashed `hashed` bytes
    /// against 5,124,000 changed.
    fn with_hashed(pua_hash: f64, ba_sync_ops: u64, hashed: u64) -> serde_json::Value {
        serde_json::json!({
            "approaches": {
                "PUA": {
                    "save_phases": {"hash": {"seconds": pua_hash, "samples": 10}},
                    "save_hash_bytes": [
                        {"use_case": "U1", "hashed_bytes": 14155936, "changed_bytes": null},
                        {"use_case": "U3-1-1", "hashed_bytes": hashed, "changed_bytes": 5124000},
                    ],
                },
                "BA": {"save_sync_ops_median": ba_sync_ops, "save_phases": {}},
            }
        })
    }

    #[test]
    fn gate_passes_at_the_target_ratios() {
        // 2.0x hash speedup; 8 sync ops = 12 per-artifact syncs / 1.5.
        let problems = phase_gate(&current(0.68 / 2.0, 8), &baseline(0.68));
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn gate_fails_below_either_target() {
        let slow_hash = phase_gate(&current(0.68 / 1.9, 8), &baseline(0.68));
        assert_eq!(slow_hash.len(), 1, "{slow_hash:?}");
        assert!(slow_hash[0].contains("PUA"), "{slow_hash:?}");
        let too_many_syncs = phase_gate(&current(0.68 / 2.0, 9), &baseline(0.68));
        assert_eq!(too_many_syncs.len(), 1, "{too_many_syncs:?}");
        assert!(too_many_syncs[0].contains("sync ops"), "{too_many_syncs:?}");
        let rehashed = phase_gate(&with_hashed(0.68 / 2.0, 8, 14_155_936), &baseline(0.68));
        assert_eq!(rehashed.len(), 1, "{rehashed:?}");
        assert!(rehashed[0].contains("U3-1-1"), "{rehashed:?}");
    }

    #[test]
    fn gate_fails_on_missing_fields_and_zero_sample_phases() {
        // Current document lost the PUA hash phase and the BA sync count:
        // both ratio terms are uncomputable AND the structural guard flags
        // the zero-sample phase.
        let current = serde_json::json!({
            "approaches": {
                "PUA": {"save_phases": {}},
                "BA": {"save_phases": {}},
            }
        });
        let problems = phase_gate(&current, &baseline(0.68));
        assert!(problems.iter().any(|p| p.contains("cannot compute")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("save_sync_ops_median")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("save_hash_bytes")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("zero samples")), "{problems:?}");
    }
}
