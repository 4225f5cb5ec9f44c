//! `perfbench` — drives a real `mmlib serve` child over loopback through the
//! pooled v2 `RemoteStore` and reports time-to-save, time-to-recover and
//! storage as a node sees them.
//!
//! ```text
//! perfbench --server-bin <mmlib> --work-dir <dir> \
//!     --workload <pua-chain|recover-zipf|fleet-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/run.sh` builds both binaries and passes the first two flags.
//! The last stdout line is the JSON result; the lines before it record the
//! configuration and every named metric with its unit. The exit code is
//! nonzero when any op fails or any recovered model differs from the
//! version the benchmark generated.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmlib_core::meta::ModelRelation;
use mmlib_core::{
    ApproachKind, CoreError, RecoverOptions, RecoverReport, SaveReport, SaveRequest, SaveService,
    SavedModelId, TrainProvenance,
};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_net::RemoteStore;
use mmlib_obs::Recorder;
use mmlib_store::{ModelStorage, StorageBackend};
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

use mmlib_perfbench::gen::{self, Rng, Update};
use mmlib_perfbench::procfs;
use mmlib_perfbench::server::{self, NetSnapshot, Server};
use mmlib_perfbench::timed::{Call, CallLog, Method, TimedBackend};
use mmlib_perfbench::trace::{self, OpKind, OpSpan};

/// Pooled connections shared by every simulated node (the machine this
/// benchmark was sized on has two cores).
const POOL_SIZE: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// PUA saves after the root, before the measured phase (warm caches).
const PUA_WARMUP_SAVES: u64 = 5;
/// Longest PUA chain before the benchmark starts a new root, well below the
/// default recover depth limit of 1024.
const PUA_CHAIN_CAP: usize = 100;
/// Roots, PUA chain depth and MPA children of the recover-zipf population.
const ZIPF_ROOTS: u64 = 4;
const ZIPF_CHAIN_DEPTH: u64 = 6;
/// Versions sampled for recovery at the end of a run, besides the heads.
const FINAL_SAMPLES: usize = 1;
/// The attribution gap (mean op time minus the mean sum of its reported
/// phases) is expected within this many milliseconds, or this share of the
/// mean op time, whichever is larger.
const ATTRIBUTION_EPS_MS: f64 = 1.0;
const ATTRIBUTION_EPS_SHARE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PuaChain,
    RecoverZipf,
    FleetMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pua-chain" => Some(Workload::PuaChain),
            "recover-zipf" => Some(Workload::RecoverZipf),
            "fleet-mixed" => Some(Workload::FleetMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PuaChain => "pua-chain",
            Workload::RecoverZipf => "recover-zipf",
            Workload::FleetMixed => "fleet-mixed",
        }
    }

    /// Client threads, one simulated node each.
    fn clients(self) -> usize {
        match self {
            Workload::PuaChain => 1,
            Workload::RecoverZipf | Workload::FleetMixed => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

// ---- the system under test ---------------------------------------------

/// One simulated node: a long-lived `SaveService` with its own recorder.
struct Node {
    svc: SaveService,
    recorder: Arc<Recorder>,
}

/// A server, the shared client pool, and the nodes on top of it. Fields
/// drop in order: nodes and pool first, the server child last.
struct Stack {
    nodes: Vec<Node>,
    timed: Option<Arc<TimedBackend>>,
    remote: Arc<RemoteStore>,
    server: Server,
}

fn open_stack(
    bin: &Path,
    dir: &Path,
    clients: usize,
    log: Option<&Arc<CallLog>>,
) -> Result<Stack, String> {
    let server = Server::spawn(bin, dir)?;
    let remote = Arc::new(
        RemoteStore::builder(server.addr)
            .pool_size(POOL_SIZE)
            .build()
            .map_err(|e| format!("connect to {}: {e}", server.addr))?,
    );
    let timed = log.map(|log| {
        let t = Arc::new(TimedBackend::new(remote.clone(), log.clone()));
        t.set_recording(false);
        t
    });
    let backend: Arc<dyn StorageBackend> = match &timed {
        Some(t) => t.clone(),
        None => remote.clone(),
    };
    let nodes = (0..clients)
        .map(|_| {
            let recorder = Arc::new(Recorder::new());
            mmlib_core::register_metrics(&recorder);
            let storage =
                ModelStorage::from_backend(backend.clone(), format!("tcp://{}", server.addr));
            Node { svc: SaveService::new(storage).with_recorder(recorder.clone()), recorder }
        })
        .collect();
    Ok(Stack { nodes, timed, remote, server })
}

// ---- ops ------------------------------------------------------------------

/// One completed op, as the benchmark measured it.
#[derive(Debug, Clone)]
struct OpRec {
    span: OpSpan,
    /// Reported phases in ms (save: `SAVE_PHASES`, recover: `RECOVER_PHASES`).
    phases: Vec<(&'static str, f64)>,
    /// Recover: the approach of the recovered version.
    approach: Option<ApproachKind>,
    /// Recover: models rebuilt along the chain (1 for a snapshot).
    chain_len: f64,
}

/// Op outcomes and step latencies shared by the client threads.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Ops that failed, were refused, or returned a wrong result.
    failed: u64,
    ops: Vec<OpRec>,
    /// Client wall time of each closed-loop step, in ms.
    steps: Vec<f64>,
    errors: Vec<String>,
}

#[derive(Default)]
struct Collector {
    tally: Mutex<Tally>,
}

impl Collector {
    fn lock(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.tally.lock().expect("tally lock poisoned")
    }

    fn into_tally(self) -> Tally {
        self.tally.into_inner().expect("tally lock poisoned")
    }

    fn fail(&self, what: String) {
        let mut t = self.lock();
        t.attempted += 1;
        t.failed += 1;
        if t.errors.len() < 8 {
            t.errors.push(what);
        }
    }

    fn ok(&self, rec: Option<OpRec>) {
        let mut t = self.lock();
        t.attempted += 1;
        t.ops.extend(rec);
    }
}

fn timed_call<T>(op: u64, kind: OpKind, f: impl FnOnce() -> T) -> (T, OpSpan) {
    trace::set_current_op(op);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    trace::set_current_op(0);
    (out, OpSpan { op, kind, start_ns: trace::nanos(start), end_ns: trace::nanos(end) })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Saves through `node` and records the op.
fn save(c: &Collector, node: &Node, req: SaveRequest<'_>) -> Result<(SaveReport, OpSpan), String> {
    let op = trace::next_op();
    let (res, span) = timed_call(op, OpKind::Save, || node.svc.save(req));
    match res {
        Ok(report) => {
            let rec = OpRec {
                span: span.clone(),
                phases: report.phases.entries().iter().map(|(p, d)| (*p, ms(*d))).collect(),
                approach: None,
                chain_len: 0.0,
            };
            c.ok(Some(rec));
            Ok((report, span))
        }
        Err(e) => {
            let msg = format!("save failed: {e}");
            c.fail(msg.clone());
            Err(msg)
        }
    }
}

/// Recovers `id` with default options and checks the result's digest.
fn recover(
    c: &Collector,
    node: &Node,
    id: &SavedModelId,
    expected: u64,
    approach: ApproachKind,
) -> Result<OpSpan, String> {
    let op = trace::next_op();
    let (res, span): (Result<RecoverReport, CoreError>, OpSpan) =
        timed_call(op, OpKind::Recover, || node.svc.recover_report(id, RecoverOptions::default()));
    match res {
        Ok(report) => {
            if gen::digest(&report.model) != expected {
                let msg = format!("recovered model {id} differs from the saved version");
                c.fail(msg.clone());
                return Err(msg);
            }
            let rec = OpRec {
                span: span.clone(),
                phases: report.phases.entries().iter().map(|(p, d)| (*p, ms(*d))).collect(),
                approach: Some(approach),
                chain_len: f64::from(report.breakdown.recovered_bases) + 1.0,
            };
            c.ok(Some(rec));
            Ok(span)
        }
        Err(e) => {
            let msg = format!("recover {id} failed: {e}");
            c.fail(msg.clone());
            Err(msg)
        }
    }
}

/// Checks that the server's lineage of `head` is `expected` (root first).
fn check_lineage(
    c: &Collector,
    remote: &RemoteStore,
    head: &SavedModelId,
    expected: &[SavedModelId],
) {
    match remote.lineage_chain(&head.to_string()) {
        Ok(nodes) => {
            let got: Vec<String> = nodes.iter().rev().map(|n| n.model.clone()).collect();
            let want: Vec<String> = expected.iter().map(|id| id.to_string()).collect();
            if got == want {
                c.ok(None);
            } else {
                c.fail(format!(
                    "lineage of {head}: server has {} ancestors, {} were saved",
                    got.len(),
                    want.len()
                ));
            }
        }
        Err(e) => c.fail(format!("lineage_chain {head}: {e}")),
    }
}

// ---- workload state -------------------------------------------------------

/// Wall time spent in the program during set-up (generation excluded).
#[derive(Default)]
struct Stopwatch(Duration);

impl Stopwatch {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0 += start.elapsed();
        out
    }
}

/// A saved version the benchmark can check a recovery against.
#[derive(Clone)]
struct Version {
    id: SavedModelId,
    digest: u64,
    approach: ApproachKind,
    /// Lineage from the root to this version.
    lineage: Vec<SavedModelId>,
}

/// pua-chain: one ResNet-18 whose classifier changes each version.
struct PuaChain {
    model: Model,
    /// Per-entry digests of `model`; only the classifier's are recomputed.
    digests: Vec<u64>,
    /// The current chain, root first.
    lineage: Vec<SavedModelId>,
    /// Every version saved in the run, for the final sample (their own
    /// `lineage` is left empty; only the head's is checked).
    versions: Vec<Version>,
    next_version: u64,
    /// Bytes the last perturbation changed.
    changed_bytes: u64,
}

/// recover-zipf: the 32-version population and a Zipf order over it.
struct Population {
    versions: Vec<Version>,
    /// `versions` indices in popularity-rank order.
    ranked: Vec<usize>,
}

/// A fleet-mixed node's own MobileNetV2 and its saved history.
struct FleetNode {
    model: Model,
    lineage: Vec<SavedModelId>,
    next_version: u64,
}

/// fleet-mixed: the nodes' private state, and each node's latest saved
/// version, which the other node recovers.
struct Fleet {
    nodes: Vec<FleetNode>,
    latest: Vec<Mutex<Version>>,
}

/// An MPA child trained from a recover-zipf root (generated once per run).
struct Trained {
    model: Model,
    prov: TrainProvenance,
}

enum State {
    Pua(Box<PuaChain>),
    Zipf(Population),
    Fleet(Fleet),
}

fn root_seed(seed: u64, root: u64) -> u64 {
    Rng::stream(seed, &[0x5eed, root]).next_u64()
}

/// Trains classifier-only MPA children of the recover-zipf roots. Training
/// is input generation, so it runs once per run and outside any timing.
fn train_children(seed: u64) -> Vec<Trained> {
    (0..ZIPF_ROOTS)
        .map(|r| {
            let mut model = Model::new_initialized(ArchId::MobileNetV2, root_seed(seed, r));
            model.set_classifier_only_trainable();
            let train_seed = root_seed(seed, 100 + r);
            let loader_config = LoaderConfig {
                batch_size: 4,
                resolution: 32,
                seed: train_seed,
                max_images: Some(4),
                ..Default::default()
            };
            let train_config = TrainConfig {
                epochs: 1,
                max_batches_per_epoch: Some(1),
                seed: train_seed,
                mode: ExecMode::Deterministic,
            };
            let dataset_scale = 1.0 / 1024.0;
            let sgd_config = SgdConfig::default();
            let sgd = Sgd::new(sgd_config);
            let prov = TrainProvenance {
                dataset_id: DatasetId::CocoFood512,
                dataset_scale,
                dataset_external: false,
                loader_config,
                optimizer: sgd_config.into(),
                optimizer_state_before: sgd.state_bytes(),
                train_config,
                relation: ModelRelation::PartiallyUpdated,
            };
            let loader =
                DataLoader::new(Dataset::new(DatasetId::CocoFood512, dataset_scale), loader_config);
            ImageNetTrainService::new(loader, sgd, train_config).train(&mut model);
            Trained { model, prov }
        })
        .collect()
}

/// Version classes (approach, lineage length) in popularity order; with
/// Zipf(s = 1) over 32 ranks the eight slots get 29.7, 17.0, 12.6, 10.2,
/// 8.8, 7.7, 7.0 and 6.4% of draws. The order is fixed, so every seed draws
/// the same mix of recover costs; the seed picks which root's version fills
/// each slot. Recover cost rises from BA through PUA by depth to the MPA
/// replay (about twice a PUA recover). In that order the classes cover
/// 0-13% (BA), 13-93% (PUA) and 93-100% (MPA) of draws, so both reported
/// quantiles (p50, p80) fall inside the PUA range, away from the cost gaps
/// at either end where a few samples more or less would move them.
const ZIPF_CLASS_ORDER: [(ApproachKind, usize); 8] = [
    (ApproachKind::ParamUpdate, 4),
    (ApproachKind::ParamUpdate, 6),
    (ApproachKind::Baseline, 1),
    (ApproachKind::ParamUpdate, 2),
    (ApproachKind::ParamUpdate, 7),
    (ApproachKind::ParamUpdate, 3),
    (ApproachKind::ParamUpdate, 5),
    (ApproachKind::Provenance, 2),
];

/// `versions` indices in Zipf rank order: rank `k` holds a version of class
/// `ZIPF_CLASS_ORDER[k % 8]`, drawn without replacement by a seeded shuffle.
fn zipf_ranking(versions: &[Version], seed: u64) -> Vec<usize> {
    let mut rng = Rng::stream(seed, &[3]);
    let mut classes: Vec<Vec<usize>> = ZIPF_CLASS_ORDER
        .iter()
        .map(|&(approach, len)| {
            let mut of: Vec<usize> = (0..versions.len())
                .filter(|&i| versions[i].approach == approach && versions[i].lineage.len() == len)
                .collect();
            rng.shuffle(&mut of);
            of
        })
        .collect();
    (0..versions.len())
        .map(|k| {
            classes[k % ZIPF_CLASS_ORDER.len()].pop().expect("every class has one version per root")
        })
        .collect()
}

/// What one set-up produced.
struct Setup {
    stack: Stack,
    state: State,
    seconds: f64,
    /// Store growth over the population saves and their count (only
    /// recover-zipf, whose measured phase saves nothing, reports it).
    population: Option<(u64, u64)>,
}

fn setup(
    args: &Args,
    dir: &Path,
    log: Option<&Arc<CallLog>>,
    trained: &[Trained],
    c: &Collector,
) -> Result<Setup, String> {
    let mut sw = Stopwatch::default();
    let stack = sw.time(|| open_stack(&args.server_bin, dir, args.workload.clients(), log))?;
    let node0 = &stack.nodes[0];
    let mut population = None;
    let state = match args.workload {
        Workload::PuaChain => {
            let model =
                sw.time(|| Model::new_initialized(ArchId::ResNet18, root_seed(args.seed, 0)));
            let digests = gen::entry_digests(&model);
            let (report, _) = sw.time(|| save(c, node0, SaveRequest::full(&model)))?;
            let root = Version {
                id: report.id.clone(),
                digest: gen::fold(&digests),
                approach: ApproachKind::Baseline,
                lineage: vec![report.id.clone()],
            };
            let mut chain = PuaChain {
                model,
                digests,
                lineage: vec![report.id],
                versions: vec![root],
                next_version: 1,
                changed_bytes: 0,
            };
            for _ in 0..PUA_WARMUP_SAVES {
                pua_step(args.seed, &mut chain, node0, c, &mut sw)?;
            }
            State::Pua(Box::new(chain))
        }
        Workload::RecoverZipf => {
            let before = procfs::disk_usage(dir).map_err(|e| format!("du: {e}"))?;
            let mut versions = Vec::new();
            for (r, child) in (0..ZIPF_ROOTS).zip(trained) {
                let mut model = sw
                    .time(|| Model::new_initialized(ArchId::MobileNetV2, root_seed(args.seed, r)));
                let (report, _) = sw.time(|| save(c, node0, SaveRequest::full(&model)))?;
                let root = Version {
                    id: report.id.clone(),
                    digest: gen::digest(&model),
                    approach: ApproachKind::Baseline,
                    lineage: vec![report.id.clone()],
                };
                let (mpa, _) = sw.time(|| {
                    save(c, node0, SaveRequest::provenance(&child.model, &root.id, &child.prov))
                })?;
                versions.push(Version {
                    id: mpa.id.clone(),
                    digest: gen::digest(&child.model),
                    approach: ApproachKind::Provenance,
                    lineage: vec![root.id.clone(), mpa.id],
                });
                let mut prev = root.clone();
                versions.push(root);
                for v in 1..=ZIPF_CHAIN_DEPTH {
                    gen::perturb(
                        &mut model,
                        Update::Classifier,
                        &mut Rng::stream(args.seed, &[2, r, v]),
                    );
                    let (report, _) = sw.time(|| {
                        save(
                            c,
                            node0,
                            SaveRequest::update(&model, &prev.id).relation("partially_updated"),
                        )
                    })?;
                    let mut lineage = prev.lineage.clone();
                    lineage.push(report.id.clone());
                    prev = Version {
                        id: report.id,
                        digest: gen::digest(&model),
                        approach: ApproachKind::ParamUpdate,
                        lineage,
                    };
                    versions.push(prev.clone());
                }
            }
            let grown = procfs::disk_usage(dir).map_err(|e| format!("du: {e}"))? - before;
            population = Some((grown, versions.len() as u64));
            let ranked = zipf_ranking(&versions, args.seed);
            // Warm-up: one recover of each approach, alternating nodes.
            for (i, approach) in ApproachKind::all().into_iter().enumerate() {
                let v = versions
                    .iter()
                    .filter(|v| v.approach == approach)
                    .max_by_key(|v| v.lineage.len())
                    .expect("every approach is in the population");
                let node = &stack.nodes[i % stack.nodes.len()];
                sw.time(|| recover(c, node, &v.id, v.digest, v.approach))?;
            }
            State::Zipf(Population { versions, ranked })
        }
        Workload::FleetMixed => {
            let mut fleet = Fleet { nodes: Vec::new(), latest: Vec::new() };
            for n in 0..stack.nodes.len() {
                let model = sw.time(|| {
                    Model::new_initialized(ArchId::MobileNetV2, root_seed(args.seed, n as u64))
                });
                let (report, _) =
                    sw.time(|| save(c, &stack.nodes[n], SaveRequest::full(&model)))?;
                let latest = Version {
                    id: report.id.clone(),
                    digest: gen::digest(&model),
                    approach: ApproachKind::Baseline,
                    lineage: vec![report.id.clone()],
                };
                fleet.nodes.push(FleetNode { model, lineage: vec![report.id], next_version: 1 });
                fleet.latest.push(Mutex::new(latest));
            }
            // Warm-up: one save-then-recover step per node.
            for (n, me) in fleet.nodes.iter_mut().enumerate() {
                fleet_step(args.seed, n, me, &fleet.latest, &stack.nodes[n], c, &mut sw)?;
            }
            State::Fleet(fleet)
        }
    };
    Ok(Setup { stack, state, seconds: sw.0.as_secs_f64(), population })
}

/// One pua-chain step: perturb the classifier, save it against the head.
fn pua_step(
    seed: u64,
    chain: &mut PuaChain,
    node: &Node,
    c: &Collector,
    sw: &mut Stopwatch,
) -> Result<f64, String> {
    let prefix = chain.model.arch.classifier_prefix();
    chain.changed_bytes = gen::perturb(
        &mut chain.model,
        Update::Classifier,
        &mut Rng::stream(seed, &[1, chain.next_version]),
    );
    chain.next_version += 1;
    gen::refresh_digests(&chain.model, &mut chain.digests, prefix);
    let head = chain.lineage.last().expect("a chain has a root").clone();
    let (report, span) = sw.time(|| {
        save(c, node, SaveRequest::update(&chain.model, &head).relation("partially_updated"))
    })?;
    chain.lineage.push(report.id.clone());
    chain.versions.push(Version {
        id: report.id,
        digest: gen::fold(&chain.digests),
        approach: ApproachKind::ParamUpdate,
        lineage: Vec::new(),
    });
    Ok(span.ms())
}

/// Starts a new pua-chain root (a BA snapshot of the current version) once
/// the chain reaches [`PUA_CHAIN_CAP`].
fn pua_rollover(chain: &mut PuaChain, node: &Node, c: &Collector) -> Result<(), String> {
    let (report, _) = save(c, node, SaveRequest::full(&chain.model))?;
    chain.lineage = vec![report.id.clone()];
    chain.versions.push(Version {
        id: report.id,
        digest: gen::fold(&chain.digests),
        approach: ApproachKind::Baseline,
        lineage: Vec::new(),
    });
    Ok(())
}

/// One fleet-mixed step of node `n`: a full update saved as a BA snapshot,
/// then a recover of the other node's latest version. Returns the step's
/// latency (save plus recover).
fn fleet_step(
    seed: u64,
    n: usize,
    me: &mut FleetNode,
    latest: &[Mutex<Version>],
    node: &Node,
    c: &Collector,
    sw: &mut Stopwatch,
) -> Result<f64, String> {
    let v = me.next_version;
    me.next_version += 1;
    gen::perturb(&mut me.model, Update::Full, &mut Rng::stream(seed, &[4, n as u64, v]));
    let digest = gen::digest(&me.model);
    let base = me.lineage.last().expect("a node has a root").clone();
    let (report, saved) = sw.time(|| {
        save(c, node, SaveRequest::full(&me.model).base(&base).relation("fully_updated"))
    })?;
    me.lineage.push(report.id.clone());
    let lineage = me.lineage.clone();
    *latest[n].lock().expect("latest lock poisoned") =
        Version { id: report.id, digest, approach: ApproachKind::Baseline, lineage };
    let target = latest[(n + 1) % latest.len()].lock().expect("latest lock poisoned").clone();
    let recovered = sw.time(|| recover(c, node, &target.id, target.digest, target.approach))?;
    Ok(saved.ms() + recovered.ms())
}

// ---- the measured phase ---------------------------------------------------

/// Counters read before and after a measured phase.
struct Probe {
    at: Instant,
    net: NetSnapshot,
    server_cpu_ms: f64,
    server_io: (u64, u64),
    client_cpu_ms: f64,
    disk: u64,
    wire: u64,
    hash_bytes: u64,
    hash_sub_s: [f64; 3],
}

fn probe(stack: &Stack) -> Result<Probe, String> {
    let pid = Some(stack.server.pid);
    let io = |e: std::io::Error| format!("/proc: {e}");
    let net = NetSnapshot::take(&stack.remote)?;
    let mut hash_sub_s = [0.0; 3];
    for node in &stack.nodes {
        for (i, phase) in mmlib_core::hash_cache::HASH_SUBPHASES.iter().enumerate() {
            hash_sub_s[i] +=
                node.recorder.histogram_sum("mmlib_save_phase_seconds", Some(("phase", phase)));
        }
    }
    Ok(Probe {
        net,
        server_cpu_ms: procfs::cpu_ms(pid).map_err(io)?,
        server_io: procfs::io_writes(pid).map_err(io)?,
        client_cpu_ms: procfs::cpu_ms(None).map_err(io)?,
        disk: procfs::disk_usage(&stack.server.store).map_err(io)?,
        wire: stack.remote.wire_bytes_out() + stack.remote.wire_bytes_in(),
        hash_bytes: mmlib_obs::recorder().counter_value("mmlib_tensor_hash_bytes_total", None),
        hash_sub_s,
        at: Instant::now(),
    })
}

/// Counter growth summed over the measured stretches of a phase.
#[derive(Default)]
struct Delta {
    storage_requests: u64,
    /// Server time (ms) and requests per storage opcode.
    exec: HashMap<&'static str, (f64, u64)>,
    load_shed: u64,
    connections: u64,
    server_cpu_ms: f64,
    server_write_bytes: u64,
    server_write_calls: u64,
    client_cpu_ms: f64,
    disk: u64,
    wire: u64,
    hash_bytes: u64,
    hash_sub_ms: [f64; 3],
}

impl Delta {
    /// Adds the growth from probe `b` to probe `a`.
    fn add(&mut self, b: &Probe, a: &Probe) {
        self.storage_requests += a.net.storage_requests_since(&b.net);
        for op in server::STORAGE_OPCODES {
            let (ms, n) = a.net.exec_since(&b.net, op);
            let e = self.exec.entry(op).or_default();
            e.0 += ms;
            e.1 += n;
        }
        self.load_shed += a.net.load_shed.saturating_sub(b.net.load_shed);
        self.connections += a.net.connections.saturating_sub(b.net.connections);
        self.server_cpu_ms += a.server_cpu_ms - b.server_cpu_ms;
        self.server_write_bytes += a.server_io.0.saturating_sub(b.server_io.0);
        self.server_write_calls += a.server_io.1.saturating_sub(b.server_io.1);
        self.client_cpu_ms += a.client_cpu_ms - b.client_cpu_ms;
        self.disk += a.disk.saturating_sub(b.disk);
        self.wire += a.wire.saturating_sub(b.wire);
        self.hash_bytes += a.hash_bytes.saturating_sub(b.hash_bytes);
        for i in 0..3 {
            self.hash_sub_ms[i] += (a.hash_sub_s[i] - b.hash_sub_s[i]) * 1e3;
        }
    }
}

/// What one measured phase produced.
struct Phase {
    delta: Delta,
    /// Measured wall time, rollovers excluded.
    wall_s: f64,
    ops: Vec<OpRec>,
    steps: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    changed_bytes_per_save: f64,
}

fn measure(args: &Args, setup: &mut Setup, seconds: f64, traced: bool) -> Result<Phase, String> {
    let c = Collector::default();
    let stack = &setup.stack;
    if let Some(t) = &stack.timed {
        t.set_recording(traced);
    }
    // Pua-chain rollovers split the phase into measured stretches; the
    // counters are summed over the stretches and the deadline moves out by
    // the time the rollovers took.
    let rollovers = Collector::default();
    let mut delta = Delta::default();
    let mut start = probe(stack)?;
    let phase_start = start.at;
    let mut excluded = Duration::ZERO;
    let mut deadline = start.at + Duration::from_secs_f64(seconds);
    let mut changed_bytes_per_save = 0.0;
    let step_result = |r: Result<f64, String>| {
        if let Ok(ms) = r {
            c.lock().steps.push(ms);
        }
    };
    match &mut setup.state {
        State::Pua(chain) => {
            let node = &stack.nodes[0];
            while Instant::now() < deadline {
                if chain.lineage.len() >= PUA_CHAIN_CAP {
                    let stop = Instant::now();
                    delta.add(&start, &probe(stack)?);
                    pua_rollover(chain, node, &rollovers)?;
                    start = probe(stack)?;
                    excluded += start.at - stop;
                    deadline += start.at - stop;
                    continue;
                }
                step_result(pua_step(args.seed, chain, node, &c, &mut Stopwatch::default()));
            }
            changed_bytes_per_save = chain.changed_bytes as f64;
        }
        State::Zipf(pop) => {
            let pop = &*pop;
            std::thread::scope(|s| {
                for (i, node) in stack.nodes.iter().enumerate() {
                    let (c, step_result) = (&c, &step_result);
                    s.spawn(move || {
                        let rng = Rng::stream(args.seed, &[5, i as u64, u64::from(traced)]);
                        let mut stream = gen::ZipfStream::new(pop.versions.len(), rng);
                        while Instant::now() < deadline {
                            let v = &pop.versions[pop.ranked[stream.next_rank()]];
                            let r = recover(c, node, &v.id, v.digest, v.approach);
                            step_result(r.map(|span| span.ms()));
                        }
                    });
                }
            });
        }
        State::Fleet(fleet) => {
            let latest = &fleet.latest;
            std::thread::scope(|s| {
                for (n, (me, node)) in fleet.nodes.iter_mut().zip(&stack.nodes).enumerate() {
                    let (c, step_result) = (&c, &step_result);
                    s.spawn(move || {
                        while Instant::now() < deadline {
                            let mut sw = Stopwatch::default();
                            step_result(fleet_step(args.seed, n, me, latest, node, c, &mut sw));
                        }
                    });
                }
            });
        }
    }
    let stop = Instant::now();
    delta.add(&start, &probe(stack)?);
    let tally = c.into_tally();
    let rolled = rollovers.into_tally();
    Ok(Phase {
        delta,
        wall_s: (stop - phase_start - excluded).as_secs_f64(),
        ops: tally.ops,
        steps: tally.steps,
        attempted: tally.attempted + rolled.attempted,
        failed: tally.failed + rolled.failed,
        errors: tally.errors.into_iter().chain(rolled.errors).collect(),
        changed_bytes_per_save,
    })
}

// ---- end-of-run checks ----------------------------------------------------

/// Recovers the heads and a seeded sample of versions and checks the
/// server's lineage of each head.
fn final_checks(args: &Args, setup: &Setup, c: &Collector) {
    let stack = &setup.stack;
    let node = &stack.nodes[0];
    let mut rng = Rng::stream(args.seed, &[6]);
    let check = |v: &Version| {
        let _ = recover(c, node, &v.id, v.digest, v.approach);
    };
    match &setup.state {
        State::Pua(chain) => {
            let head = chain.versions.last().expect("a chain has versions");
            check(head);
            for _ in 0..FINAL_SAMPLES {
                check(&chain.versions[rng.below(chain.versions.len())]);
            }
            check_lineage(c, &stack.remote, &head.id, &chain.lineage);
        }
        State::Zipf(pop) => {
            for _ in 0..FINAL_SAMPLES {
                check(&pop.versions[rng.below(pop.versions.len())]);
            }
            for v in &pop.versions {
                check_lineage(c, &stack.remote, &v.id, &v.lineage);
            }
        }
        State::Fleet(fleet) => {
            for latest in &fleet.latest {
                let v = latest.lock().expect("latest lock poisoned").clone();
                check(&v);
                check_lineage(c, &stack.remote, &v.id, &v.lineage);
            }
        }
    }
}

// ---- metrics --------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric { name: name.to_string(), value, unit });
}

fn phase_mean(ops: &[&OpRec], phase: &str) -> f64 {
    gen::mean(
        &ops.iter()
            .map(|o| o.phases.iter().filter(|(p, _)| *p == phase).map(|(_, d)| d).sum())
            .collect::<Vec<f64>>(),
    )
}

fn other_mean(ops: &[&OpRec]) -> f64 {
    gen::mean(
        &ops.iter()
            .map(|o| o.span.ms() - o.phases.iter().map(|(_, d)| d).sum::<f64>())
            .collect::<Vec<f64>>(),
    )
}

/// `num / den`, or 0 when there is nothing to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn kind_ops(phase: &Phase, kind: OpKind) -> Vec<&OpRec> {
    phase.ops.iter().filter(|o| o.span.kind == kind).collect()
}

/// Per-op-type latencies: save and recover p50 and p90, and the recover
/// p50 of each approach.
fn latency_summary(phase: &Phase) -> String {
    let mut parts = Vec::new();
    for approach in ApproachKind::all() {
        let v: Vec<f64> = kind_ops(phase, OpKind::Recover)
            .iter()
            .filter(|o| o.approach == Some(approach))
            .map(|o| o.span.ms())
            .collect();
        if !v.is_empty() {
            parts.push(format!(
                "recover_ms_p50.{}={:.3} ms (n={})",
                approach.abbrev(),
                gen::median(&v),
                v.len()
            ));
        }
    }
    for kind in [OpKind::Save, OpKind::Recover] {
        let v: Vec<f64> = kind_ops(phase, kind).iter().map(|o| o.span.ms()).collect();
        if !v.is_empty() {
            parts.push(format!(
                "{k}_ms_p50={:.3} ms {k}_ms_p90={} (n={})",
                gen::median(&v),
                p90(&v).map_or("n/a".to_string(), |x| format!("{x:.3} ms")),
                v.len(),
                k = kind.name()
            ));
        }
    }
    parts.join(" ")
}

/// The 90th percentile, reported only with at least ten samples beyond it.
fn p90(v: &[f64]) -> Option<f64> {
    (v.len() >= 100).then(|| gen::quantile(v, 0.9))
}

fn end_to_end(
    setup_s: f64,
    phase: &Phase,
    population: Option<(u64, u64)>,
    rss: (f64, f64),
) -> Vec<Metric> {
    let mut out = Vec::new();
    let done = phase.ops.len() as f64;
    let storage = match population {
        Some((bytes, saves)) => per(bytes as f64, saves as f64),
        None => per(phase.delta.disk as f64, kind_ops(phase, OpKind::Save).len() as f64),
    };
    metric(&mut out, "setup_s", setup_s, "s");
    metric(&mut out, "step_ms_p50", gen::median(&phase.steps), "ms");
    metric(&mut out, "step_ms_p80", gen::quantile(&phase.steps, 0.8), "ms");
    metric(&mut out, "ops_per_s", per(done, phase.wall_s), "1/s");
    metric(&mut out, "storage_bytes_per_save", storage, "bytes");
    metric(&mut out, "client_peak_rss_mb", rss.0, "MB");
    metric(&mut out, "server_peak_rss_mb", rss.1, "MB");
    out
}

fn per_layer(phase: &Phase, calls: &[Call], untraced: &Phase) -> Vec<Metric> {
    let mut out = Vec::new();
    let saves = kind_ops(phase, OpKind::Save);
    let recovers = kind_ops(phase, OpKind::Recover);
    let (ns, nr) = (saves.len() as f64, recovers.len() as f64);
    let nops = ns + nr;
    let d = &phase.delta;

    // core: reported phases and the node recorders' hash sub-phases.
    for p in ["hash", "diff", "serialize", "write"] {
        metric(&mut out, &format!("core.save.{p}_ms"), phase_mean(&saves, p), "ms");
    }
    for (i, p) in mmlib_core::hash_cache::HASH_SUBPHASES.iter().enumerate() {
        metric(&mut out, &format!("core.save.{p}_ms"), per(d.hash_sub_ms[i], ns), "ms");
    }
    metric(&mut out, "core.save.other_ms", other_mean(&saves), "ms");
    for p in ["fetch", "check_env", "verify"] {
        metric(&mut out, &format!("core.recover.{p}_ms"), phase_mean(&recovers, p), "ms");
    }
    for (label, approach) in [
        ("ba", ApproachKind::Baseline),
        ("pua", ApproachKind::ParamUpdate),
        ("mpa", ApproachKind::Provenance),
    ] {
        let of: Vec<&OpRec> =
            recovers.iter().copied().filter(|o| o.approach == Some(approach)).collect();
        metric(
            &mut out,
            &format!("core.recover.rebuild_ms.{label}"),
            phase_mean(&of, "rebuild"),
            "ms",
        );
    }
    metric(
        &mut out,
        "core.recover.chain_len",
        gen::mean(&recovers.iter().map(|o| o.chain_len).collect::<Vec<f64>>()),
        "count",
    );
    metric(&mut out, "core.recover.other_ms", other_mean(&recovers), "ms");

    // tensor: the client's process-wide hash counter. Saves and recovers
    // run concurrently on fleet-mixed, so only single-kind phases split it.
    let hashed = d.hash_bytes as f64;
    let only_saves = nr == 0.0;
    let only_recovers = ns == 0.0;
    metric(
        &mut out,
        "tensor.hash_bytes_per_save",
        if only_saves { per(hashed, ns) } else { 0.0 },
        "bytes",
    );
    metric(
        &mut out,
        "tensor.hash_bytes_per_changed_byte",
        if only_saves { per(per(hashed, ns), phase.changed_bytes_per_save) } else { 0.0 },
        "ratio",
    );
    metric(
        &mut out,
        "tensor.hash_bytes_per_recover",
        if only_recovers { per(hashed, nr) } else { 0.0 },
        "bytes",
    );
    metric(&mut out, "tensor.hash_bytes_per_op", per(hashed, nops), "bytes");

    // store: the timing wrapper's calls, split by the op that caused them.
    let kind_of: HashMap<u64, OpKind> =
        phase.ops.iter().map(|o| (o.span.op, o.span.kind)).collect();
    let mut by_kind = [(0.0f64, 0.0f64, 0.0f64); 2]; // (calls, ms, bytes)
    for call in calls {
        let slot = match kind_of[&call.op] {
            OpKind::Save => 0,
            OpKind::Recover => 1,
        };
        by_kind[slot].0 += 1.0;
        by_kind[slot].1 += (call.end_ns - call.start_ns) as f64 / 1e6;
        by_kind[slot].2 += if slot == 0 { call.bytes_out } else { call.bytes_in } as f64;
    }
    metric(&mut out, "store.calls_per_save", per(by_kind[0].0, ns), "count");
    metric(&mut out, "store.calls_per_recover", per(by_kind[1].0, nr), "count");
    metric(&mut out, "store.call_ms_per_save", per(by_kind[0].1, ns), "ms");
    metric(&mut out, "store.call_ms_per_recover", per(by_kind[1].1, nr), "ms");
    let op_ms: f64 = phase.ops.iter().map(|o| o.span.ms()).sum();
    let call_ms = by_kind[0].1 + by_kind[1].1;
    metric(&mut out, "store.client_self_ms_per_op", per(op_ms - call_ms, nops), "ms");
    for (m, name) in [
        (Method::PutFile, "store.put_file_ms"),
        (Method::GetFile, "store.get_file_ms"),
        (Method::InsertDoc, "store.insert_doc_ms"),
        (Method::GetDoc, "store.get_doc_ms"),
        (Method::CommitBatch, "store.commit_batch_ms"),
    ] {
        let v: Vec<f64> = calls
            .iter()
            .filter(|c| c.method == m)
            .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
            .collect();
        metric(&mut out, name, if v.is_empty() { 0.0 } else { gen::median(&v) }, "ms");
    }
    metric(&mut out, "store.bytes_written_per_save", per(by_kind[0].2, ns), "bytes");
    metric(&mut out, "store.bytes_read_per_recover", per(by_kind[1].2, nr), "bytes");

    // net: server counters over the phase. A batch commit through the
    // remote backend is one request per item.
    let server_requests = d.storage_requests as f64;
    let client_requests: f64 = calls.iter().map(|c| c.items as f64).sum();
    metric(
        &mut out,
        "net.server_requests_per_save",
        if only_saves { per(server_requests, ns) } else { 0.0 },
        "count",
    );
    metric(
        &mut out,
        "net.server_requests_per_recover",
        if only_recovers { per(server_requests, nr) } else { 0.0 },
        "count",
    );
    metric(&mut out, "net.server_requests_per_op", per(server_requests, nops), "count");
    metric(&mut out, "net.retries", server_requests - client_requests, "count");
    metric(&mut out, "net.load_shed", d.load_shed as f64, "count");
    metric(&mut out, "net.connections_opened", d.connections as f64, "count");
    let exec_ms: f64 = d.exec.values().map(|(ms, _)| ms).sum();
    for op in ["file_put", "file_get", "doc_insert", "doc_get"] {
        let (total, n) = d.exec.get(op).copied().unwrap_or_default();
        metric(&mut out, &format!("net.server_exec_ms.{op}"), per(total, n as f64), "ms");
    }
    metric(&mut out, "net.transport_ms_per_op", per(call_ms - exec_ms, nops), "ms");
    let payload: f64 = calls.iter().map(|c| (c.bytes_out + c.bytes_in) as f64).sum();
    metric(&mut out, "net.wire_bytes_per_payload_byte", per(d.wire as f64, payload), "ratio");

    // server and client processes.
    metric(&mut out, "server.cpu_ms_per_op", per(d.server_cpu_ms, nops), "ms");
    metric(
        &mut out,
        "server.disk_write_bytes_per_save",
        per(d.server_write_bytes as f64, ns),
        "bytes",
    );
    metric(
        &mut out,
        "server.write_syscalls_per_save",
        per(d.server_write_calls as f64, ns),
        "count",
    );
    metric(&mut out, "client.cpu_ms_per_op", per(d.client_cpu_ms, nops), "ms");

    let traced_p50 = gen::median(&phase.steps);
    let untraced_p50 = gen::median(&untraced.steps);
    metric(
        &mut out,
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "pct",
    );
    out
}

// ---- entry point ---------------------------------------------------------

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args, run_dir: &Path) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    server::check_server_binary(&args.server_bin)?;
    println!(
        "perfbench config {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"server_flags\": {:?}, \"nproc\": {}, \"pool_size\": {POOL_SIZE}, \"clients\": {}, \
         \"setup_repeats\": {SETUP_REPEATS}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        server::SERVE_ARGS,
        nproc(),
        args.workload.clients()
    );
    let gen_start = Instant::now();
    let trained = match args.workload {
        Workload::RecoverZipf => train_children(args.seed),
        _ => Vec::new(),
    };
    println!("perfbench input generation took {:.3} s", gen_start.elapsed().as_secs_f64());
    let log = args.trace.then(CallLog::new);
    let setup_c = Collector::default();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let dir = run_dir.join(format!("store-{i}"));
        let s = setup(args, &dir, log.as_ref(), &trained, &setup_c)?;
        setup_times.push(s.seconds);
        if i + 1 == SETUP_REPEATS {
            kept = Some(s);
        } else {
            drop(s);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let mut s = kept.expect("at least one set-up");
    let setup_s = gen::median(&setup_times);
    let pid = Some(s.stack.server.pid);
    let io = |e: std::io::Error| format!("/proc: {e}");
    procfs::reset_peak_rss(None).map_err(io)?;
    procfs::reset_peak_rss(pid).map_err(io)?;

    let (metrics, phases) = if args.trace {
        let untraced = measure(args, &mut s, args.seconds / 2.0, false)?;
        let traced = measure(args, &mut s, args.seconds / 2.0, true)?;
        if let Some(t) = &s.stack.timed {
            t.set_recording(false);
        }
        // Calls of the measured ops only: pua-chain rollovers are left out.
        let spans: Vec<OpSpan> = traced.ops.iter().map(|o| o.span.clone()).collect();
        let measured: HashSet<u64> = spans.iter().map(|s| s.op).collect();
        let log = log.as_ref().expect("traced runs have a call log");
        let calls: Vec<Call> =
            log.calls().into_iter().filter(|c| measured.contains(&c.op)).collect();
        let violations = trace::attribution_violations(&spans, &calls);
        if let Some((op, child, total)) = violations.first() {
            return Err(format!(
                "attribution: {} op(s) have child spans beyond their op span (op {op}: {child:.3} ms of {total:.3} ms)",
                violations.len()
            ));
        }
        let path = args.work_dir.join("traces").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_jsonl(&path, &spans, &calls).map_err(|e| format!("write trace: {e}"))?;
        println!("perfbench trace written to {}", path.display());
        (per_layer(&traced, &calls, &untraced), vec![untraced, traced])
    } else {
        let phase = measure(args, &mut s, args.seconds, false)?;
        let rss = (
            procfs::peak_rss_bytes(None).map_err(io)? as f64 / 1e6,
            procfs::peak_rss_bytes(pid).map_err(io)? as f64 / 1e6,
        );
        (end_to_end(setup_s, &phase, s.population, rss), vec![phase])
    };
    let phase = phases.last().expect("at least one measured phase");
    println!(
        "perfbench samples steps={} {} wall_s={:.3} setup_s_each={:?}",
        phase.steps.len(),
        latency_summary(phase),
        phase.wall_s,
        setup_times
    );
    if args.trace {
        for kind in [OpKind::Save, OpKind::Recover] {
            let ops = kind_ops(phase, kind);
            if ops.is_empty() {
                continue;
            }
            let gap = other_mean(&ops);
            let mean_ms = gen::mean(&ops.iter().map(|o| o.span.ms()).collect::<Vec<f64>>());
            let eps = ATTRIBUTION_EPS_MS.max(ATTRIBUTION_EPS_SHARE * mean_ms);
            println!(
                "perfbench attribution core.{}.other_ms={gap:.3} ms of {mean_ms:.3} ms per op, \
                 epsilon {eps:.3} ms: {}",
                kind.name(),
                if gap.abs() <= eps { "within" } else { "OUTSIDE" }
            );
        }
    }

    let checks = Collector::default();
    let check_start = Instant::now();
    final_checks(args, &s, &checks);
    println!("perfbench final checks took {:.3} s", check_start.elapsed().as_secs_f64());
    let t = checks.into_tally();
    let setup_t = setup_c.into_tally();
    let mut attempted = setup_t.attempted + t.attempted;
    let mut failed = setup_t.failed + t.failed;
    let mut errors = setup_t.errors;
    for p in &phases {
        attempted += p.attempted;
        failed += p.failed;
        errors.extend(p.errors.iter().cloned());
    }
    errors.extend(t.errors);
    Ok((metrics, attempted, failed, errors))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Ok((metrics, ..)) = &result {
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            eprintln!("perfbench: metric {} has no value (no op completed)", m.name);
            std::process::exit(1);
        }
    }
    match result {
        Ok((metrics, attempted, failed, errors)) => {
            for e in &errors {
                eprintln!("perfbench: {e}");
            }
            let body: Vec<String> = metrics
                .iter()
                .map(|m| {
                    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
                })
                .collect();
            println!(
                "perfbench failed_ops_ratio={} ({failed} of {attempted} ops)",
                failed as f64 / attempted as f64
            );
            let correct = failed == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                body.join(", ")
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
