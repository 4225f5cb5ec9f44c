//! Fidelity of the timing wrapper: a save/recover flow through
//! `TimedBackend` must write the same bytes, pay the same sync operations and
//! recover the same models as the unwrapped flow, and the wrapper's call
//! counts must equal the calls it delegated.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mmlib_core::{RecoverOptions, SaveRequest, SaveService};
use mmlib_model::{ArchId, Model};
use mmlib_perfbench::gen::{self, Rng, Update};
use mmlib_perfbench::timed::{CallLog, Method, TimedBackend};
use mmlib_store::{
    BatchId, BatchItem, DocId, Document, FileId, ModelStorage, StorageBackend, StoreError,
};
use serde_json::{json, Value};

/// Counts every call it receives, by trait method name, and delegates it.
struct Counting {
    inner: Arc<dyn StorageBackend>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Counting {
    fn new(inner: Arc<dyn StorageBackend>) -> Arc<Counting> {
        Arc::new(Counting { inner, counts: Mutex::new(BTreeMap::new()) })
    }

    fn hit(&self, name: &'static str) {
        *self.counts.lock().unwrap().entry(name).or_default() += 1;
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.lock().unwrap().get(name).copied().unwrap_or(0)
    }
}

impl StorageBackend for Counting {
    fn insert_doc(&self, kind: &str, body: Value) -> Result<DocId, StoreError> {
        self.hit("insert_doc");
        self.inner.insert_doc(kind, body)
    }
    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.hit("get_doc");
        self.inner.get_doc(id)
    }
    fn update_doc(&self, id: &DocId, body: Value) -> Result<(), StoreError> {
        self.hit("update_doc");
        self.inner.update_doc(id, body)
    }
    fn contains_doc(&self, id: &DocId) -> bool {
        self.hit("contains_doc");
        self.inner.contains_doc(id)
    }
    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.hit("remove_doc");
        self.inner.remove_doc(id)
    }
    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.hit("doc_ids");
        self.inner.doc_ids()
    }
    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.hit("put_file");
        self.inner.put_file(bytes)
    }
    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.hit("get_file");
        self.inner.get_file(id)
    }
    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.hit("file_size");
        self.inner.file_size(id)
    }
    fn contains_file(&self, id: &FileId) -> bool {
        self.hit("contains_file");
        self.inner.contains_file(id)
    }
    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.hit("remove_file");
        self.inner.remove_file(id)
    }
    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.hit("file_ids");
        self.inner.file_ids()
    }
    fn bytes_written(&self) -> u64 {
        self.hit("bytes_written");
        self.inner.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.hit("bytes_read");
        self.inner.bytes_read()
    }
    fn sync_ops(&self) -> u64 {
        self.hit("sync_ops");
        self.inner.sync_ops()
    }
    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        self.hit("commit_batch");
        self.inner.commit_batch(items)
    }
}

/// What a flow produced: per-save digests, stored bytes per save, recovered
/// digests, and the storage's byte and sync totals.
#[derive(Debug, PartialEq)]
struct Outcome {
    saved: Vec<u64>,
    save_bytes: Vec<u64>,
    recovered: Vec<u64>,
    bytes_written: u64,
    bytes_read: u64,
    sync_ops: u64,
}

/// A BA root, two PUA partial updates and a BA full update with a base,
/// then a recover of every version.
fn flow(storage: ModelStorage) -> Outcome {
    let svc = SaveService::new(storage);
    let mut model = Model::new_initialized(ArchId::TinyCnn, 7);
    let mut rng = Rng::new(11);
    let mut ids: Vec<mmlib_core::SavedModelId> = Vec::new();
    let mut saved = Vec::new();
    let mut save_bytes = Vec::new();
    for step in 0..4 {
        let report = match step {
            0 => svc.save(SaveRequest::full(&model)).unwrap(),
            1 | 2 => {
                gen::perturb(&mut model, Update::Classifier, &mut rng);
                svc.save(SaveRequest::update(&model, ids.last().unwrap())).unwrap()
            }
            _ => {
                gen::perturb(&mut model, Update::Full, &mut rng);
                let req = SaveRequest::full(&model).base(ids.last().unwrap());
                svc.save(req.relation("fully_updated")).unwrap()
            }
        };
        save_bytes.push(report.storage_bytes);
        saved.push(gen::digest(&model));
        ids.push(report.id);
    }
    let recovered = ids
        .iter()
        .map(|id| gen::digest(&svc.recover_report(id, RecoverOptions::default()).unwrap().model))
        .collect();
    let storage = svc.storage();
    Outcome {
        saved,
        save_bytes,
        recovered,
        bytes_written: storage.bytes_written(),
        bytes_read: storage.bytes_read(),
        sync_ops: storage.sync_ops(),
    }
}

#[test]
fn wrapped_flow_matches_unwrapped_flow() {
    let plain_dir = tempfile::tempdir().unwrap();
    let plain = flow(ModelStorage::open(plain_dir.path()).unwrap());
    assert_eq!(plain.saved, plain.recovered, "the unwrapped flow recovers what it saved");
    assert!(plain.sync_ops > 0, "a local store pays sync operations");

    let wrapped_dir = tempfile::tempdir().unwrap();
    let local = ModelStorage::open(wrapped_dir.path()).unwrap();
    let counting = Counting::new(local.backend());
    let log = CallLog::new();
    let timed = Arc::new(TimedBackend::new(counting.clone(), log.clone()));
    let wrapped = flow(ModelStorage::from_backend(timed, wrapped_dir.path()));

    assert_eq!(wrapped, plain, "bytes, sync ops and bit-exact results match");
    for m in Method::ALL {
        assert_eq!(log.count(m), counting.count(m.name()), "{} calls", m.name());
    }
    assert!(log.count(Method::CommitBatch) > 0, "saves commit through the wrapper's commit_batch");
    assert!(log.count(Method::GetFile) > 0, "recovers read files through the wrapper");
    assert_eq!(
        counting.count("insert_doc") + counting.count("put_file"),
        0,
        "every save write went through commit_batch, not the trait's per-item default"
    );
}

#[test]
fn every_method_is_delegated_exactly_once() {
    let dir = tempfile::tempdir().unwrap();
    let local = ModelStorage::open(dir.path()).unwrap();
    let counting = Counting::new(local.backend());
    let log = CallLog::new();
    let t = TimedBackend::new(counting.clone(), log.clone());

    let doc = t.insert_doc("k", json!({"a": 1})).unwrap();
    assert_eq!(t.get_doc(&doc).unwrap().body, json!({"a": 1}));
    t.update_doc(&doc, json!({"a": 2})).unwrap();
    assert!(t.contains_doc(&doc));
    assert_eq!(t.doc_ids().unwrap(), vec![doc.clone()]);
    t.remove_doc(&doc).unwrap();
    let file = t.put_file(b"abc").unwrap();
    assert_eq!(t.get_file(&file).unwrap(), b"abc");
    assert_eq!(t.file_size(&file).unwrap(), 3);
    assert!(t.contains_file(&file));
    assert_eq!(t.file_ids().unwrap(), vec![file.clone()]);
    t.remove_file(&file).unwrap();
    let ids = t.commit_batch(vec![BatchItem::File { bytes: b"xy".to_vec() }]).unwrap();
    assert_eq!(ids.len(), 1);
    assert_eq!(t.bytes_written(), local.bytes_written());
    assert_eq!(t.bytes_read(), local.bytes_read());
    assert_eq!(t.sync_ops(), local.sync_ops());

    for name in [
        "insert_doc",
        "get_doc",
        "update_doc",
        "contains_doc",
        "remove_doc",
        "doc_ids",
        "put_file",
        "get_file",
        "file_size",
        "contains_file",
        "remove_file",
        "file_ids",
        "commit_batch",
        "bytes_written",
        "bytes_read",
        "sync_ops",
    ] {
        assert_eq!(counting.count(name), 1, "{name} delegated once");
    }
    for m in Method::ALL {
        assert_eq!(log.count(m), 1, "{} logged once", m.name());
    }
    let calls = log.calls();
    let put = calls.iter().find(|c| c.method == Method::PutFile).unwrap();
    assert_eq!((put.bytes_out, put.items), (3, 1));
    let batch = calls.iter().find(|c| c.method == Method::CommitBatch).unwrap();
    assert_eq!((batch.bytes_out, batch.items), (2, 1));
    assert!(calls.iter().all(|c| c.end_ns >= c.start_ns));
}

#[test]
fn recording_off_still_delegates() {
    let dir = tempfile::tempdir().unwrap();
    let local = ModelStorage::open(dir.path()).unwrap();
    let counting = Counting::new(local.backend());
    let log = CallLog::new();
    let t = TimedBackend::new(counting.clone(), log.clone());
    t.set_recording(false);
    let file = t.put_file(b"abc").unwrap();
    assert_eq!(t.get_file(&file).unwrap(), b"abc");
    assert_eq!(counting.count("put_file") + counting.count("get_file"), 2);
    assert!(log.calls().is_empty());
}
