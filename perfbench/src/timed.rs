//! A [`StorageBackend`] that times and counts every call it delegates.
//!
//! The traced run installs it between `SaveService` and the remote backend
//! with `ModelStorage::from_backend`. Every trait method is forwarded to the
//! inner backend — `commit_batch` and `sync_ops` included — so the wrapped
//! stack issues exactly the calls, bytes and sync operations of the unwrapped
//! one (the fidelity test in `tests/timed_backend.rs` holds it to that).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mmlib_store::{BatchId, BatchItem, DocId, Document, FileId, StorageBackend, StoreError};
use serde_json::Value;

use crate::trace;

/// The storage operations a backend serves (the accounting getters
/// `bytes_written`, `bytes_read` and `sync_ops` are forwarded but not
/// counted: they do no I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Method {
    InsertDoc,
    GetDoc,
    UpdateDoc,
    ContainsDoc,
    RemoveDoc,
    DocIds,
    PutFile,
    GetFile,
    FileSize,
    ContainsFile,
    RemoveFile,
    FileIds,
    CommitBatch,
}

impl Method {
    /// Every method, in declaration order.
    pub const ALL: [Method; 13] = [
        Method::InsertDoc,
        Method::GetDoc,
        Method::UpdateDoc,
        Method::ContainsDoc,
        Method::RemoveDoc,
        Method::DocIds,
        Method::PutFile,
        Method::GetFile,
        Method::FileSize,
        Method::ContainsFile,
        Method::RemoveFile,
        Method::FileIds,
        Method::CommitBatch,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Method::InsertDoc => "insert_doc",
            Method::GetDoc => "get_doc",
            Method::UpdateDoc => "update_doc",
            Method::ContainsDoc => "contains_doc",
            Method::RemoveDoc => "remove_doc",
            Method::DocIds => "doc_ids",
            Method::PutFile => "put_file",
            Method::GetFile => "get_file",
            Method::FileSize => "file_size",
            Method::ContainsFile => "contains_file",
            Method::RemoveFile => "remove_file",
            Method::FileIds => "file_ids",
            Method::CommitBatch => "commit_batch",
        }
    }
}

/// One delegated call.
#[derive(Debug, Clone)]
pub struct Call {
    pub method: Method,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The benchmark op the calling thread was running (0 = none).
    pub op: u64,
    /// Payload bytes handed to the store (writes).
    pub bytes_out: u64,
    /// Payload bytes returned by the store (reads).
    pub bytes_in: u64,
    /// Items in a `commit_batch` (1 for every other method).
    pub items: u64,
}

/// Calls recorded by one or more [`TimedBackend`]s, kept in memory.
#[derive(Debug, Default)]
pub struct CallLog {
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    pub fn new() -> Arc<CallLog> {
        Arc::new(CallLog::default())
    }

    fn push(&self, call: Call) {
        self.calls.lock().expect("call log lock poisoned").push(call);
    }

    /// A copy of every call recorded so far.
    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("call log lock poisoned").clone()
    }

    /// Calls recorded per method.
    pub fn count(&self, method: Method) -> u64 {
        self.calls
            .lock()
            .expect("call log lock poisoned")
            .iter()
            .filter(|c| c.method == method)
            .count() as u64
    }
}

/// Times every delegated call into a shared [`CallLog`] while recording is
/// on; forwards without recording while it is off.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    log: Arc<CallLog>,
    recording: AtomicBool,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, log: Arc<CallLog>) -> TimedBackend {
        TimedBackend { inner, log, recording: AtomicBool::new(true) }
    }

    /// Turns recording on or off; delegation is unaffected.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn timed<T>(
        &self,
        method: Method,
        bytes_out: u64,
        items: u64,
        f: impl FnOnce() -> T,
        bytes_in: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.recording.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.log.push(Call {
            method,
            start_ns: trace::nanos(start),
            end_ns: trace::nanos(end),
            op: trace::current_op(),
            bytes_out,
            bytes_in: bytes_in(&out),
            items,
        });
        out
    }
}

fn json_len(v: &Value) -> u64 {
    serde_json::to_vec(v).map(|b| b.len() as u64).unwrap_or(0)
}

fn batch_len(items: &[BatchItem]) -> u64 {
    items
        .iter()
        .map(|item| match item {
            BatchItem::Doc { body, .. } => json_len(body),
            BatchItem::File { bytes } => bytes.len() as u64,
        })
        .sum()
}

fn none<T>(_: &T) -> u64 {
    0
}

impl StorageBackend for TimedBackend {
    fn insert_doc(&self, kind: &str, body: Value) -> Result<DocId, StoreError> {
        let n = if self.recording.load(Ordering::Relaxed) { json_len(&body) } else { 0 };
        self.timed(Method::InsertDoc, n, 1, || self.inner.insert_doc(kind, body), none)
    }

    fn get_doc(&self, id: &DocId) -> Result<Document, StoreError> {
        self.timed(
            Method::GetDoc,
            0,
            1,
            || self.inner.get_doc(id),
            |r| r.as_ref().map_or(0, |d| json_len(&d.body)),
        )
    }

    fn update_doc(&self, id: &DocId, body: Value) -> Result<(), StoreError> {
        let n = if self.recording.load(Ordering::Relaxed) { json_len(&body) } else { 0 };
        self.timed(Method::UpdateDoc, n, 1, || self.inner.update_doc(id, body), none)
    }

    fn contains_doc(&self, id: &DocId) -> bool {
        self.timed(Method::ContainsDoc, 0, 1, || self.inner.contains_doc(id), none)
    }

    fn remove_doc(&self, id: &DocId) -> Result<(), StoreError> {
        self.timed(Method::RemoveDoc, 0, 1, || self.inner.remove_doc(id), none)
    }

    fn doc_ids(&self) -> Result<Vec<DocId>, StoreError> {
        self.timed(Method::DocIds, 0, 1, || self.inner.doc_ids(), none)
    }

    fn put_file(&self, bytes: &[u8]) -> Result<FileId, StoreError> {
        self.timed(Method::PutFile, bytes.len() as u64, 1, || self.inner.put_file(bytes), none)
    }

    fn get_file(&self, id: &FileId) -> Result<Vec<u8>, StoreError> {
        self.timed(
            Method::GetFile,
            0,
            1,
            || self.inner.get_file(id),
            |r| r.as_ref().map_or(0, |b| b.len() as u64),
        )
    }

    fn file_size(&self, id: &FileId) -> Result<u64, StoreError> {
        self.timed(Method::FileSize, 0, 1, || self.inner.file_size(id), none)
    }

    fn contains_file(&self, id: &FileId) -> bool {
        self.timed(Method::ContainsFile, 0, 1, || self.inner.contains_file(id), none)
    }

    fn remove_file(&self, id: &FileId) -> Result<(), StoreError> {
        self.timed(Method::RemoveFile, 0, 1, || self.inner.remove_file(id), none)
    }

    fn file_ids(&self) -> Result<Vec<FileId>, StoreError> {
        self.timed(Method::FileIds, 0, 1, || self.inner.file_ids(), none)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn sync_ops(&self) -> u64 {
        self.inner.sync_ops()
    }

    fn commit_batch(&self, items: Vec<BatchItem>) -> Result<Vec<BatchId>, StoreError> {
        let (n, count) = if self.recording.load(Ordering::Relaxed) {
            (batch_len(&items), items.len() as u64)
        } else {
            (0, 0)
        };
        self.timed(Method::CommitBatch, n, count, || self.inner.commit_batch(items), none)
    }
}
