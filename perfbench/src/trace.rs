//! Spans recorded by the benchmark around its calls into the program.
//!
//! An op span covers one `SaveService::save` or `recover_report` call; the
//! store calls it causes (recorded by [`crate::timed::TimedBackend`]) are its
//! children, linked by the op id the calling thread sets here. Spans stay in
//! memory and are written out as JSON lines when the run ends.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde_json::json;

use crate::timed::Call;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the trace epoch to `t` (0 for instants before it).
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// A fresh op id (ids start at 1; 0 means "no op").
pub fn next_op() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The op the calling thread is running (0 = none).
pub fn current_op() -> u64 {
    CURRENT_OP.with(Cell::get)
}

/// Marks the calling thread as running `op` (0 clears it).
pub fn set_current_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// Kind of a benchmark op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Save,
    Recover,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Save => "save",
            OpKind::Recover => "recover",
        }
    }
}

/// One op span (a root span: it has no parent).
#[derive(Debug, Clone)]
pub struct OpSpan {
    pub op: u64,
    pub kind: OpKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl OpSpan {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Child store-call spans of one op whose summed duration exceeds the op
/// span, or which start before or end after it: `(op, children_ms, op_ms)`.
pub fn attribution_violations(ops: &[OpSpan], calls: &[Call]) -> Vec<(u64, f64, f64)> {
    let mut out = Vec::new();
    for op in ops {
        let mut sum = 0u64;
        let mut outside = false;
        for c in calls.iter().filter(|c| c.op == op.op) {
            sum += c.end_ns - c.start_ns;
            outside |= c.start_ns < op.start_ns || c.end_ns > op.end_ns;
        }
        if sum > op.end_ns - op.start_ns || outside {
            out.push((op.op, sum as f64 / 1e6, op.ms()));
        }
    }
    out
}

/// Writes every span as one JSON line: `name`, `start_ns`, `end_ns`,
/// `parent` (the op span's id, null for op spans) and `op`.
pub fn write_jsonl(path: &Path, ops: &[OpSpan], calls: &[Call]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in ops {
        let line = json!({
            "name": s.kind.name(), "start_ns": s.start_ns, "end_ns": s.end_ns,
            "parent": null, "op": s.op,
        });
        writeln!(out, "{line}")?;
    }
    for c in calls {
        let line = json!({
            "name": format!("store.{}", c.method.name()), "start_ns": c.start_ns,
            "end_ns": c.end_ns, "parent": c.op, "op": c.op,
        });
        writeln!(out, "{line}")?;
    }
    out.flush()
}
