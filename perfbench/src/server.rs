//! The `mmlib serve` child process: binary guard, spawn, stop, and the
//! server-side counters read over the wire.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::SystemTime;

use mmlib_net::RemoteStore;

/// Arguments after `--store <dir>`: the server's default flags, except an
/// ephemeral loopback port so concurrent runs never collide, and a lifetime
/// bound so a server orphaned by a killed benchmark still exits on its own.
pub const SERVE_ARGS: [&str; 5] = ["serve", "--addr", "127.0.0.1:0", "--for", "900"];

/// The storage opcodes `RemoteStore` issues for `StorageBackend` calls;
/// control traffic (stats, lineage, handshakes) is excluded.
pub const STORAGE_OPCODES: [&str; 12] = [
    "doc_insert",
    "doc_get",
    "doc_update",
    "doc_contains",
    "doc_remove",
    "doc_ids",
    "file_put",
    "file_get",
    "file_size",
    "file_contains",
    "file_remove",
    "file_ids",
];

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// Source files listed in a cargo dep-info file (`<binary>.d`).
fn dep_info_sources(text: &str) -> Vec<PathBuf> {
    let Some((_, deps)) = text.lines().next().and_then(|l| l.split_once(": ")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut current = String::new();
    let mut chars = deps.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => current.extend(chars.next()),
            ' ' => {
                if !current.is_empty() {
                    out.push(PathBuf::from(std::mem::take(&mut current)));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        out.push(PathBuf::from(current));
    }
    out
}

/// Refuses a server binary that is missing or stale.
///
/// Stale means older than a source file its cargo dep-info (`<bin>.d`)
/// lists. Without dep-info the binary must be at least as new as the
/// benchmark binary itself.
pub fn check_server_binary(bin: &Path) -> Result<(), String> {
    let rebuild = "build it with `cargo build --release -p mmlib-cli`";
    let Some(built) = mtime(bin) else {
        return Err(format!("ServerBinaryMissing: {} does not exist; {rebuild}", bin.display()));
    };
    match std::fs::read_to_string(bin.with_extension("d")) {
        Ok(text) => {
            for src in dep_info_sources(&text) {
                if mtime(&src).is_some_and(|t| t > built) {
                    return Err(format!(
                        "ServerBinaryStale: {} is older than its source {}; {rebuild}",
                        bin.display(),
                        src.display()
                    ));
                }
            }
        }
        Err(_) => {
            let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            if mtime(&me).is_some_and(|t| t > built) {
                return Err(format!(
                    "ServerBinaryStale: {} is older than the benchmark binary {}; {rebuild}",
                    bin.display(),
                    me.display()
                ));
            }
        }
    }
    Ok(())
}

/// A running `mmlib --store <dir> serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: u32,
    pub store: PathBuf,
}

impl Server {
    /// Starts the server on a fresh store directory and waits for its
    /// "serving ... on <addr>" line.
    pub fn spawn(bin: &Path, store: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(store).map_err(|e| format!("create {}: {e}", store.display()))?;
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(SERVE_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().rsplit_once(" on ").and_then(|(_, a)| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => {
                Ok(Server { child, _stdout: stdout, addr, pid, store: store.to_path_buf() })
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address (read {line:?})"))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Server counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct NetSnapshot {
    /// Requests served per opcode.
    pub requests: BTreeMap<String, u64>,
    pub load_shed: u64,
    pub connections: u64,
    /// `mmlib_net_request_seconds` per opcode: (sum in seconds, count).
    pub exec: BTreeMap<String, (f64, u64)>,
}

impl NetSnapshot {
    pub fn take(remote: &RemoteStore) -> Result<NetSnapshot, String> {
        let stats = remote.stats().map_err(|e| format!("stats: {e}"))?;
        let text = remote.server_stats_text().map_err(|e| format!("stats_text: {e}"))?;
        let mut exec: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("mmlib_net_request_seconds_") else {
                continue;
            };
            let Some((series, value)) = rest.split_once(' ') else {
                continue;
            };
            let Some((kind, labels)) = series.split_once("{opcode=\"") else {
                continue;
            };
            let opcode = labels.trim_end_matches("\"}").to_string();
            let entry = exec.entry(opcode).or_default();
            match kind {
                "sum" => entry.0 = value.parse().unwrap_or(0.0),
                "count" => entry.1 = value.parse().unwrap_or(0),
                _ => {}
            }
        }
        Ok(NetSnapshot {
            requests: stats.requests_by_opcode.into_iter().collect(),
            load_shed: stats.load_shed,
            connections: stats.connections,
            exec,
        })
    }

    /// Storage-opcode requests served since `before`.
    pub fn storage_requests_since(&self, before: &NetSnapshot) -> u64 {
        STORAGE_OPCODES
            .iter()
            .map(|op| {
                let now = self.requests.get(*op).copied().unwrap_or(0);
                now.saturating_sub(before.requests.get(*op).copied().unwrap_or(0))
            })
            .sum()
    }

    /// Server execution time (ms) and request count of `opcode` since
    /// `before`.
    pub fn exec_since(&self, before: &NetSnapshot, opcode: &str) -> (f64, u64) {
        let (s1, c1) = self.exec.get(opcode).copied().unwrap_or_default();
        let (s0, c0) = before.exec.get(opcode).copied().unwrap_or_default();
        ((s1 - s0) * 1e3, c1.saturating_sub(c0))
    }
}
