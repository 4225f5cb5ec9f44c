//! Process measurements read from `/proc/<pid>`: peak memory, CPU time and
//! I/O counters, plus resetting the peak.

use std::io;
use std::path::Path;

/// `/proc/<pid>` of a process, or of this process when `pid` is `None`.
fn proc_file(pid: Option<u32>, name: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    }
}

/// Peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes(pid: Option<u32>) -> io::Result<u64> {
    let status = std::fs::read_to_string(proc_file(pid, "status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("VmHWM missing from /proc status"))
}

/// Resets the peak resident set size to the current one, so a later
/// [`peak_rss_bytes`] sees only what came after.
pub fn reset_peak_rss(pid: Option<u32>) -> io::Result<()> {
    std::fs::write(proc_file(pid, "clear_refs"), "5")
}

/// User plus system CPU time in milliseconds.
pub fn cpu_ms(pid: Option<u32>) -> io::Result<f64> {
    let stat = std::fs::read_to_string(proc_file(pid, "stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // USER_HZ is 100 on every Linux ABI.
    Ok((tick(11)? + tick(12)?) as f64 * 10.0)
}

/// The `write_bytes` and `syscw` counters of `/proc/<pid>/io`.
pub fn io_writes(pid: Option<u32>) -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string(proc_file(pid, "io"))?;
    let get = |key: &str| -> io::Result<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("{key} missing from /proc io")))
    };
    Ok((get("write_bytes:")?, get("syscw:")?))
}

/// Bytes allocated on disk under `dir`, counted file by file.
pub fn disk_usage(dir: &Path) -> io::Result<u64> {
    use std::os::unix::fs::MetadataExt;
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            // A file the server renames away mid-walk is simply skipped.
            let entry = entry?;
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.blocks() * 512;
            }
        }
    }
    Ok(total)
}
