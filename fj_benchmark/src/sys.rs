//! What the benchmark reads from the operating system: process CPU
//! time, peak resident memory, and the header facts (cores, load, commit).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of every thread of this process, at
/// nanosecond resolution (`/proc/self/stat` only has 10 ms ticks, which
/// is 2% of a half-second window).
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size so far, in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// One header line: cores, 1-minute load average and the commit, so a
/// reader of a log can tell a loaded machine from a slow change.
pub fn header_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "n/a".to_string());
    format!(
        "# fj_benchmark nproc={nproc} load1={load} commit={}",
        git_commit()
    )
}

/// The checked-out commit, read from `.git` without starting a process;
/// `n/a` outside a git checkout (the driver's checkouts are not one).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "n/a".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .map(|s| s.trim().chars().take(12).collect())
        .unwrap_or_else(|_| reference.to_string())
}

/// A scratch directory under `fj_benchmark/out/`, named after the
/// process id and removed on drop. Nothing is written outside it apart
/// from the trace file beside it.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create() -> std::io::Result<Self> {
        // The counter keeps parallel in-process runs (the smoke tests)
        // out of each other's files.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `fj_benchmark/out/`, beside the package manifest whether the program
/// was started from the repository root (the driver) or from the package
/// directory (`cargo test`).
pub fn out_dir() -> PathBuf {
    let package = if Path::new("fj_benchmark/Cargo.toml").exists() {
        Path::new("fj_benchmark")
    } else {
        Path::new(".")
    };
    package.join("out")
}
