//! Process and host facts read from `/proc` (no libc crate is vendored):
//! CPU time, peak resident set, CPU model and flags, plus the toolchain
//! and commit that produced the binary.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on every Linux architecture this builds for).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, all threads, live and exited) consumed by
/// this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces: fields resume after
    // the last ')'. Field 3 is index 0 there, so utime (14) and stime
    // (15) are indices 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field") as f64;
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Facts that make two result records comparable: same host, same
/// thread setting, same toolchain, same commit.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub hec_threads: usize,
    pub cpu_model: String,
    pub cpu_flags: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostFacts {
    /// Collects the facts; `hec_threads` is the worker count the
    /// workload's passes run with.
    pub fn collect(hec_threads: usize) -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
                .unwrap_or_else(|| "unknown".into())
        };
        Self {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            hec_threads,
            cpu_model: field("model name"),
            cpu_flags: field("flags"),
            rustc: rustc_version(),
            git_commit: git_commit(),
        }
    }
}

/// `rustc --version` of the toolchain on `PATH` (the one cargo built
/// this binary with when run through `run.py`).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the repository root); `unknown` in an export without git metadata.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
