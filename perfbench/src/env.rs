//! The environment header every run prints, and the host facts the
//! workloads depend on.

use std::path::{Path, PathBuf};

/// Where this process keeps its working files: a per-process directory
/// under `.perfbench_run/` in the current directory, removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.perfbench_run/<tag>-<pid>` (fresh).
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".perfbench_run").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = remove_dir_synced(&self.path);
        // the parent goes too once no other run uses it
        let _ = std::fs::remove_dir(".perfbench_run");
    }
}

/// Removes `dir` and waits until the filesystem has committed the removal.
/// On a filesystem mounted with online discard, freed blocks are
/// discarded at the next journal commit, which the next `fsync` would
/// otherwise wait for: committing here keeps that cost out of later
/// timed work.
pub fn remove_dir_synced(dir: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    sync_path(dir.parent().unwrap_or(Path::new(".")))
}

/// Flushes every file directly under `dir`, then `dir` itself, so a later
/// timed `fsync` does not also write this data back.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for e in std::fs::read_dir(dir)? {
        sync_path(&e?.path())?;
    }
    sync_path(dir)
}

fn sync_path(p: &Path) -> std::io::Result<()> {
    std::fs::File::open(p)?.sync_all()
}

/// Logical CPUs the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The filesystem type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix of the canonical path). `None` off Linux.
pub fn fs_type(path: &Path) -> Option<String> {
    let canon = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        let mnt = mnt.replace("\\040", " ");
        if canon.starts_with(&mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            best = Some((mnt.len(), ty.to_string()));
        }
    }
    best.map(|(_, ty)| ty)
}

/// The commit being measured: `git rev-parse HEAD` when the current
/// directory is a git checkout, else `unknown`.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the environment header: everything a reader needs to tell two
/// runs' conditions apart.
pub fn print_header(workload: &str, seed: u64, seconds: u64, trace: bool, run_dir: &Path) {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    println!("# perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}");
    println!(
        "# env nproc={} TSAD_THREADS={} effective_threads={} simd={} lane_width={} TSAD_OBS={} obs_enabled={}",
        nproc(),
        var("TSAD_THREADS"),
        tsad_parallel::current_threads(),
        tsad_core::simd::dispatch_name(),
        tsad_core::simd::lane_width(),
        var("TSAD_OBS"),
        tsad_obs::enabled(),
    );
    println!(
        "# env commit={} run_dir={} run_dir_fs={}",
        git_commit(),
        run_dir.display(),
        fs_type(run_dir).unwrap_or_else(|| "unknown".to_string()),
    );
}
