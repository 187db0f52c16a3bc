//! `wal` — durable-ingest cost and recovery fidelity (`BENCH_wal.json`).
//!
//! Measures what the write-ahead log charges the serving path under each
//! [`FsyncPolicy`] (append wall time, fsync count, bytes written,
//! allocations on the warm path) against real files, and proves the
//! recovery contract in the same document: a log with a deliberately torn
//! tail must recover to a **bitwise-identical** fleet state over the
//! surviving prefix. In `BENCH_wal.json` the median append wall is gated
//! at [`Gate::WALL`] for the fsync-free policy only (fsync latency is
//! hardware, not code; those rows are `info`), while the allocation count
//! (`exact`), the recovery booleans (`must_be_true`), the replayed batch
//! count and the workload geometry (`exact`) are contracts on every run.

use std::fmt::Write as _;

use tsad_faults::SplitMix64;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_stream::{FnFactory, StreamingGlobalZScore};
use tsad_wal::{recover, FsDir, FsyncPolicy, MemDir, Wal, WalConfig, WalDir};

use crate::gate::{Doc, Env, Gate};
use crate::harness::{allocs, observed, time};

/// Workload shape for the WAL measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalBenchConfig {
    /// Batches appended per policy in the timed loop.
    pub batches: u64,
    /// Points per batch.
    pub batch_points: usize,
    /// Segment size for the timed loop (small enough to exercise
    /// rotation, large enough that appends dominate).
    pub segment_bytes: u64,
}

impl WalBenchConfig {
    /// The committed-baseline shape (what `BENCH_wal.json` holds).
    pub fn ci() -> Self {
        Self {
            batches: 2_000,
            batch_points: 64,
            segment_bytes: 1 << 20,
        }
    }

    /// A fast shape for tests.
    pub fn smoke() -> Self {
        Self {
            batches: 100,
            batch_points: 16,
            segment_bytes: 16 * 1024,
        }
    }
}

/// One fsync policy's measured costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRow {
    /// Policy label (`per-batch`, `group`, `off`).
    pub policy: &'static str,
    /// Median append wall time per batch, nanoseconds.
    pub wall_ns_per_batch: u64,
    /// 99th-percentile append wall time per batch, nanoseconds.
    pub wall_p99_ns: u64,
    /// Points appended per second at that rate.
    pub points_per_sec: u64,
    /// fsync calls the whole run issued (appends + seals).
    pub fsyncs: u64,
    /// Bytes the log wrote (records + headers + seals).
    pub bytes_written: u64,
    /// Heap allocations per warm append window (contract: 0); `None`
    /// when the counting allocator is not installed in this process.
    pub allocs_per_batch: Option<u64>,
}

/// The recovery-fidelity half of the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCheck {
    /// Recovered fleet state is bitwise-equal to an uncrashed run over
    /// the surviving prefix.
    pub bitwise: bool,
    /// Batches the torn log still replays.
    pub replayed_batches: u64,
    /// Bytes recovery cut off the torn tail.
    pub truncated_bytes: u64,
    /// The scan reported the torn tail (repair, not refusal).
    pub torn_tail_truncated: bool,
}

/// Everything `BENCH_wal.json` holds.
#[derive(Debug, Clone)]
pub struct WalBench {
    /// Seed the workload values were generated from.
    pub seed: u64,
    /// Workload shape.
    pub cfg: WalBenchConfig,
    /// Where the run measured (seed, SIMD dispatch, threads).
    pub env: Env,
    /// One row per fsync policy.
    pub rows: Vec<PolicyRow>,
    /// Torn-tail recovery fidelity.
    pub recovery: RecoveryCheck,
    /// `wal.*` observability counters recorded during the run.
    pub obs: tsad_obs::Snapshot,
}

const FP: &str = "wal-bench-zscore-w4";

type ZFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_z(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn factory() -> ZFactory {
    FnFactory(spawn_z as fn(u64) -> StreamingGlobalZScore)
}

fn new_fleet() -> Fleet<ZFactory> {
    Fleet::new(
        factory(),
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
    )
}

/// Deterministic workload batch `i` as raw `(id, value)` pairs.
fn batch(rng: &mut SplitMix64, points: usize) -> Vec<(u64, f64)> {
    (0..points as u64)
        .map(|j| (j % 257, rng.next_f64() * 4.0 - 2.0))
        .collect()
}

/// The three policies a row is measured for.
fn policies() -> [(&'static str, FsyncPolicy); 3] {
    [
        ("per-batch", FsyncPolicy::PerBatch),
        (
            "group",
            FsyncPolicy::GroupCommit {
                batches: 8,
                max_pending_micros: 500,
            },
        ),
        ("off", FsyncPolicy::Off),
    ]
}

/// A unique scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tsad-wal-bench-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times one policy against real files and measures the warm append path.
fn measure_policy(
    seed: u64,
    cfg: &WalBenchConfig,
    label: &'static str,
    policy: FsyncPolicy,
) -> std::io::Result<PolicyRow> {
    let tmp = TempDir::new(label)?;
    let dir = FsDir::open(&tmp.0)?;
    let wal_cfg = WalConfig {
        segment_bytes: cfg.segment_bytes,
        policy,
        ..WalConfig::new(FP)
    };
    let mut wal = Wal::create(dir, wal_cfg).map_err(std::io::Error::other)?;
    let mut rng = SplitMix64::new(seed);

    // warm-up (16 appends: scratch buffers grow to their high-water
    // mark), then one sample per append
    let mut failed = None;
    let timing = time(16, cfg.batches as usize, &mut || {
        let b = batch(&mut rng, cfg.batch_points);
        if let Err(e) = wal.append(b.iter().copied()) {
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let points_per_sec = (cfg.batch_points as f64 * 1e9 / timing.median_ns.max(1) as f64).round();

    // the allocation window: warm appends only (the batch itself is
    // built outside the counted closure; rotation is excluded by
    // measuring far fewer bytes than one segment holds)
    let b = batch(&mut rng, cfg.batch_points);
    let allocs_per_batch = allocs(|| {
        for _ in 0..8 {
            wal.append(b.iter().copied()).expect("warm append");
        }
    });

    Ok(PolicyRow {
        policy: label,
        wall_ns_per_batch: timing.median_ns,
        wall_p99_ns: timing.p99_ns,
        points_per_sec: points_per_sec as u64,
        fsyncs: wal.fsyncs(),
        bytes_written: wal.bytes_written(),
        allocs_per_batch,
    })
}

/// Builds a log in memory, tears its tail mid-record, and checks that
/// recovery lands bitwise on an uncrashed prefix.
fn check_recovery(seed: u64, cfg: &WalBenchConfig) -> RecoveryCheck {
    let dir = MemDir::new();
    let wal_cfg = WalConfig {
        segment_bytes: 2048,
        ..WalConfig::new(FP)
    };
    let mut wal = Wal::create(dir.clone(), wal_cfg.clone()).expect("mem create");
    let mut rng = SplitMix64::new(seed);
    let n = 64u64;
    let points = cfg.batch_points.clamp(4, 64);

    // reference states: fleet checkpoint bytes after each prefix
    let mut refs = Vec::with_capacity(n as usize + 1);
    let mut fleet = new_fleet();
    let mut out = BatchOutput::new();
    refs.push(fleet.checkpoint().to_bytes());
    for _ in 0..n {
        let b = batch(&mut rng, points);
        wal.append(b.iter().copied()).expect("mem append");
        let converted: Vec<(SeriesId, f64)> = b.iter().map(|&(id, v)| (SeriesId(id), v)).collect();
        fleet.push_batch(&converted, &mut out);
        refs.push(fleet.checkpoint().to_bytes());
    }
    drop(wal);

    // tear the tail: cut 7 bytes off the last segment (always lands
    // inside the final record's digest trailer)
    let survivor = dir.survivor();
    let mut segs: Vec<String> = survivor
        .list()
        .expect("list")
        .into_iter()
        .filter(|f| f.starts_with("wal-"))
        .collect();
    segs.sort();
    let tail = segs.last().expect("at least one segment").clone();
    let mut bytes = survivor.file(&tail).expect("tail bytes");
    let cut = 7.min(bytes.len());
    bytes.truncate(bytes.len() - cut);
    survivor.put(&tail, bytes);

    let rec = match recover(&survivor, &wal_cfg) {
        Ok(rec) => rec,
        Err(_) => {
            return RecoveryCheck {
                bitwise: false,
                replayed_batches: 0,
                truncated_bytes: 0,
                torn_tail_truncated: false,
            }
        }
    };
    let mut fleet = new_fleet();
    for b in &rec.batches {
        let converted: Vec<(SeriesId, f64)> =
            b.points.iter().map(|&(id, v)| (SeriesId(id), v)).collect();
        fleet.push_batch(&converted, &mut out);
    }
    let replayed = rec.batches.len() as u64;
    let bitwise = replayed < n && fleet.checkpoint().to_bytes() == refs[replayed as usize];
    RecoveryCheck {
        bitwise,
        replayed_batches: replayed,
        truncated_bytes: rec.report.truncated_bytes,
        torn_tail_truncated: rec.report.torn_tail.is_some(),
    }
}

/// Runs the WAL measurement.
pub fn run(seed: u64, cfg: &WalBenchConfig) -> std::io::Result<WalBench> {
    let ((rows, recovery), obs) = observed(|| {
        let rows = policies()
            .into_iter()
            .map(|(label, policy)| measure_policy(seed, cfg, label, policy))
            .collect::<std::io::Result<Vec<_>>>();
        (rows, check_recovery(seed, cfg))
    });
    Ok(WalBench {
        seed,
        cfg: *cfg,
        env: Env::current(seed),
        rows: rows?,
        recovery,
        obs,
    })
}

/// Renders the human-readable table (`repro -- wal`).
pub fn render(b: &WalBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WAL durability: {} batches x {} points, {} B segments (seed {})",
        b.cfg.batches, b.cfg.batch_points, b.cfg.segment_bytes, b.seed
    );
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>14} {:>8} {:>14} {:>12}",
        "policy", "ns/batch", "points/s", "fsyncs", "bytes", "allocs"
    );
    for r in &b.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>16} {:>14} {:>8} {:>14} {:>12}",
            r.policy,
            r.wall_ns_per_batch,
            r.points_per_sec,
            r.fsyncs,
            r.bytes_written,
            r.allocs_per_batch
                .map_or_else(|| "not measured".to_string(), |a| a.to_string()),
        );
    }
    let _ = writeln!(
        out,
        "recovery: bitwise={} replayed={} truncated_bytes={} torn_tail={}",
        b.recovery.bitwise,
        b.recovery.replayed_batches,
        b.recovery.truncated_bytes,
        b.recovery.torn_tail_truncated
    );
    out
}

/// The `BENCH_wal.json` rows.
pub fn to_doc(b: &WalBench) -> Doc {
    let mut doc = Doc::new("wal", b.env.clone());
    let c = &b.cfg;
    doc.push("geometry", "batches", "batches", c.batches, Gate::Exact);
    let points = c.batch_points as u64;
    doc.push("geometry", "batch_points", "points", points, Gate::Exact);
    let seg = c.segment_bytes;
    doc.push("geometry", "segment_bytes", "B", seg, Gate::Exact);
    for r in &b.rows {
        // fsync-bound rows measure the runner's disk, not the code
        let wall = if r.policy == "off" {
            Gate::WALL
        } else {
            Gate::Info
        };
        let p = r.policy;
        doc.push(p, "wall_ns_per_batch", "ns", r.wall_ns_per_batch, wall);
        doc.push(p, "wall_p99_ns", "ns", r.wall_p99_ns, Gate::Info);
        let pps = r.points_per_sec;
        doc.push(p, "points_per_sec", "points/s", pps, Gate::Info);
        doc.push(p, "fsyncs", "fsyncs", r.fsyncs, Gate::Info);
        doc.push(p, "bytes_written", "B", r.bytes_written, Gate::Info);
        let allocs = r.allocs_per_batch;
        doc.push(p, "allocs_per_batch", "allocs", allocs, Gate::Exact);
    }
    let rec = &b.recovery;
    doc.push("recovery", "bitwise", "bool", rec.bitwise, Gate::MustBeTrue);
    let torn = rec.torn_tail_truncated;
    let metric = "torn_tail_truncated";
    doc.push("recovery", metric, "bool", torn, Gate::MustBeTrue);
    let n = rec.replayed_batches;
    doc.push("recovery", "replayed_batches", "batches", n, Gate::Exact);
    let cut = rec.truncated_bytes;
    doc.push("recovery", "truncated_bytes", "B", cut, Gate::Info);
    doc.obs.push(("run".to_string(), b.obs.clone()));
    doc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One smoke run shared by the tests that only read it.
    pub(crate) fn smoke() -> &'static WalBench {
        static RUN: OnceLock<WalBench> = OnceLock::new();
        RUN.get_or_init(|| run(7, &WalBenchConfig::smoke()).expect("wal smoke run"))
    }

    #[test]
    fn the_smoke_run_holds_the_durability_contracts() {
        let b = smoke();
        assert_eq!(b.rows.len(), 3);
        // per-batch syncs at least once per append; off only on seals
        let per_batch = &b.rows[0];
        let off = &b.rows[2];
        assert!(per_batch.fsyncs >= b.cfg.batches);
        assert!(off.fsyncs < per_batch.fsyncs);
        assert!(per_batch.bytes_written > 0);
        assert!(per_batch.wall_ns_per_batch <= per_batch.wall_p99_ns);
        // recovery fidelity is not optional
        assert!(b.recovery.bitwise);
        assert!(b.recovery.torn_tail_truncated);
        assert!(b.recovery.truncated_bytes > 0);
        assert!(b.recovery.replayed_batches > 0);
    }

    #[test]
    fn the_json_document_parses_with_the_expected_shape() {
        let doc = Doc::parse(&to_doc(smoke()).render()).expect("valid json");
        assert_eq!(doc.suite, "wal");
        for policy in ["per-batch", "group", "off"] {
            assert!(doc.row(policy, "wall_ns_per_batch").is_some(), "{policy}");
            // without the counting allocator the alloc column is null
            let allocs = doc.row(policy, "allocs_per_batch").unwrap();
            assert_eq!(allocs.value, crate::minijson::JsonValue::Null);
        }
        let rec = |m: &str| doc.row("recovery", m).unwrap().value.as_bool();
        assert_eq!(rec("bitwise"), Some(true));
        assert_eq!(rec("torn_tail_truncated"), Some(true));
    }
}
