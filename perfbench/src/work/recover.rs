//! `recover-replay`: restart a durable engine from a fixed log —
//! `recover_engine` (scan, verify, restore the checkpoint, replay the
//! tail, resume the log) followed by one probe `Engine::submit`, on one
//! thread.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use tsad_fleet::{BatchOutput, FleetCheckpoint, SeriesId};
use tsad_ingest::{checkpoint_now, recover_engine, Engine, EngineConfig, RecoveredEngine};
use tsad_wal::{FsDir, FsyncPolicy, Wal, WalConfig};

use super::{factory, fleet, phases, repeated_setup, Factory};
use crate::layers::{ObsWindow, ParallelAcc};
use crate::load::{Fnv, Rng};
use crate::stats::{median, Summary, Waterfall};
use crate::{Args, Run};

/// Set-ups per run (each writes the whole log).
pub const SETUPS: usize = 5;
/// Series in the fleet.
pub const SERIES: u64 = 200_000;
/// Points per logged batch.
pub const BATCH: usize = 64;
/// Batches logged before the checkpoint, and again after it (the tail
/// recovery replays).
pub const TAIL: usize = 6_000;
/// Points per set-up batch that spawns every series.
const SPAWN_BATCH: u64 = 50_000;
/// Threads the workload runs at, set-up included. At two threads every
/// replayed batch pays one scoped thread spawn, and on a host with two
/// logical CPUs that cost moved the per-run median restart by 31 % between
/// back-to-back runs against 6 % at one thread. The per-batch fan-out
/// stays measured on `score-http-open`, where every request pays it.
pub const THREADS: usize = 1;

fn wal_config(policy: FsyncPolicy) -> WalConfig {
    use tsad_stream::DetectorFactory;
    WalConfig {
        policy,
        ..WalConfig::new(factory().fingerprint())
    }
}

fn fleet_config() -> tsad_fleet::FleetConfig {
    *fleet(SERIES).config()
}

/// The probe batch answered after every recovery.
fn probe(seed: u64) -> Vec<(SeriesId, f64)> {
    let mut rng = Rng::new(seed, 9);
    (0..BATCH)
        .map(|_| (SeriesId(rng.below(SERIES)), rng.value()))
        .collect()
}

/// The engine that writes the log.
type LogEngine = Engine<Factory, Mutex<Wal<FsDir>>>;

/// What set-up leaves behind: the log, and the reference fleet state.
struct Log {
    dir: PathBuf,
    /// Points appended to the log.
    points: u64,
    /// `Wal::bytes_written` of the writer.
    bytes: u64,
    /// The writer's fleet after the probe batch: digest and length of its
    /// checkpoint bytes.
    reference: (Fnv, usize),
    /// The writer's scores for the probe batch.
    probe_scores: Vec<u64>,
}

/// Set-up: writes the fixed log into `dir` — every series spawned, `TAIL`
/// batches, `checkpoint_now`, `TAIL` more batches — with `Off` and a
/// final `flush` (the log bytes do not depend on the policy).
fn write_log(dir: PathBuf, seed: u64) -> std::io::Result<(Log, LogEngine)> {
    let wal = Wal::create(FsDir::open(&dir)?, wal_config(FsyncPolicy::Off))
        .map_err(std::io::Error::other)?;
    let engine = Engine::with_log(fleet(SERIES), EngineConfig::default(), Mutex::new(wal));
    let mut rng = Rng::new(seed, 5);
    let mut out = BatchOutput::new();
    let mut timing = Default::default();
    let mut points = 0u64;
    let mut submit = |batch: &[(SeriesId, f64)]| -> std::io::Result<()> {
        points += batch.len() as u64;
        engine
            .submit(batch, &mut out, &mut timing)
            .map_err(|e| std::io::Error::other(format!("set-up batch refused: {e:?}")))
    };
    for lo in (0..SERIES).step_by(SPAWN_BATCH as usize) {
        let batch: Vec<(SeriesId, f64)> = (lo..(lo + SPAWN_BATCH).min(SERIES))
            .map(|id| (SeriesId(id), rng.value()))
            .collect();
        submit(&batch)?;
    }
    let mut batch = Vec::with_capacity(BATCH);
    for half in 0..2 {
        for _ in 0..TAIL {
            batch.clear();
            batch.extend((0..BATCH).map(|_| (SeriesId(rng.below(SERIES)), rng.value())));
            submit(&batch)?;
        }
        if half == 0 {
            checkpoint_now(&engine)?;
        }
    }
    let bytes = {
        let mut wal = engine.log().lock().expect("wal lock");
        wal.flush()?;
        wal.bytes_written()
    };
    let log = Log {
        dir,
        points,
        bytes,
        reference: (Fnv::default(), 0),
        probe_scores: Vec::new(),
    };
    Ok((log, engine))
}

/// Checkpoint bytes of `f`'s fleet: digest and length.
fn fleet_digest<L: tsad_ingest::BatchLog>(engine: &Engine<Factory, L>) -> (Fnv, usize) {
    let bytes = engine.with_fleet(|f| f.checkpoint().to_bytes());
    let mut d = Fnv::default();
    d.update(&bytes);
    (d, bytes.len())
}

/// Copies the log into `to` and flushes the copy to disk, so the timed
/// restart's own `fsync` does not write it back.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(to)?;
    let mut total = 0;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        total += std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    crate::env::sync_tree(to)?;
    Ok(total)
}

/// One timed restart: recover the engine from `dir`, answer the probe.
fn restart(
    dir: &Path,
    probe: &[(SeriesId, f64)],
) -> std::io::Result<(RecoveredEngine<Factory, FsDir>, BatchOutput, f64)> {
    let t = Instant::now();
    let rec = recover_engine(
        FsDir::open(dir)?,
        factory(),
        wal_config(FsyncPolicy::PerBatch),
        fleet_config(),
        EngineConfig::default(),
    )
    .map_err(std::io::Error::other)?;
    let mut out = BatchOutput::new();
    let mut timing = Default::default();
    rec.engine
        .submit(probe, &mut out, &mut timing)
        .map_err(|e| std::io::Error::other(format!("probe refused: {e:?}")))?;
    Ok((rec, out, t.elapsed().as_secs_f64()))
}

/// Runs the workload at [`THREADS`].
pub fn run(args: &Args, run_dir: &Path) -> std::io::Result<Run> {
    tsad_parallel::with_threads(THREADS, || measure(args, run_dir))
}

fn measure(args: &Args, run_dir: &Path) -> std::io::Result<Run> {
    let probe = probe(args.seed);
    let ((mut log, writer), setup_s) = repeated_setup(SETUPS, |i| {
        if i > 0 {
            crate::env::remove_dir_synced(&run_dir.join(format!("log-{}", i - 1)))?;
        }
        write_log(run_dir.join(format!("log-{i}")), args.seed)
    })?;
    // The reference: the writer's own fleet (built by direct application,
    // never restored) after the probe batch, applied without logging it.
    let mut out = BatchOutput::new();
    writer.with_fleet(|f| f.push_batch(&probe, &mut out));
    log.probe_scores = out.scores.iter().map(|s| s.score.to_bits()).collect();
    log.reference = fleet_digest(&writer);
    drop(writer);
    let tail_points = (TAIL * BATCH) as u64;

    let mut run = Run::default();
    let mut mismatches = 0u64;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut scan_s = Vec::new();
    let mut scan_mb_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut par = ParallelAcc::default();
    let (mut push_ns, mut pushed_points, mut bytes_per_series) = (0u64, 0u64, 0usize);
    let (mut fsyncs, mut fsync_ns) = (0u64, 0u64);
    let mut peak_rss = 0f64;
    let mut attempt = 0u64;
    for (traced, len) in phases(args.seconds, args.trace) {
        let deadline = Instant::now() + len;
        // at least one restart per phase, then as many as fit
        while attempt == 0 || Instant::now() < deadline || (traced && traced_s.is_empty()) {
            let work = run_dir.join(format!("work-{attempt}"));
            let log_bytes = copy_dir(&log.dir, &work)?;
            attempt += 1;
            run.attempted += 1;
            if traced {
                // the timed layer calls, each on its own pristine copy
                let t = Instant::now();
                let rec =
                    tsad_wal::recover(&FsDir::open(&work)?, &wal_config(FsyncPolicy::PerBatch))
                        .map_err(std::io::Error::other)?;
                let s = t.elapsed().as_secs_f64();
                scan_s.push(s);
                scan_mb_s.push(log_bytes as f64 / (1 << 20) as f64 / s);
                let mut f = fleet(SERIES);
                let t = Instant::now();
                if let Some((_, payload)) = &rec.checkpoint {
                    let ckpt =
                        FleetCheckpoint::from_bytes(payload).map_err(std::io::Error::other)?;
                    f.restore(&ckpt).map_err(std::io::Error::other)?;
                }
                restore_s.push(t.elapsed().as_secs_f64());
                bytes_per_series = f.bytes_per_series();
                let mut out = BatchOutput::new();
                let mut batch = Vec::with_capacity(BATCH);
                let mut w = ObsWindow::open();
                let t = Instant::now();
                for b in &rec.batches {
                    batch.clear();
                    batch.extend(b.points.iter().map(|&(id, v)| (SeriesId(id), v)));
                    f.push_batch(&batch, &mut out);
                }
                replay_s.push(t.elapsed().as_secs_f64());
                w.close();
                push_ns += w.hist("fleet.push_batch_ns").1;
                pushed_points += w.counter("fleet.points");
                drop((rec, f));
                crate::env::remove_dir_synced(&work)?;
                copy_dir(&log.dir, &work)?;
            }
            let mut w = traced.then(ObsWindow::open);
            let (rec, out, secs) = restart(&work, &probe)?;
            if let Some(w) = w.as_mut() {
                w.close();
                par.add(w, secs);
                let (n, ns) = w.hist("wal.fsync_ns");
                fsyncs += n;
                fsync_ns += ns;
            }
            peak_rss = peak_rss.max(crate::env::peak_rss_mb());
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(secs);
            // check outside the timed part
            let scores: Vec<u64> = out.scores.iter().map(|s| s.score.to_bits()).collect();
            if fleet_digest(&rec.engine) != log.reference
                || scores != log.probe_scores
                || rec.replayed_batches != TAIL as u64
            {
                mismatches += 1;
            }
            drop(rec);
            crate::env::remove_dir_synced(&work)?;
        }
    }
    crate::env::remove_dir_synced(&log.dir)?;

    run.failed = mismatches;
    run.check(
        "recovered_fleet_matches_reference",
        mismatches == 0,
        format!(
            "{} restarts vs the writer's fleet ({} checkpoint bytes), its probe scores and {TAIL} tail batches; {mismatches} mismatched",
            run.attempted, log.reference.1
        ),
    );
    run.notes.push(format!(
        "log: {SERIES} series, checkpoint after {TAIL} + tail of {TAIL} x {BATCH}-point batches, {} B written; recover at {} threads",
        log.bytes,
        tsad_parallel::current_threads()
    ));
    let rs = Summary::of(&untraced_s).expect("at least one restart");
    let listed: Vec<String> = untraced_s.iter().map(|s| format!("{s:.3}")).collect();
    run.notes
        .push(format!("restart seconds: {}", listed.join(" ")));
    run.notes.push(format!(
        "restart to first answer: p50 {:.4} s, tail p{:.1} {:.4} s, max {:.4} s, n={}; lat_p99_us reads 0: a 99th percentile needs 1000 restarts",
        rs.p50,
        rs.tail_q * 100.0,
        rs.tail,
        rs.max,
        rs.n
    ));
    if !args.trace {
        run.set("setup_s", setup_s);
        run.set("lat_p50_us", rs.p50 * 1e6);
        run.set("throughput_pts_s", tail_points as f64 / rs.p50);
        run.set("peak_rss_mb", peak_rss);
        return Ok(run);
    }

    let recover = median(&traced_s);
    let (scan, restore, replay) = (median(&scan_s), median(&restore_s), median(&replay_s));
    run.set("recover_s", recover);
    run.set("wal.scan_s", scan);
    run.set("wal.scan_mb_s", median(&scan_mb_s));
    run.set("fleet.restore_s", restore);
    run.set("fleet.replay_s", replay);
    run.set("wal.bytes_per_point", log.bytes as f64 / log.points as f64);
    run.set(
        "fleet.push_ns_per_point",
        push_ns as f64 / pushed_points.max(1) as f64,
    );
    run.set("fleet.bytes_per_series", bytes_per_series as f64);
    run.set("wal.fsync_us", fsync_ns as f64 / fsyncs.max(1) as f64 / 1e3);
    run.set(
        "detector.update_ns_per_point",
        super::bare_detector_ns(args.seed, SERIES),
    );
    let (busy, wait) = par.rows();
    run.set("parallel.busy_share", busy);
    run.set("parallel.queue_wait_us", wait);
    let wf = Waterfall {
        total_label: "restart to first answer (median)",
        unit: "s",
        total: recover,
        rows: vec![
            ("wal.scan", scan),
            ("fleet.restore", restore),
            ("fleet.replay", replay),
        ],
    };
    run.set("waterfall.unattributed_share", wf.unattributed_share());
    run.set(
        "waterfall.tracing_overhead_share",
        (recover - rs.p50) / rs.p50,
    );
    run.notes.push(format!(
        "tracing overhead: traced {recover:.4} s - untraced {:.4} s = {:.4} s",
        rs.p50,
        recover - rs.p50
    ));
    run.waterfall = Some(wf);
    Ok(run)
}
