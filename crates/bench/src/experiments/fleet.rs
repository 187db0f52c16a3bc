//! `fleet` / `bench fleet` — the million-series fleet engine, end to end.
//!
//! Drives a [`tsad_fleet::Fleet`] of `Sanitized<StreamingCusum>` detectors
//! through batched multi-series ingestion and reports:
//!
//! * **Throughput** — median wall time per full round (one point to every
//!   series, delivered in `batch_points`-sized batches) at 1 thread and at
//!   [`PAR_THREADS`] threads, plus the derived aggregate points/second.
//! * **Steady-state allocations** — heap allocations of one warm round at
//!   a single effective thread with observability ON, counted by
//!   [`crate::alloc_track`] when the host binary installs it (the `repro`
//!   driver does; under `cargo test` the field is honestly `null`). The
//!   contract is **zero**: slab storage, reused batch buffers, and
//!   allocation-free detector pushes mean a resident fleet ingests without
//!   touching the allocator.
//! * **Suspend/resume** — the fleet is checkpointed (sharded TSCK
//!   segments + manifest), restored into a fresh fleet, and both are
//!   driven one further round: the scores must match **bitwise**, and the
//!   checkpoint bytes themselves must be identical when produced at 1
//!   thread and at [`PAR_THREADS`] threads.
//! * **Footprint** — accounted bytes per resident series and the total
//!   checkpoint size.
//!
//! `bench fleet` renders the same run as `BENCH_fleet.json`: the
//! 1-thread round wall is gated at [`Gate::WALL`], `allocs_per_point`
//! `exact`, `bytes_per_series` at [`MAX_BYTES_PER_SERIES_RATIO`], the
//! bitwise bit `must_be_true`, and the geometry (`series`, `shards`)
//! `exact`.

use std::fmt::Write as _;

use tsad_core::error::Result;
use tsad_detectors::cusum::Cusum;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum, StreamingDetector};

use crate::gate::{Doc, Env, Gate};
use crate::harness::{allocs, observed, time};

/// Thread count used for the parallel column (matches the kernel panel).
pub const PAR_THREADS: usize = 4;

/// Sizes for one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchConfig {
    /// Number of distinct series in the fleet.
    pub series: u64,
    /// Shard count.
    pub shards: usize,
    /// Points per `push_batch` call.
    pub batch_points: usize,
    /// Warm-up rounds (detector calibration + buffer high-water marks)
    /// before anything is counted or timed.
    pub warm_rounds: usize,
    /// Timed rounds per thread count (median reported).
    pub iters: usize,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        // the acceptance-scale run: one million resident detectors
        Self {
            series: 1_000_000,
            shards: 64,
            batch_points: 65_536,
            warm_rounds: 10,
            iters: 3,
        }
    }
}

impl FleetBenchConfig {
    /// The CI-scale run backing the committed `BENCH_fleet.json` and the
    /// `fleet-smoke` job: large enough to exercise every shard, small
    /// enough for a debug-build runner.
    pub fn ci() -> Self {
        Self {
            series: 100_000,
            ..Self::default()
        }
    }

    /// A tiny configuration for debug-mode tests.
    pub fn smoke() -> Self {
        Self {
            series: 2_000,
            shards: 8,
            batch_points: 512,
            warm_rounds: 3,
            iters: 2,
        }
    }
}

/// One complete fleet measurement.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// Seed the point values were generated from.
    pub seed: u64,
    /// The configuration measured.
    pub cfg: FleetBenchConfig,
    /// Detector fingerprint (every series spawns this configuration).
    pub detector: String,
    /// Points fed per round (= `cfg.series`; values are always finite).
    pub points_per_round: u64,
    /// Median ns per round at 1 thread.
    pub median_ns_1t: u64,
    /// Median ns per round at [`PAR_THREADS`] threads.
    pub median_ns_nt: u64,
    /// Heap allocations in one warm single-threaded round, or `None` when
    /// the counting allocator is not installed in this process.
    pub steady_allocs: Option<u64>,
    /// Accounted bytes per resident series after the run.
    pub bytes_per_series: usize,
    /// Total checkpoint size (manifest + all segments).
    pub checkpoint_bytes: usize,
    /// Checkpoint bytes identical at 1 and [`PAR_THREADS`] threads, AND
    /// the restored fleet's next-round scores bitwise equal to the
    /// original's.
    pub suspend_resume_bitwise: bool,
    /// Where the run measured (seed, SIMD dispatch, threads).
    pub env: Env,
    /// Observability snapshot covering the whole run.
    pub obs: tsad_obs::Snapshot,
}

impl FleetBench {
    /// Aggregate throughput at 1 thread, points per second.
    pub fn points_per_sec_1t(&self) -> f64 {
        points_per_sec(self.points_per_round, self.median_ns_1t)
    }

    /// Aggregate throughput at [`PAR_THREADS`] threads, points per second.
    pub fn points_per_sec_nt(&self) -> f64 {
        points_per_sec(self.points_per_round, self.median_ns_nt)
    }

    /// Steady-state allocations per ingested point, rounded up so any
    /// nonzero round count reads as a violation (`Some(0)` iff the round
    /// was allocation-free).
    pub fn allocs_per_point(&self) -> Option<u64> {
        self.steady_allocs
            .map(|a| a.div_ceil(self.points_per_round.max(1)))
    }
}

fn points_per_sec(points: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        points as f64 * 1e9 / ns as f64
    }
}

type FleetDetector = Sanitized<StreamingCusum>;
type FleetFactory = FnFactory<fn(u64) -> FleetDetector>;

fn spawn_detector(_id: u64) -> FleetDetector {
    let cusum = StreamingCusum::new(Cusum::default(), 8).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

fn new_fleet(cfg: &FleetBenchConfig) -> Fleet<FleetFactory> {
    Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> FleetDetector),
        FleetConfig {
            shards: cfg.shards,
            ..FleetConfig::default()
        },
    )
}

/// Deterministic finite value for (series, round).
fn value(seed: u64, id: u64, round: u64) -> f64 {
    let mut x = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

/// Feeds one point to every series, in `batch_points`-sized batches.
/// Returns the per-round score log as `(series, score bits)` pairs when
/// `log` is requested (the bitwise resume check needs it).
fn drive_round(
    fleet: &mut Fleet<FleetFactory>,
    cfg: &FleetBenchConfig,
    seed: u64,
    round: u64,
    batch: &mut Vec<(SeriesId, f64)>,
    out: &mut BatchOutput,
    mut log: Option<&mut Vec<(u64, u64)>>,
) {
    let mut id = 0u64;
    while id < cfg.series {
        batch.clear();
        let end = (id + cfg.batch_points as u64).min(cfg.series);
        for i in id..end {
            batch.push((SeriesId(i), value(seed, i, round)));
        }
        fleet.push_batch(batch, out);
        if let Some(log) = log.as_deref_mut() {
            for s in &out.scores {
                log.push((s.id.0, s.score.to_bits()));
            }
        }
        id = end;
    }
}

/// Fresh `bytes_per_series` may be at most this multiple of the baseline
/// (the accounted footprint is deterministic, so the margin only covers
/// deliberate, reviewed growth of detector state).
pub const MAX_BYTES_PER_SERIES_RATIO: f64 = 1.10;

/// Runs the fleet measurement.
pub fn run(seed: u64, cfg: &FleetBenchConfig) -> Result<FleetBench> {
    let (bench, obs) = observed(|| run_observed(seed, cfg));
    Ok(FleetBench { obs, ..bench? })
}

fn run_observed(seed: u64, cfg: &FleetBenchConfig) -> Result<FleetBench> {
    let env = Env::current(seed);
    let mut fleet = new_fleet(cfg);
    let mut out = BatchOutput::new();
    let mut batch = Vec::with_capacity(cfg.batch_points);
    let mut round = 0u64;
    let mut next_round = |fleet: &mut Fleet<FleetFactory>| {
        drive_round(fleet, cfg, seed, round, &mut batch, &mut out, None);
        round += 1;
    };

    // warm-up: spawn every series, calibrate detectors, grow every
    // reusable buffer to its high-water mark; then the steady-state
    // allocation count of one more round, single-threaded, obs ON
    let steady_allocs = with_threads(1, || {
        for _ in 0..=cfg.warm_rounds.max(1) {
            next_round(&mut fleet);
        }
        allocs(|| next_round(&mut fleet))
    });

    // timing columns (medians over cfg.iters rounds each)
    let median_ns_1t = with_threads(1, || time(0, cfg.iters, &mut || next_round(&mut fleet)));
    let median_ns_nt = with_threads(PAR_THREADS, || {
        time(0, cfg.iters, &mut || next_round(&mut fleet))
    });

    // suspend/resume: thread-count-invariant checkpoint bytes, then a
    // bitwise-identical continuation from the restored fleet
    let ckpt_1t = with_threads(1, || fleet.checkpoint());
    let ckpt_nt = with_threads(PAR_THREADS, || fleet.checkpoint());
    let mut resumed = new_fleet(cfg);
    let report = resumed.restore(&ckpt_1t)?;
    let mut log_a = Vec::new();
    let mut log_b = Vec::new();
    drive_round(
        &mut fleet,
        cfg,
        seed,
        round,
        &mut batch,
        &mut out,
        Some(&mut log_a),
    );
    drive_round(
        &mut resumed,
        cfg,
        seed,
        round,
        &mut batch,
        &mut out,
        Some(&mut log_b),
    );
    let suspend_resume_bitwise = ckpt_1t.to_bytes() == ckpt_nt.to_bytes()
        && report.series as u64 == cfg.series
        && report.evicted.is_empty()
        && !log_a.is_empty()
        && log_a == log_b;

    Ok(FleetBench {
        seed,
        cfg: *cfg,
        detector: spawn_detector(0).name(),
        points_per_round: cfg.series,
        median_ns_1t: median_ns_1t.median_ns,
        median_ns_nt: median_ns_nt.median_ns,
        steady_allocs,
        bytes_per_series: fleet.bytes_per_series(),
        checkpoint_bytes: ckpt_1t.total_bytes(),
        suspend_resume_bitwise,
        env,
        obs: tsad_obs::Snapshot::default(),
    })
}

/// Renders the human-readable report for `repro -- fleet`.
pub fn render(b: &FleetBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet: {} series x {} shards, {} detector",
        b.cfg.series, b.cfg.shards, b.detector
    );
    let _ = writeln!(
        out,
        "  dispatch:   {} ({} f64 lanes)",
        b.env.dispatch, b.env.lane_width
    );
    let _ = writeln!(
        out,
        "  ingest:     {:>12.0} points/s at 1 thread ({} ns/round)",
        b.points_per_sec_1t(),
        b.median_ns_1t
    );
    let _ = writeln!(
        out,
        "              {:>12.0} points/s at {} threads ({} ns/round)",
        b.points_per_sec_nt(),
        PAR_THREADS,
        b.median_ns_nt
    );
    let _ = writeln!(
        out,
        "  steady-state allocations/round: {}",
        b.steady_allocs
            .map_or_else(|| "not measured".to_string(), |a| a.to_string())
    );
    let _ = writeln!(out, "  bytes/series (accounted): {}", b.bytes_per_series);
    let _ = writeln!(
        out,
        "  checkpoint: {} bytes across {} shard segments",
        b.checkpoint_bytes, b.cfg.shards
    );
    let _ = writeln!(
        out,
        "  suspend/resume bitwise (1 vs {} threads): {}",
        PAR_THREADS,
        if b.suspend_resume_bitwise {
            "PASS"
        } else {
            "FAIL"
        }
    );
    out
}

/// The `BENCH_fleet.json` rows.
pub fn to_doc(b: &FleetBench) -> Doc {
    let mut doc = Doc::new("fleet", b.env.clone());
    doc.push("geometry", "series", "series", b.cfg.series, Gate::Exact);
    let shards = b.cfg.shards as u64;
    doc.push("geometry", "shards", "shards", shards, Gate::Exact);
    doc.push("round", "wall_ns_1t", "ns", b.median_ns_1t, Gate::WALL);
    doc.push("round", "wall_ns_4t", "ns", b.median_ns_nt, Gate::Info);
    let pps = b.points_per_sec_1t().round();
    doc.push("round", "points_per_sec_1t", "points/s", pps, Gate::Info);
    let apr = b.allocs_per_point();
    doc.push("round", "allocs_per_point", "allocs", apr, Gate::Exact);
    let footprint = Gate::MaxRatio {
        r: MAX_BYTES_PER_SERIES_RATIO,
        floor_ns: 0,
        same_threads: false,
    };
    let bps = b.bytes_per_series as u64;
    doc.push("footprint", "bytes_per_series", "B", bps, footprint);
    let ckpt = b.checkpoint_bytes as u64;
    doc.push("footprint", "checkpoint_bytes", "B", ckpt, Gate::Info);
    let bit = b.suspend_resume_bitwise;
    let resume = "suspend_resume_bitwise";
    doc.push("resume", resume, "bool", bit, Gate::MustBeTrue);
    doc.obs.push(("run".to_string(), b.obs.clone()));
    doc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One smoke run shared by the tests that only read it.
    pub(crate) fn smoke() -> &'static FleetBench {
        static RUN: OnceLock<FleetBench> = OnceLock::new();
        RUN.get_or_init(|| run(42, &FleetBenchConfig::smoke()).expect("fleet smoke run"))
    }

    #[test]
    fn smoke_run_measures_and_resumes_bitwise() {
        let b = smoke();
        assert_eq!(b.points_per_round, 2_000);
        assert!(b.median_ns_1t > 0 && b.median_ns_nt > 0);
        assert!(b.points_per_sec_1t() > 0.0);
        assert!(b.bytes_per_series > 0);
        assert!(b.checkpoint_bytes > 0);
        assert!(b.suspend_resume_bitwise, "resume diverged");
        // library tests run under the system allocator: honestly unmeasured
        assert_eq!(b.steady_allocs, None);
        assert_eq!(b.allocs_per_point(), None);
    }

    #[test]
    fn smoke_json_is_wellformed_and_parses() {
        let b = smoke();
        let json = to_doc(b).render();
        let doc = Doc::parse(&json).expect("fleet json parses");
        assert_eq!(doc.suite, "fleet");
        assert_eq!(doc.env.dispatch, tsad_core::simd::current().name());
        assert_eq!(
            doc.env.lane_width,
            tsad_core::simd::current().lane_width() as u64
        );
        let row = |m: &str| doc.rows.iter().find(|r| r.metric == m).unwrap();
        assert_eq!(row("suspend_resume_bitwise").value.as_bool(), Some(true));
        assert!(row("wall_ns_1t").value.as_u64().is_some());
        assert!(json
            .contains("\"metric\": \"allocs_per_point\", \"unit\": \"allocs\", \"value\": null"));
        let human = render(b);
        assert!(human.contains("points/s"));
        assert!(human.contains("PASS"));
    }

    #[test]
    fn forced_scalar_reports_scalar_dispatch() {
        use tsad_core::simd::{self, Backend};
        let b = simd::with_backend(Backend::Scalar, || {
            run(11, &FleetBenchConfig::smoke()).unwrap()
        });
        assert_eq!(b.env.dispatch, "scalar");
        assert_eq!(b.env.lane_width, 1);
    }

    #[test]
    fn allocs_per_point_rounds_up_violations() {
        let mut with_allocs = smoke().clone();
        with_allocs.steady_allocs = Some(0);
        assert_eq!(with_allocs.allocs_per_point(), Some(0));
        with_allocs.steady_allocs = Some(1); // 1 alloc over 2000 points
        assert_eq!(with_allocs.allocs_per_point(), Some(1), "must not hide");
    }
}
