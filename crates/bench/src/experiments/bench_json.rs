//! `bench kernels` — the compute kernels (`BENCH_kernels.json`).
//!
//! Times the four parallelized kernels (STOMP, MERLIN, the sliding dot
//! product, and a streaming replay) at 1 thread and at [`PAR_THREADS`]
//! threads via `tsad_parallel::with_threads`. The 1-thread median is the
//! gated wall row (the least scheduler-sensitive number the run has); the
//! [`PAR_THREADS`] column and the speedup are `info`. Each kernel also
//! records `allocs_per_iter`, the heap allocations of one warm
//! single-threaded iteration: an `exact` row for the three kernels with
//! allocation-free contracts ([`GATED_KERNELS`]), `null` when the counting
//! allocator is not installed (under `cargo test`).
//!
//! The paper-experiment kernels the production rows do not cover — MASS,
//! HOT SAX, Telemanom, the scoring protocols, the streaming ports, archive
//! generate/validate/contest, the Table-1 search, and Figs. 8 and 13 — are
//! one `info` row each: recorded on every run, never gated.
//!
//! Every production kernel's `tsad-obs` snapshot (FFT plan-cache hits,
//! STOMP band timings, MERLIN prune counts, worker utilization, replay
//! throughput) rides along in the document's `obs` block, and its
//! `obs_recorded` row (`must_be_true`) fails a run that recorded nothing.

use tsad_core::error::Result;
use tsad_core::fft::sliding_dot_product_into;
use tsad_core::{Labels, Region, TimeSeries};
use tsad_detectors::matrix_profile::{
    stomp_metric_with, DiscordDetector, MatrixProfile, ProfileMetric, StompWorkspace,
};
use tsad_detectors::merlin::merlin_into;
use tsad_detectors::Detector;
use tsad_parallel::with_threads;
use tsad_stream::{replay, ReplayConfig, StreamingDetector, StreamingLeftDiscord};

use crate::gate::{Doc, Env, Gate};
use crate::harness::{allocs, observed, time};

/// Thread count used for the parallel column.
pub const PAR_THREADS: usize = 4;

/// Kernels with an allocation-free contract (`allocs_per_iter` is gated
/// `exact`).
pub const GATED_KERNELS: [&str; 3] = ["sliding_dot_product", "stomp", "merlin"];

/// Sizes for one timing run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Series length for STOMP.
    pub stomp_n: usize,
    /// STOMP window.
    pub stomp_m: usize,
    /// Series length for MERLIN.
    pub merlin_n: usize,
    /// MERLIN length range (inclusive).
    pub merlin_lengths: (usize, usize),
    /// Series length for the sliding dot product.
    pub sdp_n: usize,
    /// Query length for the sliding dot product (past the FFT crossover).
    pub sdp_m: usize,
    /// Series length for the streaming replay.
    pub replay_n: usize,
    /// Left-discord window for the streaming replay.
    pub replay_m: usize,
    /// Timed repetitions per kernel per thread count (median reported).
    pub iters: usize,
    /// Divides the input sizes of the `info` rows (1 = full size).
    pub info_scale: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            stomp_n: 4096,
            stomp_m: 128,
            merlin_n: 800,
            merlin_lengths: (24, 40),
            sdp_n: 65_536,
            sdp_m: 512,
            replay_n: 6000,
            replay_m: 32,
            iters: 5,
            info_scale: 1,
        }
    }
}

impl BenchConfig {
    /// A tiny configuration for debug-mode tests.
    pub fn smoke() -> Self {
        Self {
            stomp_n: 300,
            stomp_m: 16,
            merlin_n: 200,
            merlin_lengths: (8, 10),
            sdp_n: 2048,
            sdp_m: 256,
            replay_n: 400,
            replay_m: 8,
            iters: 2,
            info_scale: 8,
        }
    }
}

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.12).sin() + 0.2 * noise
        })
        .collect()
}

/// `1-thread / N-thread` wall ratio (> 1 means the pool helped), or `None`
/// when the host cannot run [`PAR_THREADS`] workers at once: on a
/// single-CPU host the ratio measures scheduler thrash, not speedup.
pub fn speedup(host_threads: u64, ns_1t: u64, ns_nt: u64) -> Option<f64> {
    (host_threads > 1 && ns_nt > 0).then(|| (ns_1t as f64 / ns_nt as f64 * 1e3).round() / 1e3)
}

/// Warms the kernel once at 1 effective thread (plan caches, thread-local
/// scratch, pooled band buffers), counts the allocations of a second warm
/// iteration, then times both thread columns. The count is taken
/// single-threaded because the per-call scoped worker spawns at higher
/// thread counts allocate by construction.
fn measure(doc: &mut Doc, name: &'static str, iters: usize, f: &mut dyn FnMut()) {
    let ((allocs_per_iter, ns_1t, ns_nt), obs) = observed(|| {
        let allocs_per_iter = with_threads(1, || {
            f();
            allocs(&mut *f)
        });
        let ns_1t = with_threads(1, || time(0, iters, f)).median_ns;
        let ns_nt = with_threads(PAR_THREADS, || time(0, iters, f)).median_ns;
        (allocs_per_iter, ns_1t, ns_nt)
    });
    let alloc_gate = if GATED_KERNELS.contains(&name) {
        Gate::Exact
    } else {
        Gate::Info
    };
    let x = speedup(doc.env.host_threads, ns_1t, ns_nt);
    doc.push(name, "wall_ns_1t", "ns", ns_1t, Gate::WALL);
    doc.push(name, "wall_ns_4t", "ns", ns_nt, Gate::Info);
    doc.push(name, "speedup", "x", x, Gate::Info);
    let n = allocs_per_iter;
    doc.push(name, "allocs_per_iter", "allocs", n, alloc_gate);
    let recorded = !obs.is_empty();
    doc.push(name, "obs_recorded", "bool", recorded, Gate::MustBeTrue);
    doc.obs.push((name.to_string(), obs));
}

/// Times one paper-experiment kernel as an `info` row.
fn info(doc: &mut Doc, name: &str, iters: usize, f: &mut dyn FnMut()) {
    let ns = time(1, iters, f).median_ns;
    doc.push(name, "wall_ns", "ns", ns, Gate::Info);
}

fn ecg(seed: u64, n: usize) -> Vec<f64> {
    let config = tsad_synth::physio::PhysioConfig {
        n,
        pvc_beat: Some(n / 320),
        ..Default::default()
    };
    tsad_synth::physio::physio(seed, &config).ecg.into_values()
}

/// Runs the kernel panel.
pub fn run(seed: u64, cfg: &BenchConfig) -> Result<Doc> {
    let mut doc = Doc::new("kernels", Env::current(seed));

    // STOMP through the caller-owned-buffer entry point: the workspace and
    // output profile persist across iterations, so warm iterations are
    // allocation-free.
    let x = series(cfg.stomp_n, seed);
    let m = cfg.stomp_m;
    let mut ws = StompWorkspace::default();
    let mut mp = MatrixProfile {
        profile: Vec::new(),
        index: Vec::new(),
        window: m,
    };
    measure(&mut doc, "stomp", cfg.iters, &mut || {
        stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).expect("stomp");
    });

    // MERLIN through the caller-owned-buffer entry point: the output list
    // persists across iterations (cleared, not dropped), the per-chunk
    // partials come from a scratch pool, and the DRAG buffers are
    // thread-local — so warm iterations are allocation-free.
    let x = series(cfg.merlin_n, seed + 1);
    let (lo, hi) = cfg.merlin_lengths;
    let mut discords = Vec::new();
    measure(&mut doc, "merlin", cfg.iters, &mut || {
        discords.clear();
        merlin_into(&x, lo, hi, &mut discords).expect("merlin");
    });

    // The sliding dot product into a persistent output buffer; the FFT
    // scratch lives in plan-cache-adjacent thread-locals.
    let x = series(cfg.sdp_n, seed + 2);
    let q = series(cfg.sdp_m, seed + 3);
    let mut dots = Vec::new();
    measure(&mut doc, "sliding_dot_product", cfg.iters, &mut || {
        sliding_dot_product_into(&q, &x, &mut dots).expect("sliding_dot_product");
    });

    let x = series(cfg.replay_n, seed + 4);
    let labels = Labels::new(x.len(), vec![])?;
    let replay_cfg = ReplayConfig {
        chunk_size: 64,
        threshold: f64::INFINITY,
        slop: 0,
    };
    measure(
        &mut doc,
        "streaming_replay_left_discord",
        cfg.iters,
        &mut || {
            let mut det = StreamingLeftDiscord::new(cfg.replay_m, Default::default(), x.len())
                .expect("detector");
            replay(&mut det, &x, &labels, &replay_cfg).expect("replay");
        },
    );

    run_info_rows(&mut doc, seed, cfg)?;
    Ok(doc)
}

/// The paper-experiment kernels, one `info` row each.
fn run_info_rows(doc: &mut Doc, seed: u64, cfg: &BenchConfig) -> Result<()> {
    use tsad_archive::builder::{build_entry, Difficulty, Domain};
    let s = cfg.info_scale.max(1);
    let iters = cfg.iters;

    let x = ecg(seed, 4000 / s);
    let q = x[100 / s..(100 + 160) / s].to_vec();
    info(doc, "mass", iters, &mut || {
        tsad_core::dist::mass(&q, &x).expect("mass");
    });

    let x = ecg(seed, 1500 / s);
    let hotsax_cfg = tsad_detectors::hotsax::HotSaxConfig::default();
    info(doc, "hotsax", iters, &mut || {
        tsad_detectors::hotsax::hotsax_discord(&x, 160 / s, &hotsax_cfg).expect("hotsax");
    });

    let ts = TimeSeries::new("ecg", ecg(seed, 6000 / s))?;
    let tele = tsad_detectors::telemanom::Telemanom {
        order: 80 / s,
        ..Default::default()
    };
    info(doc, "telemanom", iters, &mut || {
        tele.score(&ts, 2000 / s).expect("telemanom");
    });

    info_scoring_protocols(doc, iters)?;
    info_streaming_ports(doc, seed, 20_000 / s, iters)?;

    info(doc, "archive_generate", iters, &mut || {
        for domain in [
            Domain::Physiology,
            Domain::Gait,
            Domain::Industry,
            Domain::Space,
            Domain::Robotics,
        ] {
            build_entry(seed, domain, Difficulty::Medium);
        }
    });
    let entry = build_entry(seed, Domain::Space, Difficulty::Medium);
    let validation = tsad_archive::validate::ValidationConfig::default();
    info(doc, "archive_validate", iters, &mut || {
        tsad_archive::validate::validate(&entry.dataset, &validation).expect("validate");
    });
    let datasets: Vec<tsad_core::Dataset> = (0..4)
        .map(|k| build_entry(seed + k, Domain::Robotics, Difficulty::Medium).dataset)
        .collect();
    let zscore = tsad_detectors::baselines::GlobalZScore;
    info(doc, "archive_contest", iters, &mut || {
        tsad_archive::contest::run_contest(&zscore as &dyn Detector, &datasets).expect("contest");
    });

    use tsad_synth::yahoo::{self, Family};
    let table1: Vec<_> = Family::all()
        .into_iter()
        .flat_map(|f| (1..=(4 / s).max(1)).map(move |i| yahoo::generate(seed, f, i)))
        .collect();
    let search_cfg = tsad_detectors::oneliner::SearchConfig::default();
    info(doc, "table1_search", iters, &mut || {
        for y in &table1 {
            tsad_detectors::oneliner::search(y.dataset.values(), y.dataset.labels(), &search_cfg)
                .expect("one-liner search");
        }
    });

    info(doc, "fig8", iters, &mut || {
        crate::experiments::taxi::fig8(seed, 1).expect("fig8");
    });

    let fig13 = tsad_synth::physio::fig13_ecg_with(
        seed,
        0.5,
        &tsad_synth::physio::PhysioConfig {
            n: 4000 / s,
            pvc_beat: Some(18 / s),
            ..Default::default()
        },
        1200 / s,
    );
    let tele = tsad_detectors::telemanom::Telemanom {
        order: 160 / s,
        ..Default::default()
    };
    let discord = DiscordDetector::euclidean(160 / s);
    info(doc, "fig13", iters, &mut || {
        tele.score(fig13.series(), fig13.train_len())
            .expect("telemanom");
        discord
            .score(fig13.series(), fig13.train_len())
            .expect("discord");
    });
    Ok(())
}

/// Every scoring protocol of §2.3/§4.4 over one fixed prediction set.
fn info_scoring_protocols(doc: &mut Doc, iters: usize) -> Result<()> {
    use tsad_eval::nab::{nab_score, NabProfile};
    use tsad_eval::range::{range_f1, RangeParams};
    use tsad_eval::scoring::{best_f1_over_thresholds, point_adjust_f1, pointwise_f1, F1Protocol};
    let n = 10_000;
    let labels = Labels::new(
        n,
        vec![
            Region::new(2_000, 2_050)?,
            Region::new(5_000, 5_010)?,
            Region::new(8_000, 8_200)?,
        ],
    )?;
    let predicted: Vec<bool> = (0..n)
        .map(|i| (2_010..2_030).contains(&i) || i == 5_005)
        .collect();
    let score: Vec<f64> = (0..n)
        .map(|i| {
            ((i * 2_654_435_761) % 1_000) as f64 / 1_000.0
                + if labels.contains(i) { 0.5 } else { 0.0 }
        })
        .collect();
    let detections: Vec<usize> = (0..n).filter(|&i| predicted[i]).collect();
    let pred_labels = Labels::from_mask(&predicted);
    info(doc, "scoring_protocols", iters, &mut || {
        pointwise_f1(&predicted, &labels).expect("pointwise");
        point_adjust_f1(&predicted, &labels).expect("point-adjust");
        nab_score(&detections, &labels, NabProfile::standard()).expect("nab");
        range_f1(&pred_labels, &labels, RangeParams::default()).expect("range");
        best_f1_over_thresholds(&score, &labels, F1Protocol::Pointwise).expect("best-f1");
    });
    Ok(())
}

/// One pass of every native streaming port (and the batch adapter) over a
/// cycled NYC-taxi stream.
fn info_streaming_ports(doc: &mut Doc, seed: u64, n: usize, iters: usize) -> Result<()> {
    use tsad_detectors::baselines::GlobalZScore;
    use tsad_detectors::cusum::Cusum;
    use tsad_detectors::oneliner::{equation, Equation};
    use tsad_stream::{
        BatchAdapter, StreamingCusum, StreamingGlobalZScore, StreamingMovingAvgResidual,
        StreamingOneLiner,
    };
    let taxi = tsad_synth::numenta::nyc_taxi(seed);
    let xs: Vec<f64> = taxi
        .dataset
        .values()
        .iter()
        .copied()
        .cycle()
        .take(n)
        .collect();
    let train = n / 4;
    let mut ports: Vec<Box<dyn StreamingDetector>> = vec![
        Box::new(StreamingGlobalZScore::new(train)?),
        Box::new(StreamingCusum::new(Cusum::default(), train)?),
        Box::new(StreamingMovingAvgResidual::new(21)?),
        Box::new(StreamingOneLiner::compile(&equation(
            Equation::Eq5,
            21,
            3.0,
            0.1,
        ))?),
        Box::new(BatchAdapter::new(GlobalZScore, 512, 128, 128)?),
    ];
    info(doc, "streaming_ports", iters, &mut || {
        for det in &mut ports {
            det.reset();
            std::hint::black_box(det.score_stream(&xs));
        }
    });
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One smoke run shared by the tests that only read it.
    pub(crate) fn smoke_doc() -> &'static Doc {
        static DOC: OnceLock<Doc> = OnceLock::new();
        DOC.get_or_init(|| run(42, &BenchConfig::smoke()).expect("kernels smoke run"))
    }

    const KERNELS: [&str; 4] = [
        "stomp",
        "merlin",
        "sliding_dot_product",
        "streaming_replay_left_discord",
    ];

    #[test]
    fn smoke_run_produces_wellformed_json() {
        let doc = smoke_doc();
        let json = doc.render();
        crate::minijson::parse(&json).expect("valid JSON");
        let back = Doc::parse(&json).unwrap();
        assert_eq!(back.rows, doc.rows);
        assert_eq!(back.suite, "kernels");
        for field in [
            "\"schema\": \"tsad-bench/v1\"",
            "\"obs\"",
            "\"tsad-obs/v1\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        for k in KERNELS {
            for metric in ["wall_ns_1t", "wall_ns_4t", "speedup", "allocs_per_iter"] {
                assert!(doc.row(k, metric).is_some(), "{k}/{metric}");
            }
        }
    }

    #[test]
    fn smoke_run_embeds_nonzero_obs_snapshots() {
        let doc = smoke_doc();
        let kernel = |name: &str| {
            &doc.obs
                .iter()
                .find(|(case, _)| case == name)
                .unwrap_or_else(|| panic!("kernel {name} missing"))
                .1
        };
        // the sliding dot product is past the FFT crossover: warm
        // iterations hit the cached rfft plan
        let sdp = kernel("sliding_dot_product");
        assert!(
            sdp.counter("core.fft.plan_hit").unwrap_or(0) > 0,
            "sdp snapshot lacks FFT plan hits: {sdp:?}"
        );
        assert!(sdp.counter("core.fft.scratch_reuse").unwrap_or(0) > 0);
        // every STOMP band fill is timed, on workers and the caller alike
        let stomp = kernel("stomp");
        let band = stomp
            .histogram("detectors.stomp.band_ns")
            .expect("stomp snapshot lacks band timings");
        assert!(band.count > 0 && band.sum > 0);
        assert!(
            stomp
                .histogram("parallel.worker.busy_ns")
                .is_some_and(|h| h.count > 0),
            "stomp snapshot lacks worker utilization: {stomp:?}"
        );
        // MERLIN's phase 1 prunes almost everything on a smooth series
        let merlin = kernel("merlin");
        assert!(merlin.counter("detectors.merlin.drag_passes").unwrap_or(0) > 0);
        assert!(
            merlin
                .counter("detectors.merlin.windows_pruned")
                .unwrap_or(0)
                > 0
        );
        // the replay kernel reports throughput and per-chunk latency
        let rep = kernel("streaming_replay_left_discord");
        assert!(rep.counter("stream.replay.points").unwrap_or(0) > 0);
        assert!(rep
            .histogram("stream.replay.chunk_push_ns")
            .is_some_and(|h| h.count > 0));
    }

    #[test]
    fn forced_scalar_reports_scalar_dispatch() {
        use tsad_core::simd::{self, Backend};
        let doc = simd::with_backend(Backend::Scalar, || run(11, &BenchConfig::smoke()).unwrap());
        assert_eq!(doc.env.dispatch, "scalar");
        assert_eq!(doc.env.lane_width, 1);
        let json = doc.render();
        assert!(json.contains("\"dispatch\": \"scalar\""));
        assert!(json.contains("\"lane_width\": 1"));
    }

    #[test]
    fn dispatch_matches_the_resolved_backend() {
        let current = tsad_core::simd::current();
        assert_eq!(smoke_doc().env.dispatch, current.name());
        assert_eq!(smoke_doc().env.lane_width, current.lane_width() as u64);
    }

    #[test]
    fn timings_are_positive() {
        for r in smoke_doc().rows.iter().filter(|r| r.unit == "ns") {
            assert!(
                r.value.as_f64().is_some_and(|v| v > 0.0),
                "{}/{}",
                r.case,
                r.metric
            );
        }
    }

    #[test]
    fn allocs_are_null_without_the_counting_allocator() {
        // the library test binary runs under the plain system allocator, so
        // the document must say "not measured" rather than a bogus zero
        for k in KERNELS {
            let row = smoke_doc().row(k, "allocs_per_iter").unwrap();
            assert_eq!(row.value, crate::minijson::JsonValue::Null, "{k}");
        }
        assert!(smoke_doc().render().contains("\"value\": null"));
    }

    #[test]
    fn speedup_is_null_on_single_cpu_hosts() {
        assert_eq!(speedup(1, 200, 100), None);
        assert_eq!(speedup(8, 200, 0), None);
        assert_eq!(speedup(8, 200, 100), Some(2.0));
        let doc = smoke_doc();
        for k in KERNELS {
            let row = doc.row(k, "speedup").unwrap();
            assert_eq!(
                row.value.as_f64().is_some(),
                doc.env.host_threads > 1,
                "{k}"
            );
        }
    }
}
