//! `bench ingest` / `loadgen` — the wire-protocol front-end, measured.
//!
//! Three views of the same serving path, reported as `BENCH_ingest.json`:
//!
//! * **Per-stage latency** — a warm in-memory [`Conn`] is fed pre-rendered
//!   HTTP requests (no sockets, no scheduler) and the crate's own stage
//!   histograms (`parse`, `route`, `push`, `respond`, `request`,
//!   `overhead`) are read back via [`tsad_ingest::stage_stats`]. Each
//!   budgeted p99 is an `abs_max` row against the crate's budget
//!   ([`tsad_ingest::BUDGET_PARSE_NS`] and friends) widened to its log2
//!   histogram bucket bound ([`tsad_ingest::budget_bound`]): these are
//!   contracts, not baselines, so a regression cannot be grandfathered in
//!   by regenerating the committed document. Each stage's sample count is
//!   `exact`.
//! * **Steady-state allocations** — heap allocations across warm requests
//!   with observability ON, counted by [`crate::alloc_track`] when the
//!   host binary installs it (`repro` does; under `cargo test` the field
//!   is honestly `null`). The contract is **zero** per request: reused
//!   connection buffers mean a warm request path never touches the
//!   allocator.
//! * **Loopback throughput** — a real server on `127.0.0.1:0` driven by
//!   the built-in load generator over both transports. Wall ns per request
//!   is gated relatively with a wide margin ([`MAX_NS_PER_REQUEST_RATIO`];
//!   socket numbers are noisy), and only against a baseline with the same
//!   worker count (`threads`); errors are `exact` (zero).
//!
//! The raw-fleet column (`raw_push_ns_per_batch`) times `push_batch`
//! directly on an equally warmed fleet, so the `overhead` stage — request
//! minus push — can be read against what the fleet alone costs.

use std::fmt::Write as _;
use std::sync::Arc;

use tsad_core::error::Result;
use tsad_detectors::cusum::Cusum;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_ingest::loadgen::{LoadGenConfig, LoadReport, Transport};
use tsad_ingest::{Conn, ConnConfig, Engine, EngineConfig, ServerConfig, StageStats};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum};

use crate::gate::{Doc, Env, Gate};
use crate::harness::{allocs, observed, time};

/// Fresh loopback ns/request may be at most this multiple of the
/// baseline's: socket numbers bounce more than in-process medians, so the
/// margin is wider than [`Gate::WALL`]'s.
pub const MAX_NS_PER_REQUEST_RATIO: f64 = 1.5;

/// The stages whose p99 is gated against a budget.
const BUDGETS: [(&str, u64); 3] = [
    ("parse", tsad_ingest::BUDGET_PARSE_NS),
    ("route", tsad_ingest::BUDGET_ROUTE_NS),
    ("overhead", tsad_ingest::BUDGET_OVERHEAD_NS),
];

/// Sizes for one ingest measurement.
#[derive(Debug, Clone, Copy)]
pub struct IngestBenchConfig {
    /// Series-id space the generated points cycle through.
    pub series: u64,
    /// Points per request.
    pub batch_points: usize,
    /// Warm-up requests (detector calibration + buffer high-water marks)
    /// before anything is counted or timed.
    pub warm_requests: usize,
    /// Measured in-memory requests (the stage histograms cover these).
    pub requests: usize,
    /// Requests per transport for the loopback loadgen phase.
    pub loadgen_requests: u64,
    /// Loadgen client connections.
    pub conns: usize,
    /// Multiplier applied to the latency budgets the document carries.
    /// `1` is the real contract (release builds — the `ingest-smoke` CI
    /// job); [`Self::smoke`] widens it so debug-build tests exercise the
    /// gating machinery without asserting release-grade latency.
    pub budget_scale: u64,
}

impl Default for IngestBenchConfig {
    fn default() -> Self {
        Self {
            series: 4_096,
            // 32 points keeps per-request text parse comfortably inside
            // the 5 μs p99 budget; larger bodies amortize better but sit
            // on the budget's histogram-bucket boundary.
            batch_points: 32,
            warm_requests: 512,
            requests: 2_048,
            loadgen_requests: 2_000,
            conns: 4,
            budget_scale: 1,
        }
    }
}

impl IngestBenchConfig {
    /// The configuration backing the committed `BENCH_ingest.json` and the
    /// `ingest-smoke` CI job (currently the default).
    pub fn ci() -> Self {
        Self::default()
    }

    /// A tiny configuration for debug-mode tests. The budgets are widened
    /// (`budget_scale`): per-stage latency is a release-build contract,
    /// and a debug build misses it by an order of magnitude for reasons
    /// the gate is not meant to catch.
    pub fn smoke() -> Self {
        Self {
            series: 256,
            batch_points: 16,
            warm_requests: 32,
            requests: 128,
            loadgen_requests: 60,
            conns: 2,
            budget_scale: 1_000,
        }
    }
}

/// One complete ingest measurement.
#[derive(Debug, Clone)]
pub struct IngestBench {
    /// The configuration measured.
    pub cfg: IngestBenchConfig,
    /// Where the run measured (seed, SIMD dispatch, threads).
    pub env: Env,
    /// Median ns per `push_batch` of one request's points on a raw fleet
    /// (no protocol, no server) at 1 thread.
    pub raw_push_ns: u64,
    /// Stage quantiles over the measured in-memory requests.
    pub stages: Vec<StageStats>,
    /// Heap allocations across [`Self::alloc_requests`] warm requests, or
    /// `None` when the counting allocator is not installed.
    pub steady_allocs: Option<u64>,
    /// Requests the allocation count covers.
    pub alloc_requests: u64,
    /// Loopback loadgen results per transport.
    pub loadgen: Vec<(Transport, LoadReport)>,
    /// Observability snapshot covering the whole run.
    pub obs: tsad_obs::Snapshot,
}

impl IngestBench {
    /// Steady-state allocations per request, rounded up so any nonzero
    /// count over the window reads as a violation.
    pub fn allocs_per_request(&self) -> Option<u64> {
        self.steady_allocs
            .map(|a| a.div_ceil(self.alloc_requests.max(1)))
    }
}

type IngestDetector = Sanitized<StreamingCusum>;
type IngestFactory = FnFactory<fn(u64) -> IngestDetector>;

fn spawn_detector(_id: u64) -> IngestDetector {
    let cusum = StreamingCusum::new(Cusum::default(), 8).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

fn new_engine(cfg: &IngestBenchConfig) -> Engine<IngestFactory> {
    let shards = (cfg.series / 1024).clamp(4, 64) as usize;
    let fleet = Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> IngestDetector),
        FleetConfig {
            shards,
            ..FleetConfig::default()
        },
    );
    Engine::new(fleet, EngineConfig::default())
}

/// Deterministic finite value for (series, round) — same construction as
/// the fleet bench, so raw-fleet and through-the-wire runs see identical
/// data shapes.
fn value(seed: u64, id: u64, round: u64) -> f64 {
    let mut x = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

/// Fills `batch` with request `round`'s points (ids cycle the series
/// space).
fn fill_batch(cfg: &IngestBenchConfig, seed: u64, round: u64, batch: &mut Vec<(SeriesId, f64)>) {
    batch.clear();
    let base = round * cfg.batch_points as u64;
    for i in 0..cfg.batch_points as u64 {
        let id = (base + i) % cfg.series;
        batch.push((SeriesId(id), value(seed, id, round)));
    }
}

/// Renders request `round` as a complete HTTP/1.1 `POST /ingest` into
/// `out` (cleared first).
fn render_request(
    cfg: &IngestBenchConfig,
    seed: u64,
    round: u64,
    batch: &mut Vec<(SeriesId, f64)>,
    body: &mut String,
    out: &mut Vec<u8>,
) {
    fill_batch(cfg, seed, round, batch);
    body.clear();
    for (id, v) in batch.iter() {
        let _ = writeln!(body, "{} {}", id.0, v);
    }
    out.clear();
    {
        use std::io::Write as _;
        let _ = write!(
            out,
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
    }
    out.extend_from_slice(body.as_bytes());
}

/// Feeds one pre-rendered request and asserts a 200; the response bytes
/// are consumed in place so the connection buffers stay warm.
fn feed_request(conn: &mut Conn, engine: &Engine<IngestFactory>, request: &[u8]) {
    conn.feed(request, engine);
    debug_assert!(
        conn.output().starts_with(b"HTTP/1.1 200"),
        "unexpected response: {}",
        String::from_utf8_lossy(conn.output())
    );
    let n = conn.output().len();
    conn.consume_output(n);
}

/// Parsed `repro -- loadgen` options.
#[derive(Debug, Clone, Default)]
pub struct LoadGenCli {
    /// Drive an already-running server at this address instead of
    /// self-hosting one on a loopback port.
    pub addr: Option<String>,
    /// The load shape (the CLI seed overrides `cfg.seed`).
    pub cfg: LoadGenConfig,
}

/// Renders one loadgen report for the CLI.
pub fn render_loadgen(transport: Transport, r: &LoadReport) -> String {
    format!(
        "loadgen {}: {:.0} req/s, {:.0} points/s\n  \
         latency p50 {} ns, p95 {} ns, p99 {} ns, max {} ns\n  \
         {} ok, {} retried, {} backoff resends, {} errors in {:.2}s\n",
        transport.name(),
        r.rps(),
        r.points_per_sec(),
        r.p50_ns,
        r.p95_ns,
        r.p99_ns,
        r.max_ns,
        r.requests,
        r.retried,
        r.retries,
        r.errors,
        r.elapsed_ns as f64 / 1e9
    )
}

/// Runs the load generator for `repro -- loadgen`, self-hosting a loopback
/// server (default engine, default detector) when no `--addr` was given.
pub fn run_loadgen(cli: &LoadGenCli, seed: u64) -> std::result::Result<String, String> {
    use std::net::ToSocketAddrs;
    let cfg = LoadGenConfig { seed, ..cli.cfg };
    let (addr, server) = match &cli.addr {
        Some(a) => {
            let addr = a
                .to_socket_addrs()
                .map_err(|e| format!("bad --addr {a}: {e}"))?
                .next()
                .ok_or_else(|| format!("--addr {a} resolved to no address"))?;
            (addr, None)
        }
        None => {
            let engine = Arc::new(new_engine(&IngestBenchConfig::default()));
            let handle = tsad_ingest::start(engine, ServerConfig::default(), "127.0.0.1:0")
                .map_err(|e| format!("cannot self-host a loopback server: {e}"))?;
            (handle.addr(), Some(handle))
        }
    };
    let report = tsad_ingest::loadgen::run(addr, &cfg);
    if let Some(handle) = server {
        handle
            .stop()
            .map_err(|e| format!("server shutdown failed: {e}"))?;
    }
    Ok(render_loadgen(cfg.transport, &report))
}

/// Runs the ingest measurement.
pub fn run(seed: u64, cfg: &IngestBenchConfig) -> Result<IngestBench> {
    let (bench, obs) = observed(|| run_observed(seed, cfg));
    Ok(IngestBench { obs, ..bench })
}

fn run_observed(seed: u64, cfg: &IngestBenchConfig) -> IngestBench {
    let env = Env::current(seed);
    let engine = new_engine(cfg);
    let mut conn = Conn::new(ConnConfig::default());
    let mut batch = Vec::with_capacity(cfg.batch_points);
    let mut body = String::with_capacity(cfg.batch_points * 32);
    let mut request = Vec::with_capacity(cfg.batch_points * 32 + 128);
    let mut round = 0u64;

    // warm-up: spawn every series, calibrate detectors, grow every
    // reusable buffer (connection and fleet) to its high-water mark
    for _ in 0..cfg.warm_requests.max(1) {
        render_request(cfg, seed, round, &mut batch, &mut body, &mut request);
        feed_request(&mut conn, &engine, &request);
        round += 1;
    }

    // steady-state allocation count with obs ON: requests are rendered
    // *before* counting so only the server-side path is measured
    let alloc_requests = 64u64.min(cfg.requests as u64).max(1);
    let rendered: Vec<Vec<u8>> = (0..alloc_requests)
        .map(|i| {
            render_request(cfg, seed, round + i, &mut batch, &mut body, &mut request);
            request.clone()
        })
        .collect();
    let steady_allocs = allocs(|| {
        for req in &rendered {
            feed_request(&mut conn, &engine, req);
        }
    });
    round += alloc_requests;

    // measured window: reset the histograms so the stage quantiles cover
    // exactly these requests, none of the warm-up
    tsad_obs::reset_all();
    for _ in 0..cfg.requests.max(1) {
        render_request(cfg, seed, round, &mut batch, &mut body, &mut request);
        feed_request(&mut conn, &engine, &request);
        round += 1;
    }
    let stages = tsad_ingest::stage_stats();

    // raw-fleet baseline: the same batches pushed straight into an equally
    // warmed fleet, no protocol in the way
    let raw_push_ns = with_threads(1, || {
        let mut fleet = Fleet::new(
            FnFactory(spawn_detector as fn(u64) -> IngestDetector),
            FleetConfig {
                shards: (cfg.series / 1024).clamp(4, 64) as usize,
                ..FleetConfig::default()
            },
        );
        let mut out = BatchOutput::new();
        let batches: Vec<Vec<(SeriesId, f64)>> = (0..(cfg.warm_requests + cfg.requests) as u64)
            .map(|r| {
                fill_batch(cfg, seed, r, &mut batch);
                batch.clone()
            })
            .collect();
        let mut next = batches.iter().cycle();
        let mut push = || fleet.push_batch(next.next().expect("cycled"), &mut out);
        time(cfg.warm_requests.max(1), cfg.requests, &mut push).median_ns
    });

    // loopback throughput: a real server, both transports, fresh engine so
    // loadgen traffic does not sit on the in-memory engine's series
    let server_engine = Arc::new(new_engine(cfg));
    // a failed loopback bind is a broken environment, not a measurement
    let handle = tsad_ingest::start(
        Arc::clone(&server_engine),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut loadgen = Vec::new();
    for transport in [Transport::Http, Transport::Tcp] {
        let report = tsad_ingest::loadgen::run(
            handle.addr(),
            &LoadGenConfig {
                series: cfg.series,
                conns: cfg.conns,
                batch_points: cfg.batch_points,
                requests: cfg.loadgen_requests,
                transport,
                seed,
                ..LoadGenConfig::default()
            },
        );
        loadgen.push((transport, report));
    }
    handle.stop().expect("clean shutdown");

    IngestBench {
        cfg: *cfg,
        env,
        raw_push_ns,
        stages,
        steady_allocs,
        alloc_requests,
        loadgen,
        obs: tsad_obs::Snapshot::default(),
    }
}

/// The `BENCH_ingest.json` rows.
pub fn to_doc(b: &IngestBench) -> Doc {
    let mut doc = Doc::new("ingest", b.env.clone());
    let points = b.cfg.batch_points as u64;
    doc.push("geometry", "batch_points", "points", points, Gate::Exact);
    doc.push("geometry", "series", "series", b.cfg.series, Gate::Exact);
    doc.push("raw_push", "wall_ns", "ns", b.raw_push_ns, Gate::Info);
    for s in &b.stages {
        let p99_gate = BUDGETS.iter().find(|(stage, _)| *stage == s.stage).map_or(
            Gate::Info,
            |&(_, budget)| Gate::AbsMax {
                budget: tsad_ingest::budget_bound(budget * b.cfg.budget_scale),
            },
        );
        doc.push(s.stage, "count", "requests", s.count, Gate::Exact);
        doc.push(s.stage, "p50_ns", "ns", s.p50_ns, Gate::Info);
        doc.push(s.stage, "p95_ns", "ns", s.p95_ns, Gate::Info);
        doc.push(s.stage, "p99_ns", "ns", s.p99_ns, p99_gate);
        doc.push(s.stage, "max_ns", "ns", s.max_ns, Gate::Info);
    }
    let apr = b.allocs_per_request();
    doc.push("request", "allocs_per_request", "allocs", apr, Gate::Exact);
    let loopback = Gate::MaxRatio {
        r: MAX_NS_PER_REQUEST_RATIO,
        floor_ns: 0,
        same_threads: true,
    };
    for (transport, r) in &b.loadgen {
        let case = format!("loadgen_{}", transport.name());
        let ns_per_request = r.elapsed_ns / r.requests.max(1);
        doc.push(&case, "errors", "requests", r.errors, Gate::Exact);
        doc.push(&case, "ns_per_request", "ns", ns_per_request, loopback);
        doc.push(&case, "requests", "requests", r.requests, Gate::Info);
        doc.push(&case, "retried", "requests", r.retried, Gate::Info);
        doc.push(&case, "p50_ns", "ns", r.p50_ns, Gate::Info);
        doc.push(&case, "p99_ns", "ns", r.p99_ns, Gate::Info);
    }
    doc.obs.push(("run".to_string(), b.obs.clone()));
    doc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One smoke run shared by the tests that only read it.
    pub(crate) fn smoke() -> &'static IngestBench {
        static RUN: OnceLock<IngestBench> = OnceLock::new();
        RUN.get_or_init(|| run(42, &IngestBenchConfig::smoke()).expect("ingest smoke run"))
    }

    #[test]
    fn smoke_run_measures_every_stage_and_both_transports() {
        let b = smoke();
        assert_eq!(b.stages.len(), 6);
        for s in &b.stages {
            assert_eq!(s.count, 128, "{}", s.stage);
            assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "{}", s.stage);
        }
        assert!(b.raw_push_ns > 0);
        assert_eq!(b.loadgen.len(), 2);
        for (t, r) in &b.loadgen {
            assert_eq!(r.errors, 0, "{t:?}: {r:?}");
            assert_eq!(r.requests, 60, "{t:?}: {r:?}");
        }
        // library tests run under the system allocator: honestly unmeasured
        assert_eq!(b.steady_allocs, None);
        assert_eq!(b.allocs_per_request(), None);
    }

    #[test]
    fn smoke_json_is_wellformed_and_parses() {
        let b = smoke();
        let json = to_doc(b).render();
        let doc = Doc::parse(&json).expect("ingest json parses");
        assert_eq!(doc.suite, "ingest");
        for stage in ["parse", "route", "push", "respond", "request", "overhead"] {
            assert!(doc.row(stage, "p99_ns").is_some(), "{stage}");
        }
        for transport in ["loadgen_http", "loadgen_tcp"] {
            assert!(
                doc.row(transport, "ns_per_request").is_some(),
                "{transport}"
            );
        }
        let allocs = doc.row("request", "allocs_per_request").unwrap();
        assert_eq!(allocs.value, crate::minijson::JsonValue::Null);
    }

    #[test]
    fn allocs_per_request_rounds_up_violations() {
        let mut forged = smoke().clone();
        forged.steady_allocs = Some(0);
        assert_eq!(forged.allocs_per_request(), Some(0));
        forged.steady_allocs = Some(1); // 1 alloc over the whole window
        assert_eq!(forged.allocs_per_request(), Some(1), "must not hide");
    }
}
