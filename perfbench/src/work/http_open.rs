//! `score-http-open`: an open loop of pipelined `POST /score` requests on
//! one keep-alive HTTP/1.1 connection, at a fixed rate, against a
//! 10k-series non-durable engine served by one worker.

use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsad_fleet::{BatchOutput, SeriesId};
use tsad_ingest::{Conn, ConnConfig, Engine, EngineConfig, ServerConfig, ServerHandle};

use super::{fleet, phases, repeated_setup, Factory};
use crate::layers::{ObsWindow, ParallelAcc};
use crate::load::{open_loop_http, Fnv, OpenLoop, OpenLoopReport, Rng};
use crate::stats::{Summary, Waterfall};
use crate::{Args, Run};

/// Set-ups per run (a few milliseconds each; the first few dozen of a
/// process run slower, so the median needs many).
pub const SETUPS: usize = 100;
/// Series in the fleet (cache-resident).
pub const SERIES: u64 = 10_000;
/// Points per request.
pub const POINTS: usize = 16;
/// Offered load, requests per second.
pub const RATE: f64 = 2_000.0;
/// Unmeasured warm-up at the same rate.
pub const WARMUP: Duration = Duration::from_millis(1_000);

/// The request stream for `seed`: `count` complete `POST /score`
/// requests, each naming [`POINTS`] series drawn in turn from a seeded
/// permutation of the fleet.
pub fn requests(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 1);
    let mut perm: Vec<u64> = (0..SERIES).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut body = String::new();
    (0..count)
        .map(|r| {
            body.clear();
            for k in 0..POINTS {
                let id = perm[(r * POINTS + k) % perm.len()];
                let _ = writeln!(body, "{id} {:.2}", rng.value());
            }
            let mut req = format!(
                "POST /score HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            req.extend_from_slice(body.as_bytes());
            req
        })
        .collect()
}

/// A fresh engine with every series spawned by one seeded point each.
pub fn warm_engine(seed: u64) -> Engine<Factory> {
    let engine = Engine::new(fleet(SERIES), EngineConfig::default());
    let mut rng = Rng::new(seed, 2);
    let batch: Vec<(SeriesId, f64)> = (0..SERIES).map(|id| (SeriesId(id), rng.value())).collect();
    let mut out = BatchOutput::new();
    let mut t = Default::default();
    engine
        .submit(&batch, &mut out, &mut t)
        .expect("the warm-up batch fits the engine");
    engine
}

struct Served {
    server: ServerHandle,
    stream: TcpStream,
}

fn serve(seed: u64) -> std::io::Result<Served> {
    let engine = Arc::new(warm_engine(seed));
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = tsad_ingest::start(engine, cfg, "127.0.0.1:0")?;
    let stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    Ok(Served { server, stream })
}

/// Runs the workload.
pub fn run(args: &Args) -> std::io::Result<Run> {
    let plan = phases(args.seconds, args.trace);
    let total_s = WARMUP.as_secs_f64() + plan.iter().map(|p| p.1.as_secs_f64()).sum::<f64>();
    let reqs = requests(args.seed, (total_s * RATE).ceil() as usize + 1);

    let (served, setup_s) = repeated_setup(SETUPS, |_| serve(args.seed))?;
    let mut next = 0;
    let mut digest = Fnv::default();
    let mut sent = 0u64;
    let mut failed = 0u64;
    let warm = OpenLoop {
        rate: RATE,
        duration: WARMUP,
        stall: None,
    };
    let (w, n) = open_loop_http(&served.stream, &reqs, next, digest, &warm);
    (next, digest) = (n, w.digest);
    sent += w.sent;
    failed += w.non_ok + w.missing;

    let mut measured: Vec<(OpenLoopReport, Option<ObsWindow>)> = Vec::new();
    for (traced, len) in plan {
        let cfg = OpenLoop {
            rate: RATE,
            duration: len,
            stall: None,
        };
        let mut window = traced.then(ObsWindow::open);
        let (r, n) = open_loop_http(&served.stream, &reqs, next, digest, &cfg);
        if let Some(w) = window.as_mut() {
            w.close();
        }
        (next, digest) = (n, r.digest);
        sent += r.sent;
        failed += r.non_ok + r.missing;
        measured.push((r, window));
    }
    let peak_rss = crate::env::peak_rss_mb();
    served.server.stop()?;
    drop(served.stream);

    // Output check: the same request bytes fed through `Conn::feed` on a
    // fresh engine must produce the same response bytes.
    let reference = warm_engine(args.seed);
    let mut conn = Conn::new(ConnConfig::default());
    let mut ref_digest = Fnv::default();
    let mut feed_ns = 0f64;
    for i in 0..next {
        let t = Instant::now();
        conn.feed(&reqs[i % reqs.len()], &reference);
        feed_ns += t.elapsed().as_nanos() as f64;
        ref_digest.update(conn.output());
        let n = conn.output().len();
        conn.consume_output(n);
    }

    let mut run = Run {
        attempted: sent,
        failed,
        ..Run::default()
    };
    run.check(
        "responses_match_conn_feed",
        ref_digest == digest && next as u64 == sent,
        format!(
            "socket digest {:016x}, Conn::feed digest {:016x}, {sent} requests",
            digest.0, ref_digest.0
        ),
    );
    run.notes.push(format!(
        "open loop: {RATE} req/s x {POINTS} points, {SERIES} series, 1 connection, server workers=1"
    ));

    let untraced = &measured[0].0;
    let lat = Summary::of(&untraced.lat_us).unwrap_or(Summary::EMPTY);
    run.notes.push(format!(
        "latency from due time: p50 {:.1} us, p{:.2} {:.1} us, tail p{:.3} {:.1} us, max {:.1} us, n={}",
        lat.p50,
        lat.p99_q * 100.0,
        lat.p99,
        lat.tail_q * 100.0,
        lat.tail,
        lat.max,
        lat.n
    ));
    run.set("lat_p99_us", lat.p99);
    if !untraced.lat_us.is_empty() {
        let mut sorted = untraced.lat_us.clone();
        sorted.sort_by(f64::total_cmp);
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.1}", crate::stats::quantile(&sorted, d as f64 / 10.0)))
            .collect();
        run.notes.push(format!(
            "latency deciles p10..p90 (us): {}",
            deciles.join(" ")
        ));
    }
    if !args.trace {
        let ok = untraced.lat_us.len() as u64 - untraced.non_ok;
        run.set("setup_s", setup_s);
        run.set("lat_p50_us", lat.p50);
        run.set(
            "throughput_pts_s",
            (ok * POINTS as u64) as f64 / untraced.window_s,
        );
        run.set("peak_rss_mb", peak_rss);
        return Ok(run);
    }

    let (traced, window) = &measured[1];
    let w = window.as_ref().expect("the traced phase has an obs window");
    let t_lat = Summary::of(&traced.lat_us).unwrap_or(Summary::EMPTY);
    let lag = Summary::of(&traced.gen_lag_us).unwrap_or(Summary::EMPTY);
    run.set(
        "server.unattributed_us",
        t_lat.mean - w.mean("ingest.request_ns") / 1e3,
    );
    run.set("conn.parse_ns", w.mean("ingest.parse_ns"));
    run.set("conn.respond_ns", w.mean("ingest.respond_ns"));
    run.set("conn.feed_ns_per_req", feed_ns / next.max(1) as f64);
    run.set("client.gen_lag_p99_us", lag.p99);
    run.set("engine.route_ns", w.mean("ingest.route_ns"));
    run.set("engine.push_us", w.mean("ingest.push_ns") / 1e3);
    run.set("fleet.push_us", w.mean("fleet.push_batch_ns") / 1e3);
    // the server worker fans every request's batch out at the default
    // thread count: one scoped spawn per request
    let mut par = ParallelAcc::default();
    par.add(w, traced.window_s);
    let (busy, wait) = par.rows();
    run.set("parallel.busy_share", busy);
    run.set("parallel.queue_wait_us", wait);
    let wf = Waterfall {
        total_label: "client mean latency",
        unit: "us",
        total: t_lat.mean,
        rows: vec![
            ("conn.parse", w.mean("ingest.parse_ns") / 1e3),
            ("engine.route", w.mean("ingest.route_ns") / 1e3),
            ("engine.push", w.mean("ingest.push_ns") / 1e3),
            ("conn.respond", w.mean("ingest.respond_ns") / 1e3),
        ],
    };
    run.set("waterfall.unattributed_share", wf.unattributed_share());
    run.set(
        "waterfall.tracing_overhead_share",
        (t_lat.p50 - lat.p50) / lat.p50,
    );
    run.notes.push(format!(
        "tracing overhead: traced p50 {:.1} us - untraced p50 {:.1} us = {:.1} us",
        t_lat.p50,
        lat.p50,
        t_lat.p50 - lat.p50
    ));
    run.waterfall = Some(wf);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_seeded_and_well_formed() {
        let a = requests(7, 3);
        assert_eq!(a, requests(7, 3));
        assert_ne!(a, requests(8, 3));
        for r in &a {
            let head_end = r.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            assert_eq!(
                r[head_end..].iter().filter(|&&b| b == b'\n').count(),
                POINTS
            );
        }
    }
}
