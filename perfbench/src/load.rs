//! The benchmark's own load generator, [`open_loop_http`]: one pipelined
//! keep-alive HTTP/1.1 connection, driven by one client thread that writes
//! request `i` at its due time `t0 + i/rate` whether or not earlier
//! responses have arrived, and times each response **from its request's
//! due time**. A stalled client therefore charges the stall to every
//! request due during it, instead of hiding it (coordinated omission).
//! Every sample is kept raw.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// FNV-1a 64-bit, the digest the output checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the benchmark's input generator (seeded from `--seed`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A finite value with two decimals in [-20, 20), so the HTTP text
    /// form round-trips exactly.
    pub fn value(&mut self) -> f64 {
        (self.below(4000) as f64 - 2000.0) / 100.0
    }
}

/// The open loop's schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Requests per second.
    pub rate: f64,
    /// How long the client keeps to the schedule.
    pub duration: Duration,
    /// Test hook: `(request index, pause)` makes the client sleep before
    /// request `index`, as a descheduled client would.
    pub stall: Option<(usize, Duration)>,
}

/// What the open loop saw.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Requests written.
    pub sent: u64,
    /// Response latency from each request's due time, µs, in request order.
    pub lat_us: Vec<f64>,
    /// How late the client wrote each request against its schedule, µs.
    pub gen_lag_us: Vec<f64>,
    /// Responses with a status other than 200 (503 included).
    pub non_ok: u64,
    /// Requests that got no response before the receive deadline.
    pub missing: u64,
    /// The digest passed in, extended with every response byte, in order.
    pub digest: Fnv,
    /// From the first due time to the last response, seconds.
    pub window_s: f64,
}

/// Drives `requests[next..]` (one complete HTTP request each, cycled if
/// the schedule outlasts them) over `stream` on the [`OpenLoop`]
/// schedule, folding the response bytes into `digest` (so one digest can
/// cover several phases on one connection). Returns the report and the
/// index of the next request.
///
/// One thread does both halves on a non-blocking socket: it writes
/// request `i` once its due time `t0 + i/rate` has passed, whether or not
/// earlier responses have arrived, and otherwise polls the socket for
/// responses, spinning in between. The client never sleeps in the
/// kernel, so no timer or read wake-up of its own is added to the
/// latency it measures.
pub fn open_loop_http(
    stream: &TcpStream,
    requests: &[Vec<u8>],
    next: usize,
    digest: Fnv,
    cfg: &OpenLoop,
) -> (OpenLoopReport, usize) {
    /// How long the client waits on a connection that stopped moving.
    const GIVE_UP: Duration = Duration::from_secs(5);
    let interval = Duration::from_secs_f64(1.0 / cfg.rate);
    let count = (cfg.duration.as_secs_f64() * cfg.rate).round() as usize;
    let mut sock = stream;
    sock.set_nonblocking(true)
        .expect("non-blocking client socket");

    let mut report = OpenLoopReport {
        lat_us: Vec::with_capacity(count),
        gen_lag_us: Vec::with_capacity(count),
        digest,
        ..OpenLoopReport::default()
    };
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(1024);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut last_progress = Instant::now();
    let mut last_response = t0;
    let mut stall = cfg.stall;
    while report.lat_us.len() < count {
        // send: append every request now due, in schedule order
        while report.gen_lag_us.len() < count {
            let i = report.gen_lag_us.len();
            if let Some((_, pause)) = stall.filter(|s| s.0 == i) {
                stall = None;
                std::thread::sleep(pause);
            }
            let due = t0 + interval * i as u32;
            let now = Instant::now();
            if now < due {
                break;
            }
            report
                .gen_lag_us
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            out.extend_from_slice(&requests[(next + i) % requests.len()]);
            in_flight.push_back(due);
        }
        if !out.is_empty() {
            match sock.write(&out) {
                Ok(n) if n > 0 => {
                    out.drain(..n);
                    last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                _ => break, // the server closed the connection
            }
        }
        // receive: time every complete response from its request's due time
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let now = Instant::now();
                last_progress = now;
                report.digest.update(&chunk[..n]);
                buf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some((len, status)) = http_response_len(&buf[consumed..]) {
                    consumed += len;
                    let Some(due) = in_flight.pop_front() else {
                        break;
                    };
                    report
                        .lat_us
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                    if status != 200 {
                        report.non_ok += 1;
                    }
                    last_response = now;
                }
                buf.drain(..consumed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if last_progress.elapsed() > GIVE_UP && !in_flight.is_empty() {
                    break; // the server stopped answering
                }
                std::hint::spin_loop();
            }
            Err(_) => break,
        }
    }
    sock.set_nonblocking(false).expect("blocking client socket");
    report.sent = report.gen_lag_us.len() as u64;
    report.missing = report.sent - report.lat_us.len() as u64;
    report.window_s = last_response
        .saturating_duration_since(t0)
        .as_secs_f64()
        .max(1e-9);
    (report, next + count)
}

/// `(total length, status)` of the complete HTTP response at the start of
/// `buf`, or `None` while it is incomplete.
pub fn http_response_len(buf: &[u8]) -> Option<(usize, u16)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let body = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + body).then_some((head_end + body, status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use crate::work::http_open::{requests, warm_engine};

    #[test]
    fn response_framing_needs_the_whole_body() {
        let r = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 X\r\n";
        assert_eq!(http_response_len(r), Some((41, 200)));
        assert_eq!(http_response_len(&r[..40]), None);
        assert_eq!(http_response_len(&r[41..]), None);
    }

    #[test]
    fn a_sender_stall_is_charged_to_every_request_due_during_it() {
        let server = tsad_ingest::start(
            std::sync::Arc::new(warm_engine(3)),
            tsad_ingest::ServerConfig {
                workers: 1,
                ..Default::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let reqs = requests(3, 400);
        let (at, pause) = (100usize, Duration::from_millis(60));
        let cfg = OpenLoop {
            rate: 1_000.0,
            duration: Duration::from_millis(400),
            stall: Some((at, pause)),
        };
        let (r, next) = open_loop_http(&stream, &reqs, 0, Fnv::default(), &cfg);
        server.stop().unwrap();
        assert_eq!((r.sent, next, r.missing, r.non_ok), (400, 400, 0, 0));
        assert_eq!(r.lat_us.len(), 400);

        // request `at` was due 1 ms after request at-1 and went out only
        // after the pause; request at+k was due k ms later, so it waited at
        // least pause - k ms — whatever the server did
        let pause_us = pause.as_secs_f64() * 1e6;
        for k in 0..50 {
            let owed = pause_us - 1_000.0 * k as f64;
            assert!(
                r.gen_lag_us[at + k] >= owed - 1_000.0,
                "lag[{}]={}",
                at + k,
                r.gen_lag_us[at + k]
            );
            assert!(
                r.lat_us[at + k] >= owed - 1_000.0,
                "lat[{}]={}",
                at + k,
                r.lat_us[at + k]
            );
        }
        // ~50 requests were owed at least 10 ms, more than the ten the p99
        // rule leaves beyond it, so the stall shows in gen_lag_p99
        let lag = Summary::of(&r.gen_lag_us).unwrap();
        assert!(lag.p99 >= 10_000.0, "gen lag p99 {} us", lag.p99);
        let lat = Summary::of(&r.lat_us).unwrap();
        assert!(lat.p99 >= 10_000.0, "latency p99 {} us", lat.p99);
    }
}
