//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public APIs of the workspace crates,
//! prints an environment header, one `metric <name> <value> <unit>` line
//! per metric, the output checks, and — as the last line — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload once
//! untraced and once traced and reports the per-layer metrics, the
//! waterfall and the tracing overhead. See `perfbench/README.md`.

mod env;
mod layers;
mod load;
mod stats;
mod work;

use std::process::ExitCode;

use stats::Waterfall;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("throughput_pts_s", "pts/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports each one; a
/// layer the workload does not pass through reads 0. `lat_p99_us` is the
/// untraced half's tail latency: an end-to-end figure, listed here because
/// its run-to-run spread on a shared host exceeds any bound the benchmark
/// could hold it to. It reads 0 where a run has too few operations for a
/// 99th percentile (`recover-replay`).
pub const PER_LAYER: [(&str, &str); 23] = [
    ("lat_p99_us", "us"),
    ("server.unattributed_us", "us"),
    ("conn.parse_ns", "ns"),
    ("conn.respond_ns", "ns"),
    ("conn.feed_ns_per_req", "ns"),
    ("client.gen_lag_p99_us", "us"),
    ("engine.route_ns", "ns"),
    ("engine.push_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_point", "B"),
    ("wal.scan_s", "s"),
    ("wal.scan_mb_s", "MiB/s"),
    ("fleet.push_us", "us"),
    ("fleet.push_ns_per_point", "ns"),
    ("fleet.restore_s", "s"),
    ("fleet.replay_s", "s"),
    ("fleet.bytes_per_series", "B"),
    ("detector.update_ns_per_point", "ns"),
    ("parallel.busy_share", "share"),
    ("parallel.queue_wait_us", "us"),
    ("recover_s", "s"),
    ("waterfall.unattributed_share", "share"),
    ("waterfall.tracing_overhead_share", "share"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["score-http-open", "recover-replay"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: u64,
    /// Traced mode.
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be in 1..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Operations attempted (requests or restarts).
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced run's decomposition of its end-to-end value.
    pub waterfall: Option<Waterfall>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Run {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value));
    }

    /// Adds an output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn report(args: &Args, run: &Run) {
    for n in &run.notes {
        println!("# {n}");
    }
    let failed = if run.correct() {
        run.failed
    } else {
        run.attempted
    };
    let failed_frac = failed as f64 / run.attempted.max(1) as f64;
    println!(
        "ops attempted={} failed={failed} failed_frac={failed_frac:?}",
        run.attempted
    );
    for c in &run.checks {
        println!(
            "check {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    if let Some(w) = &run.waterfall {
        println!(
            "waterfall total {} = {:?} {}",
            w.total_label, w.total, w.unit
        );
        for (name, v) in w.all_rows() {
            println!("waterfall row {name} {v:?} {}", w.unit);
        }
    }
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in list {
        let v = run.get(name);
        println!("metric {name} {v:?} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted.max(1),
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = match env::RunDir::create(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    env::print_header(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        run_dir.path(),
    );
    let result = match args.workload.as_str() {
        "score-http-open" => work::http_open::run(&args),
        "recover-replay" => work::recover::run(&args, run_dir.path()),
        _ => unreachable!("validated in parse_args"),
    };
    match result {
        Ok(run) => {
            report(&args, &run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload recover-replay --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("recover-replay", 7, 10, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload recover-replay").is_err());
        assert!(args("--workload recover-replay --seed 1 --trace 2").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names_in = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("key present");
            let end = text[start..].find(']').expect("list closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layers);
        assert_eq!(names_in("workloads"), WORKLOADS);
    }
}
