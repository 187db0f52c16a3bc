//! The two workloads. Each `run` sets up, measures for `--seconds`,
//! checks its outputs, and returns the metrics of its mode.

pub mod http_open;
pub mod recover;

use std::time::{Duration, Instant};

use tsad_detectors::cusum::Cusum;
use tsad_fleet::{Fleet, FleetConfig};
use tsad_stream::{
    DetectorFactory, FnFactory, NanPolicy, Sanitized, StreamingCusum, StreamingDetector,
};

use crate::load::Rng;

/// The serving detector: `Sanitized<StreamingCusum>` (train 8, NaN skip),
/// the configuration of the fleet and ingest benches.
pub type Detector = Sanitized<StreamingCusum>;
/// Factory spawning [`Detector`]s.
pub type Factory = FnFactory<fn(u64) -> Detector>;

fn spawn_detector(_id: u64) -> Detector {
    let cusum = StreamingCusum::new(Cusum::default(), 8).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

/// The serving detector factory.
pub fn factory() -> Factory {
    FnFactory(spawn_detector as fn(u64) -> Detector)
}

/// A fleet for `series` series (shard count as in the ingest bench).
pub fn fleet(series: u64) -> Fleet<Factory> {
    Fleet::new(
        factory(),
        FleetConfig {
            shards: (series / 1024).clamp(4, 64) as usize,
            ..FleetConfig::default()
        },
    )
}

/// Runs the set-up `f` `times` times, keeping the last result; returns it
/// with the median set-up time in seconds (`setup_s`). Earlier results
/// are dropped (and their servers stopped) before the next set-up starts.
pub fn repeated_setup<T>(
    times: usize,
    mut f: impl FnMut(usize) -> std::io::Result<T>,
) -> std::io::Result<(T, f64)> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = f(i)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        last.expect("at least one set-up"),
        crate::stats::median(&secs),
    ))
}

/// Measurement phases: `(traced, length)`. Untraced runs measure once;
/// traced runs measure an untraced half, then a traced half, so the
/// tracing overhead is their difference under the same state.
pub fn phases(seconds: u64, trace: bool) -> Vec<(bool, Duration)> {
    if trace {
        let half = Duration::from_secs_f64(seconds as f64 / 2.0);
        vec![(false, half), (true, half)]
    } else {
        vec![(false, Duration::from_secs(seconds))]
    }
}

/// Uniform random points over `series` series with seeded values — the
/// serving workloads' point pattern — pushed through bare detectors, one
/// per series, with no fleet around them: nanoseconds per point.
pub fn bare_detector_ns(seed: u64, series: u64) -> f64 {
    const POINTS: usize = 1 << 20;
    let f = factory();
    let mut dets: Vec<_> = (0..series).map(|id| f.spawn(id)).collect();
    let mut rng = Rng::new(seed, 4);
    for d in &mut dets {
        d.push(rng.value());
    }
    let pts: Vec<(usize, f64)> = (0..POINTS)
        .map(|_| (rng.below(series) as usize, rng.value()))
        .collect();
    let t = Instant::now();
    let mut sink = 0.0;
    for &(i, v) in &pts {
        if let Some(s) = dets[i].push(v) {
            sink += s;
        }
    }
    std::hint::black_box(sink);
    t.elapsed().as_nanos() as f64 / POINTS as f64
}
