//! **catalog** — the full detector registry run through the paper's
//! Table-1 setting: every [`DetectorRegistry`] entry, at its default
//! parameters, over the simulated Yahoo benchmark, scored by the UCR
//! convention (argmax inside the labeled region, ±100 slop).
//!
//! The point is the paper's triviality argument at catalog scale: the
//! one-liner row is the *bar*, and the table shows which of the other
//! twenty-odd detectors clear it. On a benchmark where `abs(diff) >
//! c·movstd + b` wins, sophistication buys little — exactly §2.2's
//! "illusion of progress".
//!
//! Hit counts are exact integers, deterministic in the seed, so in
//! `BENCH_catalog.json` every (detector, family) cell's `hits` and
//! `series` are `exact` rows: a vanished cell or a changed hit count fails
//! the `catalog-smoke` CI job outright. Per-detector wall time (summed
//! over families) is gated at [`MAX_WALL_RATIO`] above the
//! [`WALL_NOISE_FLOOR_NS`] noise floor. The scoring loop is deliberately
//! sequential so wall numbers do not depend on `TSAD_THREADS` — the smoke
//! job runs the same gate at 1 and 4 threads.

use std::fmt::Write as _;

use tsad_core::{Labels, Result};
use tsad_detectors::registry::{DetectorRegistry, Params};
use tsad_eval::report::TextTable;
use tsad_synth::yahoo::{self, Family};

use crate::gate::{Doc, Env, Gate, MAX_WALL_RATIO};
use crate::harness::time;

/// UCR-style slop appended to each labeled region (the archive convention
/// the paper scores by).
pub const SLOP: usize = 100;

/// Train prefix handed to every detector (the simulated series are 1400
/// points; the real benchmark's splits hover around this fraction).
pub const TRAIN_LEN: usize = 350;

/// Per-detector walls below this (summed over families) are too small to
/// ratio-gate honestly — a cheap baseline finishes the whole grid in a
/// couple of milliseconds, where a page fault or scheduler tick reads as
/// a 2x "regression". The comparator notes such rows instead of gating them;
/// the expensive detectors (matrix profile, MERLIN, HOT SAX, 1-NN,
/// isolation forest) are all far above the floor and stay gated.
pub const WALL_NOISE_FLOOR_NS: u64 = 20_000_000;

/// Experiment size knobs.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Series per Yahoo family (the full benchmark is 67/100/100/100).
    pub per_family: usize,
}

impl CatalogConfig {
    /// CI scale: small enough that the committed baseline regenerates in
    /// seconds on any machine, large enough that hit counts separate the
    /// detectors.
    pub fn ci() -> Self {
        Self { per_family: 4 }
    }
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self { per_family: 8 }
    }
}

/// One (detector, family) cell. `hits`/`series` are exact-gated; `wall_ns`
/// is ratio-gated per detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    /// Registry id (`DetectorEntry::id`).
    pub detector: String,
    /// Yahoo family (`A1`..`A4`).
    pub family: String,
    /// Series whose score argmax landed inside a labeled region ± slop.
    pub hits: usize,
    /// Series scored in this cell.
    pub series: usize,
    /// Wall time for the whole cell, sequential, in ns.
    pub wall_ns: u64,
}

/// Everything the experiment produces.
#[derive(Debug, Clone)]
pub struct CatalogExperiment {
    /// Seed the benchmark was generated from.
    pub seed: u64,
    /// Where the run measured (seed, SIMD dispatch, threads).
    pub env: Env,
    /// Series per family.
    pub per_family: usize,
    /// Registry size when the experiment ran (docs-drift cross-check).
    pub detector_count: usize,
    /// One row per registry entry × family, registry order.
    pub rows: Vec<CatalogRow>,
}

fn is_hit(pred: usize, labels: &Labels) -> bool {
    labels
        .regions()
        .iter()
        .any(|r| pred + SLOP >= r.start && pred < r.end + SLOP)
}

/// Runs the full catalog × family grid. Deterministic in `seed` (wall
/// times aside), independent of `TSAD_THREADS` by construction.
pub fn run(seed: u64, cfg: &CatalogConfig) -> Result<CatalogExperiment> {
    let reg = DetectorRegistry::standard();
    let mut rows = Vec::new();
    for entry in reg.entries() {
        for family in Family::all() {
            let count = cfg.per_family.min(family.size());
            let mut hits = 0;
            let mut built = Ok(());
            // one sample: the cell's wall is the whole sequential pass
            let wall = time(0, 1, &mut || {
                for index in 1..=count {
                    let series = yahoo::generate(seed, family, index);
                    let det = match entry.build(&Params::new()) {
                        Ok(det) => det,
                        Err(e) => {
                            built = Err(e);
                            return;
                        }
                    };
                    // a detector refusing a series (e.g. the seasonal
                    // methods on an aperiodic signal) is a deterministic
                    // miss, not an experiment failure
                    let Ok(scores) = det.score(series.dataset.series(), TRAIN_LEN) else {
                        continue;
                    };
                    let pred = scores
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    if is_hit(pred, series.dataset.labels()) {
                        hits += 1;
                    }
                }
            });
            built?;
            rows.push(CatalogRow {
                detector: entry.id.to_string(),
                family: family.to_string(),
                hits,
                series: count,
                wall_ns: wall.median_ns,
            });
        }
    }
    Ok(CatalogExperiment {
        seed,
        env: Env::current(seed),
        per_family: cfg.per_family,
        detector_count: reg.len(),
        rows,
    })
}

/// Total hits/series for one detector across families.
fn totals(exp: &CatalogExperiment, detector: &str) -> (usize, usize) {
    exp.rows
        .iter()
        .filter(|r| r.detector == detector)
        .fold((0, 0), |(h, s), r| (h + r.hits, s + r.series))
}

/// Renders the human-readable table: detectors as rows, families as
/// columns, the one-liner triviality bar called out at the bottom.
pub fn render(exp: &CatalogExperiment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Catalog × Yahoo triviality grid — {} detectors, {} series/family (seed {})",
        exp.detector_count, exp.per_family, exp.seed
    );
    let _ = writeln!(
        out,
        "(UCR hits: argmax inside the labeled region ± {SLOP}; `oneliner` is the triviality bar)"
    );
    let (bar_hits, bar_series) = totals(exp, "oneliner");
    let mut t = TextTable::new(vec!["detector", "A1", "A2", "A3", "A4", "total", "vs bar"]);
    let mut detectors: Vec<&str> = exp.rows.iter().map(|r| r.detector.as_str()).collect();
    detectors.dedup();
    for det in detectors {
        let cell = |fam: &str| {
            exp.rows
                .iter()
                .find(|r| r.detector == det && r.family == fam)
                .map_or("-".to_string(), |r| format!("{}/{}", r.hits, r.series))
        };
        let (h, s) = totals(exp, det);
        let vs = if det == "oneliner" {
            "= bar".to_string()
        } else if h >= bar_hits {
            "clears".to_string()
        } else {
            "below".to_string()
        };
        t.row(vec![
            det.to_string(),
            cell("A1"),
            cell("A2"),
            cell("A3"),
            cell("A4"),
            format!("{h}/{s}"),
            vs,
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "triviality bar (one-liner): {bar_hits}/{bar_series} — detectors at or above it add \
         nothing this benchmark can measure"
    );
    out
}

/// The `BENCH_catalog.json` rows: per cell, `hits` and `series` exact
/// and the cell wall as `info`; per detector, the family-summed wall at
/// [`MAX_WALL_RATIO`] above [`WALL_NOISE_FLOOR_NS`].
pub fn to_doc(exp: &CatalogExperiment) -> Doc {
    let mut doc = Doc::new("catalog", exp.env.clone());
    let wall = Gate::MaxRatio {
        r: MAX_WALL_RATIO,
        floor_ns: WALL_NOISE_FLOOR_NS,
        same_threads: false,
    };
    let mut detectors: Vec<&str> = exp.rows.iter().map(|r| r.detector.as_str()).collect();
    detectors.dedup();
    for det in detectors {
        let mut sum = 0;
        for r in exp.rows.iter().filter(|r| r.detector == det) {
            let case = format!("{}/{}", r.detector, r.family);
            doc.push(&case, "hits", "series", r.hits as u64, Gate::Exact);
            doc.push(&case, "series", "series", r.series as u64, Gate::Exact);
            doc.push(&case, "wall_ns", "ns", r.wall_ns, Gate::Info);
            sum += r.wall_ns;
        }
        doc.push(det, "wall_ns", "ns", sum, wall);
    }
    doc
}

/// Generates `DETECTORS.md` from the live registry — the committed copy is
/// CI-diffed against this output, so the docs cannot drift from the code.
pub fn detectors_md() -> String {
    let reg = DetectorRegistry::standard();
    let mut out = String::new();
    out.push_str("# Detector catalog\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit. Regenerate with:\n     \
         cargo run --release -p tsad-bench --bin repro -- detectors-md\n     \
         CI (docs-drift) fails if this file does not match the registry. -->\n\n",
    );
    let _ = writeln!(
        out,
        "The registry (`tsad_detectors::DetectorRegistry::standard()`) exposes \
         **{} detectors**. Every entry builds from the same table that drives \
         the batch experiments, the streaming engine (`tsad-stream`'s \
         `StreamRegistry` — native port or batch-adapter per the *streaming* \
         column), checkpoint name-fingerprints, and `tsad-fleet` spawning.\n",
        reg.len()
    );
    out.push_str("| id | name | category | cost | streaming | summary |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for e in reg.entries() {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            e.id,
            e.display,
            e.category.as_str(),
            e.cost.as_str(),
            e.streaming.label(),
            e.summary
        );
    }
    out.push_str("\n## Parameters\n");
    for e in reg.entries() {
        let _ = writeln!(out, "\n### `{}` — {}\n", e.id, e.display);
        if e.params.is_empty() {
            out.push_str("No parameters.\n");
            continue;
        }
        out.push_str("| parameter | type | default | description |\n");
        out.push_str("|---|---|---|---|\n");
        for p in e.params {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} |",
                p.name,
                p.default.type_name(),
                p.default.render(),
                p.doc
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::compare;

    fn tiny() -> CatalogExperiment {
        run(7, &CatalogConfig { per_family: 1 }).unwrap()
    }

    fn json(exp: &CatalogExperiment) -> String {
        to_doc(exp).render()
    }

    #[test]
    fn grid_covers_every_entry_and_family() {
        let exp = tiny();
        assert_eq!(exp.rows.len(), exp.detector_count * 4);
        assert!(exp.rows.iter().all(|r| r.hits <= r.series && r.series == 1));
    }

    #[test]
    fn hit_counts_are_deterministic_and_json_roundtrips_exactly() {
        let a = tiny();
        let b = tiny();
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((x.hits, x.series), (y.hits, y.series), "{}", x.detector);
        }
        // a real smoke run compares clean against itself, and against a
        // second run
        let report = compare(&json(&a), &json(&a)).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        let report = compare(&json(&a), &json(&b)).unwrap();
        assert!(report.failures.iter().all(|f| f.contains("regression")));
    }

    #[test]
    fn compare_fails_on_changed_hits_and_vanished_rows() {
        let exp = tiny();
        let base = json(&exp);
        let mut tampered = exp.clone();
        tampered.rows[0].hits += 1;
        let report = compare(&base, &json(&tampered)).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("/hits: value changed")),
            "{:?}",
            report.failures
        );

        let mut shrunk = exp.clone();
        shrunk.rows.remove(0);
        let report = compare(&base, &json(&shrunk)).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("missing from the fresh run")),
            "{:?}",
            report.failures
        );
    }

    fn one_row(wall_ns: u64) -> CatalogExperiment {
        CatalogExperiment {
            seed: 7,
            env: Env::current(7),
            per_family: 1,
            detector_count: 1,
            rows: vec![CatalogRow {
                detector: "x".to_string(),
                family: "A1".to_string(),
                hits: 1,
                series: 1,
                wall_ns,
            }],
        }
    }

    #[test]
    fn wall_ratio_gates_above_the_noise_floor_and_notes_below_it() {
        // below the floor on both sides: an arbitrarily bad ratio is a
        // note, not a failure
        let report = compare(&json(&one_row(1_000_000)), &json(&one_row(10_000_000))).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert!(
            report.notes.iter().any(|n| n.contains("floor")),
            "{:?}",
            report.notes
        );

        // above the floor: the same 10x ratio fails the gate
        let report = compare(
            &json(&one_row(WALL_NOISE_FLOOR_NS)),
            &json(&one_row(WALL_NOISE_FLOOR_NS * 10)),
        )
        .unwrap();
        assert!(
            report.failures.iter().any(|f| f.contains("regression")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn detectors_md_reflects_the_registry() {
        let md = detectors_md();
        let reg = DetectorRegistry::standard();
        assert!(md.contains(&format!("**{} detectors**", reg.len())));
        for e in reg.entries() {
            assert!(md.contains(&format!("| `{}` |", e.id)), "{}", e.id);
        }
        assert!(md.contains("GENERATED FILE"));
    }
}
