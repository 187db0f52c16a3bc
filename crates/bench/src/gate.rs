//! The one bench document format, `tsad-bench/v1`, and its one comparator.
//!
//! Every suite (`repro -- bench <suite>`) writes the same shape: a header
//! naming the suite and the environment it ran in ([`Env`]), then rows of
//! `{suite, case, metric, unit, value, gate}`. The suite's code sets each
//! row's [`Gate`], so the document says how each number is compared and
//! [`compare`] needs no per-suite code:
//!
//! | gate | the fresh run fails when |
//! |---|---|
//! | `exact` | its value differs from the baseline's |
//! | `max_ratio{r, floor_ns}` | fresh / baseline > `r`; rows under `floor_ns` on both sides are only noted, and a `same_threads` row is only compared between runs with equal `threads` |
//! | `abs_max{budget}` | its value exceeds `budget` |
//! | `must_be_true` | its value is not `true` |
//! | `info` | never: recorded, not gated |
//!
//! Each row is judged by the gate the *fresh* run carries (the code's), and
//! a committed row whose gate differs fails: a hand-edited baseline cannot
//! loosen a gate. A baseline row missing from the fresh run fails; a
//! fresh-only row is a note (that is what adding a measurement looks like).
//! A schema drift is an error whose message names the regenerate command.
//! A `null` value is a measurement the run could not take (allocation
//! counts without the counting allocator).

use std::fmt::Write as _;

use crate::minijson::{parse, JsonValue};

/// The schema string every bench document carries.
pub const SCHEMA: &str = "tsad-bench/v1";

/// The wall-time ratio limit of in-process timing rows: generous enough to
/// absorb CI-runner noise, tight enough to catch real (2×-style)
/// regressions.
pub const MAX_WALL_RATIO: f64 = 1.30;

/// How one row is compared against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The fresh value must equal the baseline's.
    Exact,
    /// `fresh / base` must not exceed `r`. Rows whose baseline and fresh
    /// values are both under `floor_ns` are noted instead (the ratio
    /// measures jitter there); `same_threads` rows are compared only when
    /// both documents have the same `threads`.
    MaxRatio {
        /// Ratio limit.
        r: f64,
        /// Noise floor, in the row's unit.
        floor_ns: u64,
        /// Compare only between runs with the same worker count.
        same_threads: bool,
    },
    /// The fresh value must not exceed `budget`.
    AbsMax {
        /// Upper bound, in the row's unit.
        budget: u64,
    },
    /// The fresh value must be `true`.
    MustBeTrue,
    /// Recorded, never gated.
    Info,
}

impl Gate {
    /// The in-process wall-time gate: [`MAX_WALL_RATIO`], no floor.
    pub const WALL: Gate = Gate::MaxRatio {
        r: MAX_WALL_RATIO,
        floor_ns: 0,
        same_threads: false,
    };

    fn to_json(self) -> String {
        match self {
            Gate::Exact => r#"{"kind": "exact"}"#.to_string(),
            Gate::MaxRatio {
                r,
                floor_ns,
                same_threads,
            } => format!(
                r#"{{"kind": "max_ratio", "r": {r}, "floor_ns": {floor_ns}, "same_threads": {same_threads}}}"#
            ),
            Gate::AbsMax { budget } => format!(r#"{{"kind": "abs_max", "budget": {budget}}}"#),
            Gate::MustBeTrue => r#"{"kind": "must_be_true"}"#.to_string(),
            Gate::Info => r#"{"kind": "info"}"#.to_string(),
        }
    }

    fn from_json(v: &JsonValue) -> Result<Gate, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("gate lacks number {k:?}"))
        };
        let int = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("gate lacks integer {k:?}"))
        };
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("exact") => Ok(Gate::Exact),
            Some("max_ratio") => Ok(Gate::MaxRatio {
                r: num("r")?,
                floor_ns: int("floor_ns")?,
                same_threads: v
                    .get("same_threads")
                    .and_then(JsonValue::as_bool)
                    .ok_or("gate lacks bool \"same_threads\"")?,
            }),
            Some("abs_max") => Ok(Gate::AbsMax {
                budget: int("budget")?,
            }),
            Some("must_be_true") => Ok(Gate::MustBeTrue),
            Some("info") => Ok(Gate::Info),
            other => Err(format!("unknown gate kind {other:?}")),
        }
    }
}

/// The environment a document was measured in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Seed every input was generated from.
    pub seed: u64,
    /// SIMD backend the run dispatched to (`avx2`, `sse2`, `neon`, `scalar`).
    pub dispatch: String,
    /// f64 lanes per vector on that backend.
    pub lane_width: u64,
    /// Effective worker count (`TSAD_THREADS`-aware).
    pub threads: u64,
    /// Cores the host offers (`available_parallelism`).
    pub host_threads: u64,
}

impl Env {
    /// The calling thread's environment now.
    pub fn current(seed: u64) -> Self {
        let backend = tsad_core::simd::current();
        Self {
            seed,
            dispatch: backend.name().to_string(),
            lane_width: backend.lane_width() as u64,
            threads: tsad_parallel::current_threads() as u64,
            host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        }
    }
}

/// One measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What was measured (a kernel, a stage, a detector/family cell, …).
    pub case: String,
    /// Which number of the case.
    pub metric: String,
    /// Unit of `value`.
    pub unit: String,
    /// A number, a bool, or `null` (not measured in this process).
    pub value: JsonValue,
    /// How the row is compared.
    pub gate: Gate,
}

/// One suite's document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Suite name (`kernels`, `fleet`, `ingest`, `wal`, `catalog`, `faults`).
    pub suite: String,
    /// Where it ran.
    pub env: Env,
    /// The measurements, in suite order.
    pub rows: Vec<Row>,
    /// Observability snapshots by case, written for reading and never
    /// compared (empty on a parsed document).
    pub obs: Vec<(String, tsad_obs::Snapshot)>,
}

/// The command that regenerates `suite`'s committed document.
fn regen_command(suite: &str) -> String {
    format!(
        "cargo run --release -p tsad-bench --bin repro -- bench {suite} --out BENCH_{suite}.json"
    )
}

impl Doc {
    /// An empty document for `suite`.
    pub fn new(suite: &str, env: Env) -> Self {
        Self {
            suite: suite.to_string(),
            env,
            rows: Vec::new(),
            obs: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(
        &mut self,
        case: impl Into<String>,
        metric: &str,
        unit: &str,
        value: impl Into<JsonValue>,
        gate: Gate,
    ) {
        self.rows.push(Row {
            case: case.into(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            value: value.into(),
            gate,
        });
    }

    /// The row for (`case`, `metric`).
    pub fn row(&self, case: &str, metric: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.case == case && r.metric == metric)
    }

    /// Renders the document as JSON, one row per line.
    pub fn render(&self) -> String {
        let str_ = |s: &str| JsonValue::Str(s.to_string());
        let e = &self.env;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"suite\": {},", str_(&self.suite));
        let _ = writeln!(
            out,
            "  \"env\": {{\"seed\": {}, \"dispatch\": {}, \"lane_width\": {}, \"threads\": {}, \
             \"host_threads\": {}}},",
            e.seed,
            str_(&e.dispatch),
            e.lane_width,
            e.threads,
            e.host_threads
        );
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"suite\": {}, \"case\": {}, \"metric\": {}, \"unit\": {}, \
                 \"value\": {}, \"gate\": {}}}",
                if i == 0 { "" } else { "," },
                str_(&self.suite),
                str_(&r.case),
                str_(&r.metric),
                str_(&r.unit),
                r.value,
                r.gate.to_json()
            );
        }
        out.push_str("\n  ],\n  \"obs\": {");
        for (i, (case, snap)) in self.obs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {}: {}",
                if i == 0 { "" } else { "," },
                str_(case),
                tsad_obs::render_json(snap, 4)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Reads a document (rows and header; `obs` is not read back).
    pub fn parse(text: &str) -> Result<Doc, String> {
        Self::from_json(&parse(text).map_err(|e| e.to_string())?)
    }

    fn from_json(doc: &JsonValue) -> Result<Doc, String> {
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let text = |v: &JsonValue, k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {k:?}"))
        };
        let suite = text(doc, "suite")?;
        let env = doc.get("env").ok_or("missing \"env\"")?;
        let int = |k: &str| {
            env.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("env lacks integer {k:?}"))
        };
        let env = Env {
            seed: int("seed")?,
            dispatch: text(env, "dispatch")?,
            lane_width: int("lane_width")?,
            threads: int("threads")?,
            host_threads: int("host_threads")?,
        };
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_arr)
            .ok_or("missing \"rows\" array")?
            .iter()
            .map(|r| {
                if text(r, "suite")? != suite {
                    return Err(format!("row of another suite in a {suite} document"));
                }
                let value = r.get("value").ok_or("row lacks \"value\"")?;
                if !matches!(
                    value,
                    JsonValue::Null | JsonValue::Bool(_) | JsonValue::Num(_)
                ) {
                    return Err(format!("row value {value} is not a number, bool or null"));
                }
                Ok(Row {
                    case: text(r, "case")?,
                    metric: text(r, "metric")?,
                    unit: text(r, "unit")?,
                    value: value.clone(),
                    gate: Gate::from_json(r.get("gate").ok_or("row lacks \"gate\"")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Doc {
            suite,
            env,
            rows,
            obs: Vec::new(),
        })
    }
}

/// The comparison outcome: a delta table plus the failed checks (empty =
/// the gate passes) and non-fatal notes.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// One rendered table line per baseline row.
    pub rows: Vec<String>,
    /// Human-readable failures; the gate passes iff this is empty.
    pub failures: Vec<String>,
    /// Observations that do not fail the gate.
    pub notes: Vec<String>,
}

impl CompareReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a committed baseline document against a fresh run. `Err` is a
/// malformed input or a schema drift (whose message names the regenerate
/// command); regressions come back as failures inside the report.
pub fn compare(baseline: &str, fresh: &str) -> Result<CompareReport, String> {
    let base = parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = Doc::parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    let base_schema = base.get("schema").and_then(JsonValue::as_str);
    if base_schema != Some(SCHEMA) {
        return Err(format!(
            "schema mismatch: committed baseline is \"{}\" but the fresh run produced \
             \"{SCHEMA}\" — regenerate the committed document with `{}`",
            base_schema.unwrap_or("none"),
            regen_command(&new.suite)
        ));
    }
    let base = Doc::from_json(&base).map_err(|e| format!("baseline: {e}"))?;
    if base.suite != new.suite {
        return Err(format!(
            "baseline is a {} document, the fresh run a {} document",
            base.suite, new.suite
        ));
    }
    let mut report = CompareReport::default();
    let (b, f) = (&base.env, &new.env);
    if (&b.dispatch, b.lane_width) != (&f.dispatch, f.lane_width) {
        report.notes.push(format!(
            "SIMD dispatch differs — baseline {} ({} lanes) vs fresh {} ({} lanes)",
            b.dispatch, b.lane_width, f.dispatch, f.lane_width
        ));
    }
    if b.threads != f.threads {
        report.notes.push(format!(
            "threads differ — baseline {} vs fresh {}: same_threads rows not gated",
            b.threads, f.threads
        ));
    }

    for b in &base.rows {
        let name = format!("{}/{}", b.case, b.metric);
        let f = new.row(&b.case, &b.metric);
        let ratio = match (&b.value, f.map(|f| &f.value)) {
            (JsonValue::Num(x), Some(JsonValue::Num(y))) if *x > 0.0 => Some(y / x),
            _ => None,
        };
        report.rows.push(format!(
            "{name:<56} {:>12} {:>12} {:>7}  {}",
            b.value.to_string(),
            f.map_or_else(|| "-".to_string(), |f| f.value.to_string()),
            ratio.map_or_else(|| "-".to_string(), |x| format!("{x:.2}x")),
            f.unwrap_or(b).gate.to_json()
        ));
        let Some(f) = f else {
            report.failures.push(format!(
                "{name}: in the baseline but missing from the fresh run"
            ));
            continue;
        };
        if b.gate != f.gate {
            report.failures.push(format!(
                "{name}: gate drift — baseline says {}, the code says {} (regenerate with `{}`)",
                b.gate.to_json(),
                f.gate.to_json(),
                regen_command(&new.suite)
            ));
            continue;
        }
        let fail = |report: &mut CompareReport, why: String| {
            report.failures.push(format!(
                "{name}: {why} (baseline {}, fresh {})",
                b.value, f.value
            ))
        };
        match f.gate {
            Gate::Exact if b.value != f.value => fail(&mut report, "value changed".into()),
            Gate::MustBeTrue if f.value != JsonValue::Bool(true) => {
                fail(&mut report, "must be true".into())
            }
            Gate::AbsMax { budget } => match f.value.as_f64() {
                Some(v) if v <= budget as f64 => {}
                _ => fail(&mut report, format!("over the {budget} budget")),
            },
            Gate::MaxRatio {
                r,
                floor_ns,
                same_threads,
            } => {
                let floor = floor_ns as f64;
                match (b.value.as_f64(), f.value.as_f64()) {
                    _ if same_threads && base.env.threads != new.env.threads => {}
                    (Some(x), Some(y)) if x < floor && y < floor => report
                        .notes
                        .push(format!("{name}: under the {floor_ns} floor on both sides")),
                    (Some(x), Some(_)) if x <= 0.0 => report
                        .notes
                        .push(format!("{name}: zero baseline, no ratio")),
                    (Some(_), Some(_)) => {
                        let ratio = ratio.expect("both values are positive numbers");
                        if ratio > r {
                            fail(
                                &mut report,
                                format!("regression {ratio:.2}x, limit {r:.2}x"),
                            );
                        }
                    }
                    _ => fail(&mut report, "not a number".into()),
                }
            }
            _ => {}
        }
    }
    for f in &new.rows {
        if base.row(&f.case, &f.metric).is_none() {
            report.notes.push(format!(
                "{}/{}: new row, not in the baseline",
                f.case, f.metric
            ));
        }
    }
    Ok(report)
}

/// Renders the delta table plus the note and failure lists.
pub fn render(report: &CompareReport) -> String {
    let mut out = format!(
        "{:<56} {:>12} {:>12} {:>7}  gate\n",
        "case/metric", "baseline", "fresh", "ratio"
    );
    for line in &report.rows {
        let _ = writeln!(out, "{line}");
    }
    for note in &report.notes {
        let _ = writeln!(out, "note: {note}");
    }
    for failure in &report.failures {
        let _ = writeln!(out, "FAIL: {failure}");
    }
    if report.passed() {
        out.push_str("PASS: every gated row holds\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(threads: u64) -> Env {
        Env {
            seed: 42,
            dispatch: "avx2".into(),
            lane_width: 4,
            threads,
            host_threads: 2,
        }
    }

    /// A one-row document.
    fn doc(value: impl Into<JsonValue>, gate: Gate) -> Doc {
        let mut d = Doc::new("kernels", env(1));
        d.push("stomp", "wall_ns_1t", "ns", value, gate);
        d
    }

    fn run(base: &Doc, fresh: &Doc) -> CompareReport {
        compare(&base.render(), &fresh.render()).expect("well-formed documents")
    }

    #[test]
    fn wall_ratio_gate_fails_beyond_margin_and_returns_the_ratio() {
        // the injected 2x slowdown
        let report = run(&doc(100u64, Gate::WALL), &doc(120u64, Gate::WALL));
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.rows[0].contains("1.20x"));
        let report = run(&doc(100u64, Gate::WALL), &doc(200u64, Gate::WALL));
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("2.00x"),
            "{:?}",
            report.failures
        );
        assert!(render(&report).contains("FAIL"));
    }

    #[test]
    fn missing_wall_numbers_note_instead_of_failing() {
        let report = run(&doc(0u64, Gate::WALL), &doc(5u64, Gate::WALL));
        assert!(report.passed());
        assert!(
            report.notes[0].contains("zero baseline"),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn alloc_gate_is_exact_and_catches_vanished_measurements() {
        // the injected allocation increase
        let report = run(&doc(0u64, Gate::Exact), &doc(1u64, Gate::Exact));
        assert!(!report.passed());
        assert!(report.failures[0].contains("value changed"));
        // a measurement this process could not take is not a zero
        let none: Option<u64> = None;
        let report = run(&doc(0u64, Gate::Exact), &doc(none, Gate::Exact));
        assert!(!report.passed());
        assert!(run(&doc(none, Gate::Exact), &doc(none, Gate::Exact)).passed());
    }

    #[test]
    fn missing_row_fails_and_a_fresh_only_row_is_a_note() {
        let base = doc(0u64, Gate::Exact);
        let empty = Doc::new("kernels", env(1));
        let report = run(&base, &empty);
        assert!(report.failures[0].contains("missing from the fresh run"));
        let report = run(&empty, &base);
        assert!(report.passed());
        assert!(report.notes[0].contains("new row"), "{:?}", report.notes);
    }

    #[test]
    fn budget_bust_fails_absolutely() {
        let gate = Gate::AbsMax { budget: 8191 };
        // the baseline's value does not matter: the budget is the contract
        assert!(run(&doc(9000u64, gate), &doc(8191u64, gate)).passed());
        let report = run(&doc(10u64, gate), &doc(8192u64, gate));
        assert!(report.failures[0].contains("over the 8191 budget"));
    }

    #[test]
    fn must_be_true_rows_fail_on_false() {
        let report = run(&doc(true, Gate::MustBeTrue), &doc(false, Gate::MustBeTrue));
        assert!(report.failures[0].contains("must be true"));
        // even a baseline that recorded `false` cannot excuse the fresh run
        let report = run(&doc(false, Gate::MustBeTrue), &doc(false, Gate::MustBeTrue));
        assert!(!report.passed());
    }

    #[test]
    fn schema_equality_error_names_both_versions_and_the_fix() {
        let base = doc(1u64, Gate::Info)
            .render()
            .replace(SCHEMA, "tsad-bench/v0");
        let err = compare(&base, &doc(1u64, Gate::Info).render()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(
            err.contains("tsad-bench/v0") && err.contains(SCHEMA),
            "{err}"
        );
        assert!(err.contains("regenerate"), "{err}");
        assert!(err.contains("repro -- bench kernels --out BENCH_kernels.json"));
        // a pre-v1 document (no rows at all) gets the same message
        let legacy = r#"{"schema": "tsad-bench-kernels/v4", "kernels": []}"#;
        let err = compare(legacy, &doc(1u64, Gate::Info).render()).unwrap_err();
        assert!(err.contains("tsad-bench-kernels/v4"), "{err}");
    }

    #[test]
    fn gate_drift_fails_so_a_baseline_cannot_loosen_a_gate() {
        // a baseline hand-edited to `info` still gets the code's gate
        let report = run(&doc(0u64, Gate::Info), &doc(0u64, Gate::Exact));
        assert!(report.failures[0].contains("gate drift"), "{:?}", report);
        let loose = Gate::MaxRatio {
            r: 3.0,
            floor_ns: 0,
            same_threads: false,
        };
        let report = run(&doc(100u64, loose), &doc(100u64, Gate::WALL));
        assert!(report.failures[0].contains("gate drift"));
    }

    #[test]
    fn ratio_under_the_floor_is_noted_not_failed() {
        let gate = Gate::MaxRatio {
            r: MAX_WALL_RATIO,
            floor_ns: 20_000_000,
            same_threads: false,
        };
        let report = run(&doc(1_000_000u64, gate), &doc(10_000_000u64, gate));
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes[0].contains("floor"));
        // above the floor the same 10x fails
        let report = run(&doc(20_000_000u64, gate), &doc(200_000_000u64, gate));
        assert!(report.failures[0].contains("regression"));
    }

    #[test]
    fn same_threads_rows_are_not_gated_across_thread_counts() {
        let gate = Gate::MaxRatio {
            r: 1.5,
            floor_ns: 0,
            same_threads: true,
        };
        let base = doc(100u64, gate);
        let mut fresh = doc(300u64, gate);
        assert!(!run(&base, &fresh).passed());
        fresh.env.threads = 4;
        let report = run(&base, &fresh);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|n| n.contains("threads differ")));
        // a plain wall gate stays gated whatever the thread counts
        let mut fresh = doc(300u64, Gate::WALL);
        fresh.env.threads = 4;
        assert!(!run(&doc(100u64, Gate::WALL), &fresh).passed());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_failure() {
        let good = doc(1u64, Gate::Info).render();
        for bad in [
            "".to_string(),
            "{".to_string(),
            good.replace("\"env\"", "\"environment\""),
            good.replace("\"info\"", "\"vibes\""),
            good.replace("\"value\": 1", "\"value\": [1]"),
            good.replace(
                "\"suite\": \"kernels\", \"case\"",
                "\"suite\": \"wal\", \"case\"",
            ),
        ] {
            assert!(compare(&good, &bad).is_err(), "fresh accepted: {bad}");
            assert!(compare(&bad, &good).is_err(), "baseline accepted: {bad}");
        }
        let mut wal = doc(1u64, Gate::Info);
        wal.suite = "wal".into();
        assert!(compare(&good, &wal.render()).is_err());
    }

    #[test]
    fn dispatch_drift_is_a_note_not_a_failure() {
        let base = doc(100u64, Gate::WALL);
        let mut fresh = base.clone();
        fresh.env.dispatch = "scalar".into();
        fresh.env.lane_width = 1;
        let report = run(&base, &fresh);
        assert!(report.passed());
        assert!(report.notes[0].contains("avx2") && report.notes[0].contains("scalar"));
    }

    #[test]
    fn documents_round_trip_through_render_and_parse() {
        let mut d = doc(7u64, Gate::WALL);
        d.push("a \"quoted\" case", "flag", "bool", true, Gate::MustBeTrue);
        d.push(
            "budget",
            "p99_ns",
            "ns",
            3u64,
            Gate::AbsMax { budget: 8191 },
        );
        d.push("ratio", "speedup", "x", 1.25, Gate::Info);
        d.obs.push(("stomp".into(), tsad_obs::Snapshot::default()));
        let text = d.render();
        assert!(text.contains("\"schema\": \"tsad-bench/v1\""));
        let mut back = Doc::parse(&text).unwrap();
        assert!(back.obs.is_empty());
        back.obs = d.obs.clone();
        assert_eq!(back, d);
        assert!(compare(&text, &text).unwrap().passed());
    }
}
