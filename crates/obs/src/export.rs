//! Snapshots and exporters.
//!
//! [`snapshot`] copies every registered metric into a plain-data
//! [`Snapshot`], sorted by name so the output is deterministic regardless
//! of which thread registered which metric first. Metrics with no recorded
//! activity are omitted, which makes "is this subsystem exercised?"
//! checkable directly from the export. [`render_json`] emits the stable
//! `tsad-obs/v1` schema embedded in the `obs` blocks of the
//! `BENCH_*.json` documents; [`render_summary`] is the human-readable form behind
//! `repro -- --obs-summary`.

use crate::metrics::quantile_from_buckets;
use crate::registry::{COUNTERS, GAUGES, HISTOGRAMS};

/// Schema identifier stamped into every JSON export.
pub const SCHEMA: &str = "tsad-obs/v1";

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    pub name: &'static str,
    pub value: u64,
}

/// A gauge's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeValue {
    pub name: &'static str,
    pub value: u64,
}

/// A histogram's summary statistics at snapshot time. The quantiles are
/// bucket upper bounds (see [`crate::bucket_upper_bound`]), so they
/// overestimate the true quantile by less than 2×.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// A deterministic, name-sorted copy of every active metric.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub counters: Vec<CounterValue>,
    pub gauges: Vec<GaugeValue>,
    pub histograms: Vec<HistogramValue>,
}

impl Snapshot {
    /// True when no metric recorded any activity.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of counter `name`, if it was active.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of gauge `name`, if it was active.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The summary of histogram `name`, if it was active.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Copies every registered metric with nonzero activity into a sorted
/// [`Snapshot`]. Counters and gauges are included when their value is
/// nonzero, histograms when they hold at least one sample.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    COUNTERS.for_each(|c| {
        let value = c.get();
        if value != 0 {
            snap.counters.push(CounterValue {
                name: c.name(),
                value,
            });
        }
    });
    GAUGES.for_each(|g| {
        let value = g.get();
        if value != 0 {
            snap.gauges.push(GaugeValue {
                name: g.name(),
                value,
            });
        }
    });
    HISTOGRAMS.for_each(|h| {
        // Read the buckets once so count and quantiles agree even if a
        // racing thread is still recording.
        let buckets = h.bucket_counts();
        let count: u64 = buckets.iter().sum();
        if count != 0 {
            snap.histograms.push(HistogramValue {
                name: h.name(),
                unit: h.unit(),
                count,
                sum: h.sum(),
                max: h.max(),
                p50: quantile_from_buckets(&buckets, 0.50),
                p90: quantile_from_buckets(&buckets, 0.90),
                p99: quantile_from_buckets(&buckets, 0.99),
            });
        }
    });
    snap.counters.sort_unstable_by_key(|c| c.name);
    snap.gauges.sort_unstable_by_key(|g| g.name);
    snap.histograms.sort_unstable_by_key(|h| h.name);
    snap
}

/// Zeroes every registered metric (the registry itself is untouched — the
/// next record does not re-register). The bench harness calls this between
/// kernels so each kernel's snapshot covers only its own activity.
pub fn reset_all() {
    COUNTERS.for_each(|c| c.reset());
    GAUGES.for_each(|g| g.reset());
    HISTOGRAMS.for_each(|h| h.reset());
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the snapshot as pretty-printed JSON in the stable
/// [`SCHEMA`] layout. `base_indent` is the column of the opening brace:
/// the first line carries no leading spaces (the caller has already
/// positioned it), nested lines are indented relative to `base_indent`,
/// and there is no trailing newline — so the result can be embedded
/// verbatim after a `"obs": ` key inside a larger document.
pub fn render_json(snap: &Snapshot, base_indent: usize) -> String {
    let pad = " ".repeat(base_indent);
    let inner = format!("{pad}  ");
    let leaf = format!("{pad}    ");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("{inner}\"schema\": \"{SCHEMA}\",\n"));

    out.push_str(&format!("{inner}\"counters\": {{"));
    for (i, c) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&leaf);
        push_json_str(&mut out, c.name);
        out.push_str(&format!(": {}", c.value));
    }
    if snap.counters.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str(&format!("\n{inner}}},\n"));
    }

    out.push_str(&format!("{inner}\"gauges\": {{"));
    for (i, g) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&leaf);
        push_json_str(&mut out, g.name);
        out.push_str(&format!(": {}", g.value));
    }
    if snap.gauges.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str(&format!("\n{inner}}},\n"));
    }

    out.push_str(&format!("{inner}\"histograms\": {{"));
    for (i, h) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&leaf);
        push_json_str(&mut out, h.name);
        out.push_str(": {");
        out.push_str(&format!("\"unit\": \"{}\", ", h.unit));
        out.push_str(&format!("\"count\": {}, ", h.count));
        out.push_str(&format!("\"sum\": {}, ", h.sum));
        out.push_str(&format!("\"max\": {}, ", h.max));
        out.push_str(&format!("\"p50\": {}, ", h.p50));
        out.push_str(&format!("\"p90\": {}, ", h.p90));
        out.push_str(&format!("\"p99\": {}", h.p99));
        out.push('}');
    }
    if snap.histograms.is_empty() {
        out.push_str("}\n");
    } else {
        out.push_str(&format!("\n{inner}}}\n"));
    }

    out.push_str(&format!("{pad}}}"));
    out
}

/// Formats a nanosecond quantity with a readable unit (`1.234ms`, `56.7us`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the snapshot as a human-readable text block (one metric per
/// line, nanosecond histograms pretty-printed with units). This is what
/// `repro -- --obs-summary` writes to stderr.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("== tsad-obs summary ({SCHEMA}) ==\n"));
    if snap.is_empty() {
        out.push_str("(no metric activity recorded)\n");
        return out;
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for c in &snap.counters {
            out.push_str(&format!("  {:<36} {}\n", c.name, c.value));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for g in &snap.gauges {
            out.push_str(&format!("  {:<36} {}\n", g.name, g.value));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for h in &snap.histograms {
            let (sum, max, p50, p90, p99) = if h.unit == "ns" {
                (
                    fmt_ns(h.sum),
                    fmt_ns(h.max),
                    fmt_ns(h.p50),
                    fmt_ns(h.p90),
                    fmt_ns(h.p99),
                )
            } else {
                (
                    format!("{}{}", h.sum, h.unit),
                    format!("{}{}", h.max, h.unit),
                    format!("{}{}", h.p50, h.unit),
                    format!("{}{}", h.p90, h.unit),
                    format!("{}{}", h.p99, h.unit),
                )
            };
            out.push_str(&format!(
                "  {:<36} count={} sum={} max={} p50~{} p90~{} p99~{}\n",
                h.name, h.count, sum, max, p50, p90, p99
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_enabled, Counter, Gauge, Histogram};

    // These tests record into the *global* registry and assert on values,
    // so they serialize against the other global-recording tests.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::test_guard()
    }

    fn ours(snap: &Snapshot) -> Snapshot {
        Snapshot {
            counters: snap
                .counters
                .iter()
                .filter(|c| c.name.starts_with("obs.test.export_"))
                .cloned()
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .filter(|g| g.name.starts_with("obs.test.export_"))
                .cloned()
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .filter(|h| h.name.starts_with("obs.test.export_"))
                .cloned()
                .collect(),
        }
    }

    #[test]
    fn snapshot_is_sorted_deterministic_and_omits_idle_metrics() {
        static CB: Counter = Counter::new("obs.test.export_b");
        static CA: Counter = Counter::new("obs.test.export_a");
        static CIDLE: Counter = Counter::new("obs.test.export_idle");
        static H: Histogram = Histogram::new("obs.test.export_h", "ns");
        let _g = guard();
        with_enabled(true, || {
            CB.add(2);
            CA.add(1);
            CIDLE.add(1);
            H.record(1500);
            H.record(3000);
        });
        CIDLE.reset(); // active once, then zeroed: must vanish from snapshots
        let first = ours(&snapshot());
        let second = ours(&snapshot());
        assert_eq!(first, second, "back-to-back snapshots must be identical");
        assert_eq!(
            first.counters.iter().map(|c| c.name).collect::<Vec<_>>(),
            vec!["obs.test.export_a", "obs.test.export_b"],
            "sorted by name, idle metric omitted"
        );
        assert_eq!(first.counter("obs.test.export_a"), Some(1));
        assert_eq!(first.counter("obs.test.export_b"), Some(2));
        assert_eq!(first.counter("obs.test.export_idle"), None);
        let h = first
            .histogram("obs.test.export_h")
            .expect("histogram present");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4500);
        assert_eq!(h.max, 3000);
        assert_eq!(h.p50, 2047); // 1500 ∈ [1024, 2048)
        assert_eq!(h.p99, 4095); // 3000 ∈ [2048, 4096)
    }

    #[test]
    fn reset_all_zeroes_registered_metrics() {
        static C: Counter = Counter::new("obs.test.export_reset_c");
        static G: Gauge = Gauge::new("obs.test.export_reset_g");
        static H: Histogram = Histogram::new("obs.test.export_reset_h", "ns");
        let _g = guard();
        with_enabled(true, || {
            C.add(5);
            G.set(9);
            H.record(100);
        });
        reset_all();
        assert_eq!(C.get(), 0);
        assert_eq!(G.get(), 0);
        assert_eq!(H.count(), 0);
        assert_eq!(H.sum(), 0);
        assert_eq!(H.max(), 0);
        assert!(ours(&snapshot()).is_empty());
    }

    #[test]
    fn render_json_shape_is_stable() {
        let snap = Snapshot {
            counters: vec![CounterValue {
                name: "core.fft.plan_hit",
                value: 12,
            }],
            gauges: vec![],
            histograms: vec![HistogramValue {
                name: "detectors.stomp.band_ns",
                unit: "ns",
                count: 3,
                sum: 300,
                max: 127,
                p50: 127,
                p90: 127,
                p99: 127,
            }],
        };
        let json = render_json(&snap, 4);
        assert!(json.starts_with("{\n"), "opening brace unindented");
        assert!(json.ends_with("    }"), "closing brace at base indent");
        assert!(json.contains("\"schema\": \"tsad-obs/v1\""));
        assert!(json.contains("\"core.fft.plan_hit\": 12"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains(
            "\"detectors.stomp.band_ns\": {\"unit\": \"ns\", \"count\": 3, \"sum\": 300, \
             \"max\": 127, \"p50\": 127, \"p90\": 127, \"p99\": 127}"
        ));
        let empty = render_json(&Snapshot::default(), 0);
        assert!(empty.contains("\"counters\": {}"));
        assert!(empty.contains("\"histograms\": {}"));
    }

    #[test]
    fn render_summary_formats_ns_histograms() {
        let snap = Snapshot {
            counters: vec![CounterValue {
                name: "stream.replay.points",
                value: 6000,
            }],
            gauges: vec![GaugeValue {
                name: "parallel.threads",
                value: 4,
            }],
            histograms: vec![HistogramValue {
                name: "parallel.worker.busy_ns",
                unit: "ns",
                count: 8,
                sum: 2_500_000,
                max: 524_287,
                p50: 262_143,
                p90: 524_287,
                p99: 524_287,
            }],
        };
        let text = render_summary(&snap);
        assert!(text.contains("tsad-obs summary"));
        assert!(text.contains("stream.replay.points"));
        assert!(text.contains("parallel.threads"));
        assert!(
            text.contains("2.500ms"),
            "sum rendered with ms unit: {text}"
        );
        assert!(
            text.contains("524.3us"),
            "max rendered with us unit: {text}"
        );
        let empty = render_summary(&Snapshot::default());
        assert!(empty.contains("no metric activity"));
    }
}
