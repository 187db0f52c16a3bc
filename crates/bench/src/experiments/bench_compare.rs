//! Injected-regression tests of the one comparator, [`crate::gate::compare`],
//! against each suite's real rows: every gate a suite declares is broken
//! once on purpose and must fail, and every tolerated drift must pass.

#[cfg(test)]
mod tests {
    use crate::experiments::{bench_json, catalog, faults, fleet, ingest_bench, wal_bench};
    use crate::gate::{compare, CompareReport, Doc, Gate, MAX_WALL_RATIO};
    use crate::minijson::JsonValue;

    fn kernels() -> Doc {
        bench_json::tests::smoke_doc().clone()
    }

    fn fleet_doc() -> Doc {
        fleet::to_doc(fleet::tests::smoke())
    }

    fn ingest_doc() -> Doc {
        ingest_bench::to_doc(ingest_bench::tests::smoke())
    }

    fn wal_doc() -> Doc {
        wal_bench::to_doc(wal_bench::tests::smoke())
    }

    /// `doc` with row (`case`, `metric`) set to `value`.
    fn with(doc: &Doc, case: &str, metric: &str, value: impl Into<JsonValue>) -> Doc {
        let mut out = doc.clone();
        let row = out
            .rows
            .iter_mut()
            .find(|r| r.case == case && r.metric == metric)
            .unwrap_or_else(|| panic!("no row {case}/{metric}"));
        row.value = value.into();
        out
    }

    /// `doc` with row (`case`, `metric`) scaled by `factor`.
    fn scaled(doc: &Doc, case: &str, metric: &str, factor: f64) -> Doc {
        let v = doc.row(case, metric).unwrap().value.as_f64().unwrap();
        with(doc, case, metric, (v * factor).round().max(1.0))
    }

    fn without_case(doc: &Doc, case: &str) -> Doc {
        let mut out = doc.clone();
        out.rows.retain(|r| r.case != case);
        out
    }

    fn gate(base: &Doc, fresh: &Doc) -> CompareReport {
        compare(&base.render(), &fresh.render()).expect("well-formed documents")
    }

    fn fails_on(report: &CompareReport, needle: &str) -> bool {
        report.failures.iter().any(|f| f.contains(needle))
    }

    /// Asserts `doc` gates exactly the `expected` rows as listed and
    /// records every other row as `info`.
    fn assert_gates(doc: &Doc, expected: &[(&str, &str, Gate)]) {
        for &(case, metric, g) in expected {
            let row = doc
                .row(case, metric)
                .unwrap_or_else(|| panic!("{}: no row {case}/{metric}", doc.suite));
            assert_eq!(row.gate, g, "{}: {case}/{metric}", doc.suite);
        }
        for r in &doc.rows {
            if !expected
                .iter()
                .any(|&(c, m, _)| c == r.case && m == r.metric)
            {
                assert_eq!(r.gate, Gate::Info, "{}: {}/{}", doc.suite, r.case, r.metric);
            }
        }
    }

    // ─── kernels ────────────────────────────────────────────────────────

    #[test]
    fn a_real_bench_run_compares_clean_against_itself() {
        let k = kernels();
        let report = gate(&k, &k);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.rows.len(), k.rows.len());
    }

    #[test]
    fn kernels_contract_rows_carry_the_expected_gates() {
        let mut expected = Vec::new();
        for k in [
            "stomp",
            "merlin",
            "sliding_dot_product",
            "streaming_replay_left_discord",
        ] {
            expected.push((k, "wall_ns_1t", Gate::WALL));
            expected.push((k, "obs_recorded", Gate::MustBeTrue));
        }
        for k in bench_json::GATED_KERNELS {
            expected.push((k, "allocs_per_iter", Gate::Exact));
        }
        let doc = kernels();
        assert_gates(&doc, &expected);
        for info in [
            "mass",
            "hotsax",
            "telemanom",
            "scoring_protocols",
            "streaming_ports",
            "archive_generate",
            "archive_validate",
            "archive_contest",
            "table1_search",
            "fig8",
            "fig13",
        ] {
            assert_eq!(doc.row(info, "wall_ns").unwrap().gate, Gate::Info, "{info}");
        }
    }

    #[test]
    fn identical_documents_pass() {
        // the writer is byte-stable through a parse
        let text = kernels().render();
        let reparsed = Doc::parse(&text).unwrap();
        assert_eq!(
            reparsed.render().split("\"obs\"").next(),
            text.split("\"obs\"").next()
        );
        assert!(compare(&text, &text).unwrap().passed());
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let k = kernels();
        let report = gate(&k, &scaled(&k, "stomp", "wall_ns_1t", 2.0));
        assert!(
            fails_on(&report, "stomp/wall_ns_1t: regression 2.00x"),
            "{report:?}"
        );
        // the parallel column is information, not a gate
        assert!(gate(&k, &scaled(&k, "stomp", "wall_ns_4t", 10.0)).passed());
    }

    #[test]
    fn small_jitter_within_the_margin_passes() {
        let k = kernels();
        let fresh = scaled(&k, "merlin", "wall_ns_1t", 1.2);
        let fresh = scaled(&fresh, "stomp", "wall_ns_1t", 0.7);
        assert!(gate(&k, &fresh).passed());
    }

    #[test]
    fn alloc_increase_on_a_gated_kernel_fails() {
        let k = with(&kernels(), "stomp", "allocs_per_iter", 0u64);
        let report = gate(&k, &with(&k, "stomp", "allocs_per_iter", 1u64));
        assert!(fails_on(&report, "stomp/allocs_per_iter"), "{report:?}");
        // the replay kernel builds its detector per iteration: not gated
        let k = with(&k, "streaming_replay_left_discord", "allocs_per_iter", 3u64);
        let fresh = with(&k, "streaming_replay_left_discord", "allocs_per_iter", 9u64);
        assert!(gate(&k, &fresh).passed());
    }

    #[test]
    fn missing_kernel_fails_but_new_kernel_is_noted() {
        let k = kernels();
        let report = gate(&k, &without_case(&k, "merlin"));
        assert!(fails_on(&report, "merlin/wall_ns_1t"), "{report:?}");
        let report = gate(&without_case(&k, "merlin"), &k);
        assert!(report.passed());
        assert!(report.notes.iter().any(|n| n.starts_with("merlin/")));
    }

    #[test]
    fn dispatch_drift_is_noted_but_passes() {
        let k = kernels();
        let mut fresh = k.clone();
        fresh.env.dispatch = "made-up".into();
        let report = gate(&k, &fresh);
        assert!(report.passed());
        assert!(report.notes.iter().any(|n| n.contains("made-up")));
    }

    #[test]
    fn schema_drift_is_a_clear_error_not_a_parse_failure() {
        let legacy = r#"{"schema": "tsad-bench-kernels/v4", "seed": 42, "kernels": []}"#;
        let err = compare(legacy, &kernels().render()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("repro -- bench kernels"), "{err}");
    }

    #[test]
    fn malformed_inputs_are_errors_not_failures() {
        let good = kernels().render();
        let truncated = &good[..good.len() / 2];
        assert!(compare(&good, truncated).is_err());
        assert!(compare(truncated, &good).is_err());
        assert!(compare(&good, "not json").is_err());
        let gateless = good.replacen(", \"gate\": {\"kind\": \"exact\"}", "", 1);
        assert!(compare(&good, &gateless).is_err());
    }

    // ─── fleet ──────────────────────────────────────────────────────────

    #[test]
    fn a_real_fleet_run_compares_clean_against_itself() {
        let f = fleet_doc();
        let report = gate(&f, &f);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn fleet_contract_rows_carry_the_expected_gates() {
        let footprint = Gate::MaxRatio {
            r: fleet::MAX_BYTES_PER_SERIES_RATIO,
            floor_ns: 0,
            same_threads: false,
        };
        assert_gates(
            &fleet_doc(),
            &[
                ("geometry", "series", Gate::Exact),
                ("geometry", "shards", Gate::Exact),
                ("round", "wall_ns_1t", Gate::WALL),
                ("round", "allocs_per_point", Gate::Exact),
                ("footprint", "bytes_per_series", footprint),
                ("resume", "suspend_resume_bitwise", Gate::MustBeTrue),
            ],
        );
    }

    #[test]
    fn identical_fleet_documents_pass() {
        let text = fleet_doc().render();
        assert!(compare(&text, &text).unwrap().passed());
    }

    #[test]
    fn fleet_wall_regression_and_speedup_behave_like_kernels() {
        let f = fleet_doc();
        let report = gate(&f, &scaled(&f, "round", "wall_ns_1t", 2.0));
        assert!(fails_on(&report, "round/wall_ns_1t"), "{report:?}");
        assert!(gate(&f, &scaled(&f, "round", "wall_ns_1t", 0.5)).passed());
    }

    #[test]
    fn fleet_alloc_gate_is_exact() {
        let f = with(&fleet_doc(), "round", "allocs_per_point", 0u64);
        assert!(fails_on(
            &gate(&f, &with(&f, "round", "allocs_per_point", 1u64)),
            "allocs_per_point"
        ));
        // vanished measurement (allocator not installed) fails too
        let unmeasured = with(&f, "round", "allocs_per_point", JsonValue::Null);
        assert!(fails_on(&gate(&f, &unmeasured), "allocs_per_point"));
    }

    #[test]
    fn fleet_footprint_growth_fails_but_margin_passes() {
        let f = with(&fleet_doc(), "footprint", "bytes_per_series", 700u64);
        let grown = with(&f, "footprint", "bytes_per_series", 770u64);
        assert!(gate(&f, &grown).passed(), "1.10x is inside the margin");
        let grown = with(&f, "footprint", "bytes_per_series", 800u64);
        assert!(fails_on(&gate(&f, &grown), "bytes_per_series"));
    }

    #[test]
    fn fleet_bitwise_flag_must_hold() {
        let f = fleet_doc();
        let broken = with(&f, "resume", "suspend_resume_bitwise", false);
        assert!(fails_on(&gate(&f, &broken), "must be true"));
    }

    #[test]
    fn fleet_geometry_change_fails_the_gate() {
        let f = fleet_doc();
        assert!(fails_on(
            &gate(&f, &with(&f, "geometry", "series", 4_000u64)),
            "geometry/series"
        ));
        assert!(fails_on(
            &gate(&f, &with(&f, "geometry", "shards", 3u64)),
            "geometry/shards"
        ));
    }

    #[test]
    fn fleet_dispatch_drift_is_noted_but_passes() {
        let f = fleet_doc();
        let mut fresh = f.clone();
        fresh.env.lane_width = 1;
        fresh.env.dispatch = "scalar".into();
        let report = gate(&f, &fresh);
        assert!(report.passed());
        assert!(report.notes.iter().any(|n| n.contains("SIMD dispatch")));
    }

    #[test]
    fn fleet_malformed_inputs_are_errors() {
        let good = fleet_doc().render();
        assert!(compare(&good, "").is_err());
        assert!(compare(&good, &good.replace("\"threads\"", "\"workers\"")).is_err());
        assert!(compare(&good, &good.replace("\"must_be_true\"", "\"maybe\"")).is_err());
    }

    #[test]
    fn fleet_schema_drift_is_a_regenerate_error() {
        let legacy = r#"{"schema": "tsad-bench-fleet/v2", "series": 100000}"#;
        let err = compare(legacy, &fleet_doc().render()).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
        assert!(err.contains("bench fleet --out BENCH_fleet.json"), "{err}");
        // a document of another suite is no baseline either
        assert!(compare(&kernels().render(), &fleet_doc().render()).is_err());
    }

    // ─── ingest ─────────────────────────────────────────────────────────

    #[test]
    fn a_real_ingest_run_compares_clean_against_itself() {
        let i = ingest_doc();
        let report = gate(&i, &i);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn ingest_contract_rows_carry_the_expected_gates() {
        let scale = ingest_bench::IngestBenchConfig::smoke().budget_scale;
        let budget = |ns: u64| Gate::AbsMax {
            budget: tsad_ingest::budget_bound(ns * scale),
        };
        let loopback = Gate::MaxRatio {
            r: ingest_bench::MAX_NS_PER_REQUEST_RATIO,
            floor_ns: 0,
            same_threads: true,
        };
        let mut expected = vec![
            ("geometry", "batch_points", Gate::Exact),
            ("geometry", "series", Gate::Exact),
            ("parse", "p99_ns", budget(tsad_ingest::BUDGET_PARSE_NS)),
            ("route", "p99_ns", budget(tsad_ingest::BUDGET_ROUTE_NS)),
            (
                "overhead",
                "p99_ns",
                budget(tsad_ingest::BUDGET_OVERHEAD_NS),
            ),
            ("request", "allocs_per_request", Gate::Exact),
        ];
        for stage in ["parse", "route", "push", "respond", "request", "overhead"] {
            expected.push((stage, "count", Gate::Exact));
        }
        for case in ["loadgen_http", "loadgen_tcp"] {
            expected.push((case, "errors", Gate::Exact));
            expected.push((case, "ns_per_request", loopback));
        }
        assert_gates(&ingest_doc(), &expected);
        // the release contract is the bucket bound of the documented budget
        assert_eq!(
            tsad_ingest::budget_bound(tsad_ingest::BUDGET_PARSE_NS),
            8191
        );
        assert_eq!(
            tsad_ingest::budget_bound(tsad_ingest::BUDGET_ROUTE_NS),
            16383
        );
        assert_eq!(
            tsad_ingest::budget_bound(tsad_ingest::BUDGET_OVERHEAD_NS),
            131071
        );
    }

    #[test]
    fn identical_ingest_documents_pass() {
        let text = ingest_doc().render();
        assert!(compare(&text, &text).unwrap().passed());
    }

    #[test]
    fn ingest_budget_bust_fails_absolutely() {
        let i = ingest_doc();
        let Gate::AbsMax { budget } = i.row("parse", "p99_ns").unwrap().gate else {
            panic!("parse p99 is not budgeted");
        };
        let at = with(&i, "parse", "p99_ns", budget);
        assert!(gate(&i, &at).passed());
        // regenerating the baseline at the busted value does not help
        let busted = with(&i, "parse", "p99_ns", budget + 1);
        assert!(fails_on(&gate(&busted, &busted), "parse/p99_ns: over the"));
        // an unbudgeted stage may move freely
        assert!(gate(&i, &scaled(&i, "push", "p99_ns", 100.0)).passed());
    }

    #[test]
    fn ingest_alloc_gate_is_exact() {
        let i = with(&ingest_doc(), "request", "allocs_per_request", 0u64);
        let report = gate(&i, &with(&i, "request", "allocs_per_request", 2u64));
        assert!(fails_on(&report, "allocs_per_request"));
        // a stage with zero samples fails its count row
        assert!(fails_on(
            &gate(&i, &with(&i, "route", "count", 0u64)),
            "route/count"
        ));
    }

    #[test]
    fn ingest_loadgen_errors_fail_the_gate() {
        let i = ingest_doc();
        for case in ["loadgen_http", "loadgen_tcp"] {
            let report = gate(&i, &with(&i, case, "errors", 3u64));
            assert!(fails_on(&report, &format!("{case}/errors")), "{report:?}");
        }
    }

    #[test]
    fn ingest_schema_drift_and_geometry_changes_are_caught() {
        let i = ingest_doc();
        assert!(fails_on(
            &gate(&i, &with(&i, "geometry", "batch_points", 64u64)),
            "geometry/batch_points"
        ));
        let legacy = r#"{"schema": "tsad-bench-ingest/v1", "stages": []}"#;
        let err = compare(legacy, &i.render()).unwrap_err();
        assert!(err.contains("bench ingest"), "{err}");
    }

    #[test]
    fn ingest_throughput_drop_fails_but_noise_passes() {
        let i = ingest_doc();
        let slow = scaled(&i, "loadgen_tcp", "ns_per_request", 1.6);
        assert!(fails_on(&gate(&i, &slow), "loadgen_tcp/ns_per_request"));
        let noisy = scaled(&i, "loadgen_http", "ns_per_request", 1.4);
        assert!(gate(&i, &noisy).passed());
    }

    #[test]
    fn ingest_throughput_is_not_gated_across_thread_counts() {
        let i = ingest_doc();
        let mut fresh = scaled(&i, "loadgen_tcp", "ns_per_request", 3.0);
        fresh.env.threads = i.env.threads + 3;
        let report = gate(&i, &fresh);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.notes.iter().any(|n| n.contains("threads differ")));
        // errors and budgets gate regardless of the worker count
        let fresh = with(&fresh, "loadgen_tcp", "errors", 1u64);
        assert!(fails_on(&gate(&i, &fresh), "loadgen_tcp/errors"));
    }

    // ─── wal ────────────────────────────────────────────────────────────

    #[test]
    fn a_real_wal_run_compares_clean_against_itself() {
        let w = wal_doc();
        let report = gate(&w, &w);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn wal_contract_rows_carry_the_expected_gates() {
        let mut expected = vec![
            ("geometry", "batches", Gate::Exact),
            ("geometry", "batch_points", Gate::Exact),
            ("geometry", "segment_bytes", Gate::Exact),
            ("off", "wall_ns_per_batch", Gate::WALL),
            ("recovery", "bitwise", Gate::MustBeTrue),
            ("recovery", "torn_tail_truncated", Gate::MustBeTrue),
            ("recovery", "replayed_batches", Gate::Exact),
        ];
        for policy in ["per-batch", "group", "off"] {
            expected.push((policy, "allocs_per_batch", Gate::Exact));
        }
        assert_gates(&wal_doc(), &expected);
    }

    #[test]
    fn identical_wal_documents_pass() {
        let text = wal_doc().render();
        assert!(compare(&text, &text).unwrap().passed());
    }

    #[test]
    fn wal_wall_gate_applies_to_the_fsync_free_policy_only() {
        let w = wal_doc();
        let report = gate(&w, &scaled(&w, "off", "wall_ns_per_batch", 2.0));
        assert!(fails_on(&report, "off/wall_ns_per_batch"), "{report:?}");
        let fresh = scaled(&w, "per-batch", "wall_ns_per_batch", 10.0);
        let fresh = scaled(&fresh, "group", "wall_ns_per_batch", 10.0);
        assert!(gate(&w, &fresh).passed());
    }

    #[test]
    fn wal_alloc_gate_is_exact_per_policy() {
        for policy in ["per-batch", "group", "off"] {
            let w = with(&wal_doc(), policy, "allocs_per_batch", 0u64);
            let report = gate(&w, &with(&w, policy, "allocs_per_batch", 1u64));
            assert!(fails_on(&report, &format!("{policy}/allocs_per_batch")));
        }
    }

    #[test]
    fn wal_recovery_contracts_are_absolute() {
        let w = wal_doc();
        for metric in ["bitwise", "torn_tail_truncated"] {
            let broken = with(&w, "recovery", metric, false);
            // a baseline that recorded the breakage does not excuse it
            assert!(fails_on(
                &gate(&broken, &broken),
                &format!("recovery/{metric}")
            ));
        }
        let none = with(&w, "recovery", "replayed_batches", 0u64);
        assert!(fails_on(&gate(&w, &none), "recovery/replayed_batches"));
    }

    #[test]
    fn wal_missing_policy_fails_the_gate() {
        let w = wal_doc();
        let report = gate(&w, &without_case(&w, "group"));
        assert!(fails_on(&report, "group/allocs_per_batch"), "{report:?}");
    }

    #[test]
    fn wal_geometry_change_and_schema_drift_are_caught() {
        let w = wal_doc();
        for metric in ["batches", "batch_points", "segment_bytes"] {
            let v = w.row("geometry", metric).unwrap().value.as_u64().unwrap();
            let report = gate(&w, &with(&w, "geometry", metric, v + 1));
            assert!(fails_on(&report, &format!("geometry/{metric}")));
        }
        let legacy = r#"{"schema": "tsad-bench-wal/v1", "policies": []}"#;
        assert!(compare(legacy, &w.render())
            .unwrap_err()
            .contains("bench wal"));
    }

    // ─── catalog and faults ─────────────────────────────────────────────

    #[test]
    fn catalog_contract_rows_carry_the_expected_gates() {
        let exp = catalog::run(7, &catalog::CatalogConfig { per_family: 1 }).unwrap();
        let doc = catalog::to_doc(&exp);
        let wall = Gate::MaxRatio {
            r: MAX_WALL_RATIO,
            floor_ns: catalog::WALL_NOISE_FLOOR_NS,
            same_threads: false,
        };
        let cells: Vec<String> = exp
            .rows
            .iter()
            .map(|r| format!("{}/{}", r.detector, r.family))
            .collect();
        let mut expected = Vec::new();
        for cell in &cells {
            expected.push((cell.as_str(), "hits", Gate::Exact));
            expected.push((cell.as_str(), "series", Gate::Exact));
        }
        for r in &exp.rows {
            expected.push((r.detector.as_str(), "wall_ns", wall));
        }
        assert_gates(&doc, &expected);
        assert_eq!(cells.len(), exp.detector_count * 4);
    }

    #[test]
    fn faults_contract_rows_carry_the_expected_gates() {
        let exp = faults::FaultsExperiment {
            seed: 1,
            env: crate::gate::Env::current(1),
            rows: vec![faults::FaultRow {
                profile: "clean".into(),
                dataset: "yahoo-a1".into(),
                detector: "d".into(),
                injected_points: 0,
                quarantined: 0,
                ucr_hit: true,
                detected: 1,
                regions: 1,
                false_alarms: 0,
                total_alarms: 1,
            }],
        };
        let doc = faults::to_doc(&exp);
        assert_eq!(doc.rows.len(), 7);
        assert!(doc.rows.iter().all(|r| r.gate == Gate::Exact));
        assert_eq!(
            doc.row("yahoo-a1/clean/d", "ucr_hit").unwrap().value,
            true.into()
        );
    }
}
