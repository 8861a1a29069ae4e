//! Golden snapshot of the machine-readable report schema
//! (`wishbranch.report/v1`): downstream tooling parses these files, so key
//! names, the kind discriminators and the float format are API. A failure
//! here means the schema version string must be bumped and EXPERIMENTS.md
//! updated, not that the emitter is free to drift.

use wishbranch_core::{
    summary_json, AblationPoint, Experiment, ExperimentConfig, Report, ReportData, SweepRequest,
    SweepRunner,
};

/// A minimal JSON well-formedness checker (no external crates available):
/// consumes one value, returns the remaining input or panics.
fn skip_json<'a>(s: &'a str, whole: &str) -> &'a str {
    let s = s.trim_start();
    let bad = |what: &str| -> ! { panic!("invalid JSON ({what}) in: {whole}") };
    match s.chars().next() {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return r;
            }
            loop {
                rest = skip_json(rest, whole); // key
                rest = rest.trim_start();
                rest = rest.strip_prefix(':').unwrap_or_else(|| bad("missing :"));
                rest = skip_json(rest, whole); // value
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest.strip_prefix('}').unwrap_or_else(|| bad("missing }"));
                }
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return r;
            }
            loop {
                rest = skip_json(rest, whole);
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest.strip_prefix(']').unwrap_or_else(|| bad("missing ]"));
                }
            }
        }
        Some('"') => {
            let mut chars = s[1..].char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => {
                        chars.next();
                    }
                    '"' => return &s[1..][i + 1..],
                    _ => {}
                }
            }
            bad("unterminated string")
        }
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            &s[end..]
        }
        _ => {
            for lit in ["true", "false", "null"] {
                if let Some(r) = s.strip_prefix(lit) {
                    return r;
                }
            }
            bad("unexpected token")
        }
    }
}

fn assert_valid_json(s: &str) {
    let rest = skip_json(s, s);
    assert!(rest.trim().is_empty(), "trailing garbage after JSON: {rest:?}");
}

fn quick_runner() -> SweepRunner {
    SweepRunner::new(&ExperimentConfig::quick(30))
}

#[test]
fn figure_report_matches_schema_snapshot() {
    let runner = quick_runner();
    let report = Experiment::Fig10.run(&runner);
    let json = report.to_json();
    assert_valid_json(&json);
    // Golden envelope.
    assert!(json.starts_with("{\"schema\":\"wishbranch.report/v1\",\"id\":\"fig10\",\"kind\":\"figure\",\"title\":\""));
    // Golden payload keys, in order.
    assert!(json.contains("\"data\":{\"series\":["));
    assert!(json.contains("],\"rows\":[{\"name\":\""));
    assert!(json.contains("\"values\":["));
    // Floats are always six-decimal.
    let after = json.split("\"values\":[").nth(1).unwrap();
    let first = after.split(&[',', ']'][..]).next().unwrap();
    let (_, frac) = first.split_once('.').expect("values are decimal");
    assert_eq!(frac.len(), 6, "floats use exactly six decimals: {first}");

    // CSV: one header plus one line per row, same column count throughout.
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    let ReportData::Figure(fig) = &report.data else { unreachable!() };
    assert_eq!(lines.len(), 1 + fig.rows.len());
    assert_eq!(lines[0].split(',').next(), Some("benchmark"));
    let cols = lines[0].split(',').count();
    assert_eq!(cols, 1 + fig.series.len());
    for l in &lines {
        assert_eq!(l.split(',').count(), cols, "ragged CSV row: {l}");
    }
}

#[test]
fn table_reports_match_schema_snapshot() {
    let runner = quick_runner();
    let t4 = Experiment::Tab4.run(&runner);
    let json = t4.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"kind\":\"table4\""));
    for key in [
        "\"dynamic_uops\":",
        "\"static_branches\":",
        "\"mispredicts_per_kuop\":",
        "\"upc\":",
        "\"static_wish\":",
        "\"dynamic_wish_loop_pct\":",
    ] {
        assert!(json.contains(key), "tab4 JSON missing {key}");
    }
    let t5 = Experiment::Tab5.run(&runner);
    let json = t5.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"kind\":\"table5\""));
    for key in ["\"vs_normal_pct\":", "\"best_predicated\":", "\"best\":"] {
        assert!(json.contains(key), "tab5 JSON missing {key}");
    }
    // Table 5 CSV ends with the AVG row.
    let csv = t5.to_csv();
    assert!(csv.lines().last().unwrap().starts_with("AVG,"));
}

#[test]
fn sweep_and_ablation_schema_without_simulation() {
    // Schema-only check on hand-built payloads (a full Fig. 14 sweep is
    // too slow for a schema test).
    let sweep = Report {
        id: "fig14".into(),
        title: "Fig.14: instruction window sweep".into(),
        data: ReportData::ParamSweep {
            param: "window".into(),
            rows: vec![wishbranch_core::SweepRow {
                param: 128,
                series: vec!["wish-jjl".into()],
                avg: vec![0.9],
                avg_nomcf: vec![0.85],
            }],
        },
    };
    let json = sweep.to_json();
    assert_valid_json(&json);
    assert!(json.contains(
        "\"data\":{\"param\":\"window\",\"points\":[{\"param\":128,\"series\":[\"wish-jjl\"],\
         \"avg\":[0.900000],\"avg_nomcf\":[0.850000]}]}"
    ));
    assert_eq!(
        sweep.to_csv(),
        "window,wish-jjl AVG,wish-jjl AVGnomcf\n128,0.900000,0.850000\n"
    );

    let abl = Report::ablation(
        "abl_mshr",
        "MSHR sweep",
        "mshrs",
        vec![AblationPoint {
            param: 8,
            avg_normalized: 0.75,
        }],
    );
    let json = abl.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"kind\":\"ablation\""));
    assert!(json.contains("{\"param\":8,\"avg_normalized\":0.750000}"));
}

#[test]
fn summary_json_matches_schema_snapshot() {
    let runner = quick_runner();
    let _ = Experiment::Fig10.run(&runner);
    let json = summary_json(&runner.summary());
    assert_valid_json(&json);
    assert!(json.starts_with("{\"schema\":\"wishbranch.summary/v1\",\"jobs\":"));
    for key in [
        "\"workers\":",
        "\"profile_cache\":{\"hits\":",
        "\"compile_cache\":{\"hits\":",
        "\"quarantined\":",
        "\"job_time_s\":",
        "\"wall_time_s\":",
        "\"parallel_speedup\":",
        "\"phase_time_s\":{\"profile\":",
        "\"simulate\":",
        "\"verify\":",
        "\"sim_throughput\":{\"sim_cycles\":",
        "\"retired_uops\":",
        "\"cycles_per_sec\":",
        "\"uops_per_sec\":",
    ] {
        assert!(json.contains(key), "summary JSON missing {key}");
    }
    // The throughput numerators are real simulated work, and the rates
    // are consistent with the recorded simulate-phase time.
    let s = runner.summary();
    assert!(s.sim_cycles > 0, "{s:?}");
    assert!(s.sim_uops > 0, "{s:?}");
    assert!(s.cycles_per_sec() > 0.0, "{s:?}");
    assert!(s.uops_per_sec() > 0.0, "{s:?}");
}

#[test]
fn deprecated_batch_field_is_accepted_and_ignored() {
    // The request `batch` field outlived the batched mode it configured:
    // it still parses (a zero is still refused), builds the same runner,
    // and no report carries a batch dimension any more.
    let parsed = SweepRequest::parse(
        "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\
         \"scale\":40,\"quick\":true,\"workers\":2,\"batch\":4}",
    )
    .expect("the batch field still parses");
    assert_eq!(parsed.batch, Some(4));
    let runner = parsed.build_runner().expect("the batch field is ignored, not refused");
    let _ = Experiment::Fig10.run(&runner);
    let s = runner.summary();
    assert!(s.jobs > 0, "{s:?}");
    for json in [summary_json(&s), wishbranch_core::throughput_json(&s)] {
        assert_valid_json(&json);
        assert!(!json.contains("batch"), "{json}");
    }
}

#[test]
fn undefined_rates_render_as_gaps_not_zeros() {
    // A run with zero retired µops has no defined per-million rate: the
    // stats layer must answer NaN (the gap marker), never a fake 0 that
    // downstream averaging would silently absorb.
    let empty = wishbranch_uarch::SimStats::default();
    assert!(empty.per_million_uops(0).is_nan());
    assert!(empty.per_million_uops(7).is_nan());

    // And the Fig. 11/13 emitters must carry that NaN through as an
    // explicit gap: JSON `null`, empty CSV cell.
    let report = Report {
        id: "fig11".into(),
        title: "confidence".into(),
        data: ReportData::Confidence(vec![wishbranch_core::Fig11Row {
            name: "gap-bench".into(),
            low_mispredicted: f64::NAN,
            low_correct: 1.5,
            high_mispredicted: f64::NAN,
            high_correct: 2.0,
        }]),
    };
    let json = report.to_json();
    assert_valid_json(&json);
    assert!(
        json.contains("\"low_mispredicted\":null") && json.contains("\"high_mispredicted\":null"),
        "NaN rates must serialize as null: {json}"
    );
    assert!(json.contains("\"low_correct\":1.500000"));
    let csv = report.to_csv();
    assert!(
        csv.contains("gap-bench,,1.500000,,2.000000"),
        "NaN rates must be empty CSV cells: {csv}"
    );
}

#[test]
fn every_experiment_id_has_a_unique_report_id() {
    // The catalog id is the `--report-dir` file stem; it must match the
    // report's own id so files land where `--list` says they will.
    let runner = SweepRunner::new(&ExperimentConfig::quick(20));
    // Only the cheap experiments actually run here; ids for the rest are
    // checked statically by the catalog unit tests.
    for exp in [Experiment::Fig10, Experiment::Tab4] {
        assert_eq!(exp.run(&runner).id, exp.id());
    }
}
