//! Self-tests of the benchmark: a tiny-length run of every workload, both
//! untraced and traced, must print every metric by name and unit and pass
//! every check; `BENCHMARK.json` must list exactly the catalogue, and
//! `MAP.md` must name every catalogued metric and no other.

use perfbench::{catalog, result_json, run, trace, Options, Outcome};

fn tiny(workload: &str, trace: bool) -> Outcome {
    run(&Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
    })
    .expect("known workload")
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_checks() {
    for w in catalog::WORKLOADS {
        let o = tiny(w, false);
        assert_eq!(o.failed, 0, "{w}: {:#?}", o.failures);
        assert!(o.attempted > 0);
        let got: Vec<_> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, catalog::END_TO_END.to_vec(), "{w}");
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0 && m.samples > 0,
                "{w}: {m:?}"
            );
        }
        let line = result_json(&o);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        telemetry::validate_json_doc(&line, &["\"metrics\"", "\"setup_s\"", "\"failed\""])
            .expect("result line is well-formed JSON");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_a_valid_span_file() {
    for w in catalog::WORKLOADS {
        let o = tiny(w, true);
        assert_eq!(o.failed, 0, "{w}: {:#?}", o.failures);
        let got: Vec<_> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<_> = catalog::PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(got, want, "{w}");
        for m in &o.metrics {
            assert_eq!(m.active, catalog::applies(m.name, w));
            if m.active {
                assert!(m.samples > 0, "{w}: {m:?}");
            } else {
                assert_eq!(m.value, 0.0, "{w}: idle layer {m:?}");
            }
        }
        let spans = o.spans_json.expect("traced runs keep spans");
        trace::validate_span_file(&spans).expect("span file validates");
        assert!(spans.contains("\"name\": \"setup\""), "{w}");
        assert!(spans.contains("\"name\": \"iteration\""), "{w}");
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run(&Options {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
    })
    .is_err());
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    telemetry::validate_json_doc(
        &doc,
        &[
            "\"command\"",
            "\"paths\"",
            "\"run_seconds\"",
            "\"workloads\"",
            "\"end_to_end\"",
            "\"per_layer\"",
        ],
    )
    .expect("well-formed");
    for w in catalog::WORKLOADS {
        assert!(!catalog::why(w).is_empty(), "no why for {w}");
    }
    for (name, unit) in catalog::END_TO_END {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(doc.contains(&entry), "missing {entry}");
    }
    for (name, unit, _) in catalog::PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(doc.contains(&entry), "missing {entry}");
    }
    let names = doc.matches("\"name\":").count();
    assert_eq!(
        names,
        catalog::WORKLOADS.len() + catalog::END_TO_END.len() + catalog::PER_LAYER.len()
    );
}

/// `a.{b,c}.d` -> `a.b.d`, `a.c.d` (one brace group at most).
fn expand(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &token[..open], &token[close + 1..]))
            .collect(),
        _ => vec![token.to_string()],
    }
}

#[test]
fn map_names_exactly_the_catalogued_metrics() {
    let map = include_str!("../MAP.md");
    let catalogued: Vec<&str> = catalog::END_TO_END
        .iter()
        .map(|m| m.0)
        .chain(catalog::PER_LAYER.iter().map(|m| m.0))
        .collect();
    // The first dotted segment of every metric name: a backquoted token
    // that starts with one of these names a metric, unless it is a
    // wildcard or a bare layer name such as `gpusim`.
    let first = |n: &str| n.split('.').next().unwrap_or("").to_string();
    let families: Vec<String> = catalogued.iter().map(|n| first(n)).collect();
    let layers: Vec<String> = catalog::PER_LAYER.iter().map(|m| first(m.0)).collect();
    let named: Vec<String> = map
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|t| !t.contains('*') && !t.contains(' ') && !t.contains("::"))
        .flat_map(expand)
        .filter(|t| families.contains(&first(t)) && (t.contains('.') || !layers.contains(t)))
        .collect();
    for n in &named {
        assert!(
            catalogued.contains(&n.as_str()),
            "MAP.md names {n}, which is not catalogued"
        );
    }
    for n in catalogued {
        assert!(named.iter().any(|m| m == n), "MAP.md never names {n}");
    }
    for w in catalog::WORKLOADS {
        assert!(
            map.contains(&format!("`{w}`")),
            "MAP.md never names workload {w}"
        );
    }
}
