//! The benchmark against its own contract: `BENCHMARK.json` and the tables
//! in the code agree, a smoke run of every workload (same paths, about 1 %
//! of the size) prints every named metric with a unit and a finite value,
//! simulated results repeat exactly, and a broken conservation sum is
//! caught.

use std::path::{Path, PathBuf};
use std::process::Command;

use conga_trace::json::{parse, Value};
use congabench::machine::nproc;
use congabench::report::{END_TO_END, PER_LAYER};
use congabench::run::Conservation;
use congabench::workloads::{Scale, Workload, WORKLOADS};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {key}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("missing array {key}"))
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_mirrors_the_code_tables() {
    let doc = benchmark_json();
    let Value::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // Names and units mirror the code; direction and bound live in the
    // file alone and must be well formed.
    let e2e = entries(&doc, "end_to_end");
    let named: Vec<(&str, &str)> = e2e
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(named, END_TO_END);
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    let setup = e2e
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    for m in e2e {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(bound(m) <= bound(setup), "setup_s has the largest bound");
    }

    let per_layer = entries(&doc, "per_layer");
    let named: Vec<(&str, &str)> = per_layer
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(named, PER_LAYER);
    for m in e2e.iter().chain(per_layer) {
        assert!(["lower", "higher"].contains(&field(m, "better")));
    }

    for name in workloads
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
    {
        assert!(name_ok(name), "bad name {name}");
    }
    assert_eq!(entries(&doc, "paths").len(), 1);
    assert_eq!(entries(&doc, "paths")[0].as_str(), Some("congabench"));
}

/// Run `congabench --smoke` over every workload; returns the run document.
fn smoke(out: &Path, traced: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_congabench"));
    cmd.arg("--smoke").arg("--out").arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd.output().expect("congabench runs");
    assert!(
        output.status.success(),
        "congabench --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Every single-run section ends in the driver's one-line JSON object.
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), if traced { 8 } else { 4 });
    for line in lines {
        let v = parse(line).expect("contract line is JSON");
        let Value::Obj(fields) = &v else {
            panic!("contract line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert!(
            v.get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert!(
            names == e2e || names == per_layer,
            "unexpected metric set {names:?}"
        );
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} is not a finite number"
            );
            assert!(!field(m, "unit").is_empty(), "{name} has no unit");
        }
    }
    parse(&std::fs::read_to_string(out).expect("run document written")).expect("document parses")
}

fn hashes(doc: &Value) -> Vec<(String, bool, String)> {
    entries(doc, "runs")
        .iter()
        .map(|r| {
            (
                field(r, "workload").to_string(),
                r.get("traced").and_then(Value::as_bool).expect("traced"),
                field(r, "report_fnv64").to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_metric_and_repeats_exactly() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    // The traced run reports a two-worker speed-up and refuses to on one
    // core; there, only the end-to-end half can be exercised.
    let traced = nproc() >= 2;
    let first = smoke(&tmp.join("smoke1.json"), traced);
    let second = smoke(&tmp.join("smoke2.json"), false);

    let runs = entries(&first, "runs");
    for (name, _) in WORKLOADS {
        for want_traced in [false, true] {
            if want_traced && !traced {
                continue;
            }
            let run = runs
                .iter()
                .find(|r| {
                    field(r, "workload") == name
                        && r.get("traced").and_then(Value::as_bool) == Some(want_traced)
                })
                .unwrap_or_else(|| panic!("no run of {name} traced={want_traced}"));
            // Machine stamp on every output.
            for key in ["nproc", "workers", "seed"] {
                assert!(run.get(key).and_then(Value::as_u64).is_some(), "{key}");
            }
            for key in ["rustc", "commit"] {
                assert!(!field(run, key).is_empty());
            }
            let metrics = entries(run, "metrics");
            let wanted: Vec<&str> = if want_traced {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            for w in wanted {
                let m = metrics
                    .iter()
                    .find(|m| field(m, "name") == w)
                    .unwrap_or_else(|| panic!("{name}: metric {w} not reported"));
                assert!(!field(m, "unit").is_empty());
                let median = m.get("median").and_then(Value::as_f64);
                assert!(median.is_some_and(f64::is_finite), "{name}: {w} is NaN");
            }
        }
    }

    // A deterministic simulator repeats: the second smoke run's reports
    // hash to the first's, workload by workload.
    let untraced = |doc: &Value| -> Vec<(String, bool, String)> {
        hashes(doc).into_iter().filter(|h| !h.1).collect()
    };
    assert_eq!(untraced(&first), untraced(&second));
    assert_eq!(untraced(&first).len(), 4);
}

#[test]
fn a_broken_conservation_sum_fails_the_check() {
    let rep = Workload::new("testbed_elephants", 1, Scale::Smoke)
        .expect("known workload")
        .run_rep();
    let sum = Conservation::from_metrics(&rep.metrics);
    assert_eq!(sum.check(), Ok(()));
    assert!(sum.delivered > 0);
    for broken in [
        Conservation {
            delivered: sum.delivered - 1,
            ..sum
        },
        Conservation {
            queue_drops: sum.queue_drops + 1,
            ..sum
        },
        Conservation {
            inflight: -1,
            injected: sum.injected - sum.inflight as u64 - 1,
            ..sum
        },
    ] {
        assert!(broken.check().is_err(), "{broken:?} passed");
    }
}

#[test]
fn compare_judges_a_document_against_itself_ok() {
    if !Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../BENCHMARK.json")
        .exists()
    {
        return;
    }
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("self.json");
    let status = Command::new(env!("CARGO_BIN_EXE_congabench"))
        .args(["--workload", "testbed_mice", "--smoke", "--out"])
        .arg(&tmp)
        .output()
        .expect("congabench runs");
    assert!(status.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_congabench"))
        .arg("--compare")
        .arg(&tmp)
        .arg(&tmp)
        .output()
        .expect("congabench runs");
    let table = String::from_utf8_lossy(&out.stdout);
    // Identical medians are never "worse"; a smoke run's two repetitions
    // may be too far apart to resolve a bound, which `unresolved` says.
    assert!(!table.contains("worse"), "{table}");
    assert!(table.contains("report_fnv64"), "{table}");
    for (name, _) in END_TO_END {
        assert!(table.contains(name), "{table}");
    }
    // Usage errors exit 2.
    let bad = Command::new(env!("CARGO_BIN_EXE_congabench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("congabench runs");
    assert_eq!(bad.status.code(), Some(2));
}
