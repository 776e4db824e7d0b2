//! Determinism-under-optimisation contracts for the engine hot path.
//!
//! The performance pass (allocation elimination, single-pass FCT
//! aggregation, the calendar event-queue variant) must preserve the
//! `(code, seed, config)` → artifact contract byte-for-byte. Two
//! guards enforce that here:
//!
//! 1. **Committed goldens** — one seeded fig11-dynamic cell's RunReport
//!    JSON and trace JSONL are committed under `tests/golden/`; the test
//!    re-runs the cell and compares bytes. Any optimisation that changes
//!    an artifact byte shows up as a diff against files generated
//!    *before* the optimisation landed. Regenerate deliberately with
//!    `UPDATE_GOLDEN=1 cargo test -q --test hotpath`.
//! 2. **Queue-implementation equivalence** — the same cell runs once on
//!    the binary-heap event queue and once on the calendar variant, and
//!    the artifacts must be byte-identical (`queue_kinds_are_equivalent`).

use conga::experiments::{run_dynamic_failure, DynFailSpec, Scheme};
use conga::sim::{QueueKind, SimDuration, SimTime};
use conga::trace::TraceConfig;

const GOLDEN_REPORT: &str = "tests/golden/fig11_dynamic.report.json";
const GOLDEN_TRACE: &str = "tests/golden/fig11_dynamic.trace.jsonl";

/// A small seeded fig11-dynamic cell: quick testbed, 40 ms window, the
/// Leaf1–Spine1 link dies at 20 ms and returns at 30 ms. Flow-sampled
/// tracing keeps the committed golden JSONL reviewable.
fn golden_spec() -> DynFailSpec {
    let mut spec = DynFailSpec::paper(Scheme::Conga, true, 7);
    spec.window = SimTime::from_millis(40);
    spec.fail_at = SimTime::from_millis(20);
    spec.recover_at = SimTime::from_millis(30);
    spec.slice = SimDuration::from_millis(5);
    spec.fct.trace = Some(TraceConfig {
        flows: Some([0, 1, 2].into()),
        ring: None,
    });
    spec
}

fn run_cell(spec: &DynFailSpec) -> (String, String) {
    let out = run_dynamic_failure(spec);
    let trace = out
        .trace
        .as_ref()
        .and_then(|t| t.export_jsonl())
        .expect("tracing was requested");
    (out.report.to_json(), trace)
}

/// Same-seed artifacts must match the goldens committed before the
/// hot-path optimisation pass, byte for byte.
#[test]
fn artifacts_match_pre_optimisation_goldens() {
    let (report, trace) = run_cell(&golden_spec());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("mkdir tests/golden");
        std::fs::write(GOLDEN_REPORT, &report).expect("write golden report");
        std::fs::write(GOLDEN_TRACE, &trace).expect("write golden trace");
        eprintln!("blessed {GOLDEN_REPORT} and {GOLDEN_TRACE}");
        return;
    }
    let want_report = std::fs::read_to_string(GOLDEN_REPORT).expect("golden report committed");
    let want_trace = std::fs::read_to_string(GOLDEN_TRACE).expect("golden trace committed");
    assert!(
        report == want_report,
        "RunReport diverged from the pre-optimisation golden \
         (UPDATE_GOLDEN=1 to re-bless after a deliberate behaviour change)"
    );
    assert!(
        trace == want_trace,
        "trace JSONL diverged from the pre-optimisation golden \
         (UPDATE_GOLDEN=1 to re-bless after a deliberate behaviour change)"
    );
}

/// The calendar event queue must be observationally identical to the
/// binary heap: same `(time, tie)` pop order, therefore byte-identical
/// RunReport and trace JSONL on the same seeded cell.
#[test]
fn queue_kinds_are_equivalent() {
    let mut heap = golden_spec();
    heap.fct.queue = QueueKind::Heap;
    let mut calendar = golden_spec();
    calendar.fct.queue = QueueKind::Calendar;
    let (report_h, trace_h) = run_cell(&heap);
    let (report_c, trace_c) = run_cell(&calendar);
    assert!(
        report_h == report_c,
        "calendar queue changed the RunReport bytes"
    );
    assert!(trace_h == trace_c, "calendar queue changed the trace bytes");
}
