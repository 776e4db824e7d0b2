//! The committed regression-bench harness.
//!
//! Runs a fixed set of engine benchmarks — event-queue push/pop for both
//! future-event-list kinds, raw packet forwarding, and one small
//! end-to-end FCT cell — and writes `results/BENCH_engine.json` so the
//! engine's bench trajectory accumulates in the repository.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p conga-bench --bench regression              # write results/BENCH_engine.json
//! cargo bench -p conga-bench --bench regression -- --out X   # write elsewhere
//! cargo bench -p conga-bench --bench regression -- --check A [B]
//! ```
//!
//! `--check` validates an existing report (schema tag, required fields,
//! the full expected bench-name list in order) and exits nonzero on any
//! violation; with two paths it additionally requires the two reports to
//! agree on every *non-timing* key, which is how CI detects a
//! non-deterministic harness. Timing values (`iters`, `ns_per_iter`) are
//! machine- and run-dependent by design and are never compared.

use conga_bench::{black_box, BenchReport, BENCH_SCHEMA};
use conga_core::FabricPolicy;
use conga_experiments::{run_fct, FctRun, Scheme, TestbedOpts};
use conga_net::{inject, HostId, LeafSpineBuilder, Network, Packet, SinkAgent};
use conga_sim::{EventQueue, QueueKind, SimDuration, SimTime};
use conga_trace::json::{parse, Value};
use conga_workloads::FlowSizeDist;

/// The stable bench-name list, in execution order. `--check` enforces
/// exactly this set; extend it together with `run_all`.
const EXPECTED: &[&str] = &[
    "event_queue/heap_hot",
    "event_queue/calendar_hot",
    "event_queue/heap_churn",
    "event_queue/calendar_churn",
    "forwarding/conga_100pkts_e2e",
    "fct_cell/conga_quick",
    "fct_cell/conga_quick_shards2",
    "fct_cell/conga_quick_dctcp",
    "fct_cell/conga_quick_cubic",
    "fct_cell/conga_quick_bbr",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Ignore the harness flag `cargo bench` appends.
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--bench")
        .collect();
    if let Some(i) = args.iter().position(|a| *a == "--check") {
        let paths = &args[i + 1..];
        if paths.is_empty() || paths.len() > 2 {
            eprintln!("usage: regression --check <report.json> [second-report.json]");
            std::process::exit(2);
        }
        match check(paths) {
            Ok(()) => println!("BENCH_engine report ok: {}", paths.join(", ")),
            Err(e) => {
                eprintln!("BENCH_engine report invalid: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // `cargo bench` runs with the package dir as cwd, so the default
    // path is anchored at the workspace root, not the invocation cwd.
    let default_out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_engine.json"
    );
    let out = args
        .iter()
        .position(|a| *a == "--out")
        .and_then(|i| args.get(i + 1))
        .copied()
        .unwrap_or(default_out);

    let report = run_all();
    let json = report.to_json("engine-regression");
    if let Some(parent) = std::path::Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn run_all() -> BenchReport {
    let mut r = BenchReport::default();
    bench_event_queues(&mut r);
    bench_forwarding(&mut r);
    bench_cell(&mut r);
    assert_eq!(
        r.entries
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>(),
        EXPECTED,
        "EXPECTED list out of sync with run_all"
    );
    r
}

/// Hot rotation (pop one, push one ~100 ns out, steady population) and
/// churn (drain-and-refill across bucket years) for both queue kinds.
fn bench_event_queues(r: &mut BenchReport) {
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        let tag = match kind {
            QueueKind::Heap => "heap",
            QueueKind::Calendar => "calendar",
        };
        let mut q: EventQueue<u64> = EventQueue::with_kind(kind, 1 << 12);
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        let mut t = 1024 * 100;
        r.bench(&format!("event_queue/{tag}_hot"), || {
            let (at, e) = q.pop().expect("non-empty");
            t += 100;
            q.push(SimTime::from_nanos(t), black_box(e));
            black_box(at);
        });
    }
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        let tag = match kind {
            QueueKind::Heap => "heap",
            QueueKind::Calendar => "calendar",
        };
        let mut q: EventQueue<u64> = EventQueue::with_kind(kind, 1 << 12);
        let mut t = 0u64;
        r.bench(&format!("event_queue/{tag}_churn"), || {
            // Burst of mixed horizons (some beyond a calendar year),
            // then drain — exercises bucket migration and the far heap.
            for i in 0..64u64 {
                q.push(SimTime::from_nanos(t + 1 + i * 97_000), i);
            }
            while let Some((at, e)) = q.pop() {
                t = at.as_nanos();
                black_box(e);
            }
        });
    }
}

fn bench_forwarding(r: &mut BenchReport) {
    let topo = LeafSpineBuilder::new(2, 2, 8).parallel_links(2).build();
    let mut net = Network::new(topo, FabricPolicy::conga(), SinkAgent::default(), 1);
    let mut f = 0u32;
    r.bench("forwarding/conga_100pkts_e2e", || {
        for i in 0..100u32 {
            f = f.wrapping_add(1);
            let pkt = Packet::data(
                f,
                0,
                conga_net::flow_tuple_hash(f, 0),
                HostId(i % 8),
                HostId(8 + i % 8),
                0,
                1460,
                net.now(),
            );
            inject(&mut net, pkt);
        }
        // A millisecond drains the burst and keeps the clock finite:
        // `run_to_quiescence` parks it at the end of time, and every
        // later burst would be scheduled at wrapped timestamps.
        net.run_until(net.now() + SimDuration::from_millis(1));
        net.agent.received.clear();
    });
    assert_eq!(
        net.stats.delivered_pkts, net.stats.injected_pkts,
        "a forwarding burst did not drain within its millisecond"
    );
}

fn bench_cell(r: &mut BenchReport) {
    let cell = |shards: usize, cc: conga_transport::CcKind| {
        let mut cfg = FctRun::new(
            TestbedOpts::paper_baseline().quick(),
            Scheme::Conga,
            FlowSizeDist::enterprise(),
            0.5,
        );
        cfg.n_flows = 60;
        cfg.seed = 1;
        cfg.shards = shards;
        cfg.cc = cc;
        cfg
    };
    use conga_transport::CcKind;
    r.bench_n("fct_cell/conga_quick", 3, || {
        black_box(run_fct(&cell(1, CcKind::Aimd)));
    });
    // The shards axis: the same cell on two worker threads. Artifacts are
    // byte-identical (tests/shards.rs); only the wall-clock may move.
    r.bench_n("fct_cell/conga_quick_shards2", 3, || {
        black_box(run_fct(&cell(2, CcKind::Aimd)));
    });
    // The congestion-controller axis: the same cell under each non-default
    // controller, so per-controller event-loop cost (ECN marking for
    // DCTCP, cubic window math, pacing timers for BBR) accumulates a
    // trajectory next to the AIMD baseline.
    for (name, cc) in [
        ("fct_cell/conga_quick_dctcp", CcKind::Dctcp),
        ("fct_cell/conga_quick_cubic", CcKind::Cubic),
        ("fct_cell/conga_quick_bbr", CcKind::Bbr),
    ] {
        r.bench_n(name, 3, || {
            black_box(run_fct(&cell(1, cc)));
        });
    }
}

/// Validate one report, or compare the non-timing keys of two.
fn check(paths: &[&str]) -> Result<(), String> {
    let mut shapes = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        shapes.push(validate(p, &text)?);
    }
    if shapes.len() == 2 && shapes[0] != shapes[1] {
        return Err(format!(
            "non-timing keys differ between {} and {}:\n  {:?}\nvs\n  {:?}",
            paths[0], paths[1], shapes[0], shapes[1]
        ));
    }
    Ok(())
}

/// Check one report's structure and return its non-timing projection
/// (schema, suite, ordered bench names).
fn validate(path: &str, text: &str) -> Result<Vec<String>, String> {
    let doc = parse(text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing \"schema\""))?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "{path}: schema {schema:?}, expected {BENCH_SCHEMA:?}"
        ));
    }
    let suite = doc
        .get("suite")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing \"suite\""))?;
    let Some(Value::Arr(benches)) = doc.get("benches") else {
        return Err(format!("{path}: missing \"benches\" array"));
    };
    let mut names = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: benches[{i}] missing \"name\""))?;
        for field in ["iters", "ns_per_iter"] {
            if b.get(field).and_then(Value::as_f64).is_none() {
                return Err(format!("{path}: benches[{i}] ({name}) missing \"{field}\""));
            }
        }
        names.push(name.to_string());
    }
    if names != EXPECTED {
        return Err(format!(
            "{path}: bench names {names:?} do not match the expected list {EXPECTED:?}"
        ));
    }
    Ok([schema.to_string(), suite.to_string()]
        .into_iter()
        .chain(names)
        .collect())
}
