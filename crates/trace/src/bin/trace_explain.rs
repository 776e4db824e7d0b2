//! Replay a JSONL trace and print its causal chains.
//!
//! ```text
//! trace_explain <trace.jsonl>                overview (validates first)
//! trace_explain <trace.jsonl> --validate     schema check only
//! trace_explain <trace.jsonl> --summary      overview + per-flow event-type
//!                                            counts and first/last timestamps
//! trace_explain <trace.jsonl> --flow N       causal chain for flow N
//! ```
//!
//! Exits nonzero if the trace fails validation.

use conga_trace::explain;

fn usage() -> ! {
    eprintln!("usage: trace_explain <trace.jsonl> [--validate] [--summary] [--flow N]");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut validate_only = false;
    let mut summary = false;
    let mut flow: Option<u64> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--validate" => validate_only = true,
            "--summary" => summary = true,
            "--flow" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                flow = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            a if a.starts_with("--") => usage(),
            a => {
                if path.replace(a.to_string()).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_explain: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let s = explain::validate(&text).unwrap_or_else(|e| {
        eprintln!("{path}: INVALID: {e}");
        std::process::exit(1);
    });
    if validate_only {
        println!(
            "{path}: ok ({} events, {} flows, span {:.3} ms)",
            s.events,
            s.flows,
            s.last_t_ns as f64 / 1e6
        );
    } else if let Some(f) = flow {
        print!("{}", explain::explain_flow(&text, f));
    } else {
        print!("{}", explain::summarize(&s, summary));
    }
}
