//! Replay and validation of JSONL traces: the logic behind the
//! `trace_explain` binary, kept in the library so tests and CI can call
//! it directly. Every line is read through [`TraceRecord::from_jsonl`],
//! so the schema lives in one place: the event list in the crate root.

use crate::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary returned by a successful [`validate`] pass.
#[derive(Clone, Debug, Default)]
pub struct ValidateSummary {
    /// Total events in the trace.
    pub events: usize,
    /// Event counts by type tag.
    pub by_type: BTreeMap<String, usize>,
    /// Distinct flow ids seen (events attributed to a flow).
    pub flows: usize,
    /// Timestamp of the last event, nanoseconds.
    pub last_t_ns: u64,
    /// Per-flow breakdown, keyed by flow id (events attributed to a flow
    /// only; global events such as faults are not attributed).
    pub per_flow: BTreeMap<u64, FlowSummary>,
}

/// One flow's slice of a trace, collected during [`validate`].
#[derive(Clone, Debug, Default)]
pub struct FlowSummary {
    /// Events carrying this flow id.
    pub events: usize,
    /// Timestamp of the flow's first event, nanoseconds.
    pub first_t_ns: u64,
    /// Timestamp of the flow's last event, nanoseconds.
    pub last_t_ns: u64,
    /// Event counts by type tag, for this flow only.
    pub by_type: BTreeMap<String, usize>,
}

/// Format a validation error anchored to its offending line: the
/// diagnostic plus the line's content (truncated for sanity), so a
/// failure is actionable without opening the trace by hand.
fn line_error(ln: usize, line: &str, msg: impl std::fmt::Display) -> String {
    const SHOW: usize = 160;
    let shown: String = line.chars().take(SHOW).collect();
    let truncated = if shown.len() < line.len() { " ..." } else { "" };
    format!("line {ln}: {msg}\n  offending line: {shown}{truncated}")
}

/// Validate a JSONL trace: every line must decode as a [`TraceRecord`]
/// (known event type, every field present and in its type's range),
/// `seq` must strictly increase, `t_ns` must not decrease, and decision
/// events must list their chosen channel among their candidates.
///
/// Errors name the offending line number and echo its content; malformed
/// input of any shape (including invalid UTF-8 escapes and pathological
/// nesting) yields `Err`, never a panic.
pub fn validate(text: &str) -> Result<ValidateSummary, String> {
    let mut summary = ValidateSummary::default();
    let mut last: Option<(u64, u64)> = None;
    for (i, line) in text.lines().enumerate() {
        let err = |msg: String| line_error(i + 1, line, msg);
        let rec = TraceRecord::from_jsonl(line).map_err(err)?;
        let (seq, t) = (rec.seq, rec.t.as_nanos());
        if let Some((prev, last_t)) = last {
            if seq <= prev {
                return Err(err(format!("seq {seq} not above {prev}")));
            }
            if t < last_t {
                return Err(err(format!("t_ns {t} went backwards from {last_t}")));
            }
        }
        last = Some((seq, t));
        if let TraceEvent::Decision {
            candidates, chosen, ..
        } = &rec.event
        {
            if candidates.is_empty() {
                return Err(err("decision with no candidates".to_string()));
            }
            if !candidates.iter().any(|c| c.ch == *chosen) {
                return Err(err(format!("chosen channel {chosen} not among candidates")));
            }
        }
        let kind = rec.event.kind();
        if let Some(f) = rec.event.flow() {
            let fs = summary
                .per_flow
                .entry(u64::from(f))
                .or_insert_with(|| FlowSummary {
                    first_t_ns: t,
                    ..FlowSummary::default()
                });
            fs.events += 1;
            fs.last_t_ns = t;
            *fs.by_type.entry(kind.to_string()).or_insert(0) += 1;
        }
        summary.events += 1;
        *summary.by_type.entry(kind.to_string()).or_insert(0) += 1;
    }
    summary.flows = summary.per_flow.len();
    summary.last_t_ns = last.map_or(0, |(_, t)| t);
    Ok(summary)
}

/// Replay the trace and print the causal chain for one flow: flowlet
/// transitions, every routing decision with its candidate congestion
/// vector, feedback exchanges, losses, and transport reactions. Fault
/// transitions are included for context (they are global events).
///
/// The trace must already pass [`validate`]; malformed lines are skipped
/// here rather than re-reported.
pub fn explain_flow(text: &str, flow: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "causal chain for flow {flow}:");
    let mut shown = 0usize;
    let mut flow_specific = 0usize;
    let mut pkts = 0usize;
    for line in text.lines() {
        let Ok(rec) = TraceRecord::from_jsonl(line) else {
            continue;
        };
        let ours = rec.event.flow().map(u64::from) == Some(flow);
        if !ours && !matches!(rec.event, TraceEvent::FaultTransition { .. }) {
            continue;
        }
        if ours {
            flow_specific += 1;
        }
        let what = match &rec.event {
            TraceEvent::FaultTransition { ch, up } => {
                let state = if *up { "recovered" } else { "FAILED" };
                format!("FAULT      channel {ch} {state}")
            }
            TraceEvent::FlowletNew { leaf, ch, prev, .. } => {
                let prev = prev.map_or(String::new(), |p| {
                    format!(" (previous flowlet on channel {p} aged out)")
                });
                format!("FLOWLET    leaf {leaf} committed new flowlet to channel {ch}{prev}")
            }
            TraceEvent::FlowletExpire { leaf, ch, .. } => {
                format!("FLOWLET    leaf {leaf} flowlet on channel {ch} expired")
            }
            TraceEvent::Decision {
                leaf,
                dst_leaf,
                candidates,
                chosen,
                lbtag,
                sticky,
                ..
            } => {
                let sticky = if *sticky { " [sticky]" } else { "" };
                let mut s = format!(
                    "DECISION   leaf {leaf} -> leaf {dst_leaf}: chose channel {chosen} (lbtag {lbtag}){sticky}"
                );
                for c in candidates {
                    let mark = if c.ch == *chosen { " <= chosen" } else { "" };
                    let _ = write!(
                        s,
                        "\n                 candidate ch {:>3} lbtag {:>2}: local {} remote {} -> metric {}{mark}",
                        c.ch, c.lbtag, c.local, c.remote, c.metric
                    );
                }
                s
            }
            TraceEvent::FeedbackPiggyback {
                leaf,
                dst_leaf,
                lbtag,
                metric,
                ..
            } => format!(
                "FEEDBACK   leaf {leaf} piggybacked lbtag {lbtag} metric {metric} toward leaf {dst_leaf}"
            ),
            TraceEvent::FeedbackApply {
                leaf,
                src_leaf,
                lbtag,
                metric,
                ..
            } => format!(
                "FEEDBACK   leaf {leaf} applied lbtag {lbtag} metric {metric} from leaf {src_leaf}"
            ),
            TraceEvent::PacketDrop { ch, pkt, .. } => {
                format!("LOSS       packet {pkt} tail-dropped at channel {ch}")
            }
            TraceEvent::PacketBlackhole { ch, pkt, .. } => {
                format!("LOSS       packet {pkt} blackholed on dead channel {ch}")
            }
            TraceEvent::FastRetx { subflow, .. } => {
                format!("TRANSPORT  subflow {subflow} entered fast retransmit")
            }
            TraceEvent::Rto { subflow, .. } => {
                format!("TRANSPORT  subflow {subflow} retransmission timeout")
            }
            TraceEvent::CwndUpdate { subflow, cwnd, .. } => {
                format!("TRANSPORT  subflow {subflow} cwnd -> {cwnd:.0} bytes")
            }
            // Per-packet queue/DRE/delivery events are summarized, not
            // printed line by line.
            TraceEvent::PacketEnqueue { .. }
            | TraceEvent::PacketTx { .. }
            | TraceEvent::PacketDeliver { .. }
            | TraceEvent::DreUpdate { .. } => {
                pkts += 1;
                continue;
            }
        };
        let _ = writeln!(out, "{:>10.3} ms  {what}", rec.t.as_nanos() as f64 / 1e6);
        shown += 1;
    }
    if flow_specific == 0 {
        let _ = writeln!(
            out,
            "  (no events recorded for this flow — was it sampled?)"
        );
    } else {
        let _ = writeln!(
            out,
            "  ({} decision/loss/transport events shown; {} per-packet events elided)",
            shown, pkts
        );
    }
    out
}

/// What `trace_explain` prints for a validated trace without `--flow`:
/// event counts by type, flow count and span; with `per_flow`
/// (`--summary`), also each flow's event-type counts and first/last
/// timestamps.
pub fn summarize(s: &ValidateSummary, per_flow: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} events over {:.3} ms across {} flows",
        s.events,
        s.last_t_ns as f64 / 1e6,
        s.flows
    );
    for (k, n) in &s.by_type {
        let _ = writeln!(out, "  {k:<14} {n}");
    }
    if !per_flow {
        return out;
    }
    for (flow, fs) in &s.per_flow {
        let _ = writeln!(
            out,
            "flow {flow}: {} events, first {:.3} ms, last {:.3} ms",
            fs.events,
            fs.first_t_ns as f64 / 1e6,
            fs.last_t_ns as f64 / 1e6
        );
        for (k, n) in &fs.by_type {
            let _ = writeln!(out, "    {k:<14} {n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Candidate, TraceConfig, TraceEvent, TraceHandle};
    use conga_sim::SimTime;

    fn sample_trace() -> String {
        let h = TraceHandle::recording(TraceConfig::all());
        h.emit(
            SimTime::from_nanos(1000),
            TraceEvent::FlowletNew {
                leaf: 0,
                flow: 1,
                ch: 4,
                prev: None,
            },
        );
        h.emit(
            SimTime::from_nanos(1000),
            TraceEvent::Decision {
                leaf: 0,
                flow: 1,
                dst_leaf: 1,
                candidates: vec![Candidate {
                    ch: 4,
                    lbtag: 0,
                    local: 0,
                    remote: 0,
                    metric: 0,
                }],
                chosen: 4,
                lbtag: 0,
                sticky: false,
            },
        );
        h.emit(
            SimTime::from_nanos(2000),
            TraceEvent::FaultTransition { ch: 4, up: false },
        );
        h.emit(
            SimTime::from_nanos(3000),
            TraceEvent::PacketBlackhole {
                ch: 4,
                pkt: 9,
                flow: 1,
                size: 1500,
            },
        );
        h.export_jsonl().unwrap()
    }

    #[test]
    fn validate_accepts_generated_traces() {
        let s = validate(&sample_trace()).expect("generated trace must validate");
        assert_eq!(s.events, 4);
        assert_eq!(s.by_type["decision"], 1);
        assert_eq!(s.flows, 1);
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        assert!(validate("not json\n").is_err());
        assert!(validate("{\"seq\":0,\"t_ns\":1}\n").is_err());
        // Regressing sequence numbers.
        let bad = "{\"seq\":1,\"t_ns\":1,\"ev\":\"fault\",\"ch\":0,\"up\":true}\n\
                   {\"seq\":1,\"t_ns\":2,\"ev\":\"fault\",\"ch\":0,\"up\":false}\n";
        assert!(validate(bad).is_err());
        // Chosen channel must be a candidate.
        let bad = "{\"seq\":0,\"t_ns\":1,\"ev\":\"decision\",\"leaf\":0,\"flow\":0,\
                   \"dst_leaf\":1,\"cand\":[{\"ch\":1,\"lbtag\":0,\"local\":0,\
                   \"remote\":0,\"metric\":0}],\"chosen\":2,\"lbtag\":0,\"sticky\":false}\n";
        assert!(validate(bad).is_err());
    }

    #[test]
    fn validate_rejects_mistyped_and_out_of_range_fields() {
        let good = r#"{"seq":0,"t_ns":1,"ev":"fault","ch":0,"up":true}"#;
        let decision = |cand: &str| {
            format!(
                r#"{{"seq":1,"t_ns":2,"ev":"decision","leaf":0,"flow":0,"dst_leaf":1,"cand":[{cand}],"chosen":1,"lbtag":0,"sticky":false}}"#
            )
        };
        let cases = [
            (
                r#"{"seq":1,"t_ns":2,"ev":"fault","ch":-1,"up":false}"#.to_string(),
                r#"fault field "ch": not a u32"#,
            ),
            (
                r#"{"seq":1,"t_ns":2,"ev":"fault","ch":4294967296,"up":false}"#.to_string(),
                r#"fault field "ch": not a u32"#,
            ),
            (
                r#"{"seq":1,"t_ns":2,"ev":"fault","ch":1,"up":1}"#.to_string(),
                r#"fault field "up": not a bool"#,
            ),
            (
                r#"{"seq":1,"t_ns":2,"ev":"dre","ch":1,"flow":0,"bytes":9,"q":256}"#.to_string(),
                r#"dre field "q": not a u8"#,
            ),
            (
                r#"{"seq":1,"t_ns":2,"ev":"cwnd","flow":0,"sub":0,"cwnd":"big"}"#.to_string(),
                r#"cwnd field "cwnd": not a number"#,
            ),
            (
                r#"{"seq":1,"t_ns":2,"ev":"flowlet_new","leaf":0,"flow":0,"ch":1,"prev":1.5}"#
                    .to_string(),
                r#"flowlet_new field "prev": not null and not a u32"#,
            ),
            (
                decision(r#"{"ch":1,"lbtag":0,"local":0,"remote":-2,"metric":0}"#),
                r#"decision field "cand": candidate field "remote": not a u8"#,
            ),
            (
                r#"{"seq":-1,"t_ns":2,"ev":"fault","ch":1,"up":true}"#.to_string(),
                r#"field "seq": not a u64"#,
            ),
        ];
        for (bad, why) in cases {
            let err = validate(&format!("{good}\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{err}");
            assert!(err.contains(why), "want {why:?} in {err}");
        }
        // Structural errors keep their messages.
        let err = validate(&decision("")).unwrap_err();
        assert!(err.contains("decision with no candidates"), "{err}");
        let err = validate(r#"{"seq":1,"t_ns":2,"ev":"fault","up":true}"#).unwrap_err();
        assert!(err.contains(r#"fault missing field "ch""#), "{err}");
    }

    #[test]
    fn summary_breaks_down_per_flow() {
        let text = sample_trace();
        let s = validate(&text).expect("trace validates");
        let fs = &s.per_flow[&1];
        assert_eq!(fs.events, 3, "flowlet_new + decision + blackhole");
        assert_eq!(fs.first_t_ns, 1000);
        assert_eq!(fs.last_t_ns, 3000);
        assert_eq!(fs.by_type["decision"], 1);
        assert_eq!(fs.by_type["blackhole"], 1);
        let rendered = summarize(&s, true);
        assert!(
            rendered.contains("flow 1: 3 events, first 0.001 ms, last 0.003 ms"),
            "{rendered}"
        );
        assert!(rendered.contains("decision"), "{rendered}");
    }

    #[test]
    fn explain_prints_the_causal_chain() {
        let text = sample_trace();
        let e = explain_flow(&text, 1);
        assert!(e.contains("DECISION"), "{e}");
        assert!(e.contains("candidate ch"), "{e}");
        assert!(e.contains("FAULT"), "{e}");
        assert!(e.contains("blackholed"), "{e}");
        let none = explain_flow(&text, 99);
        assert!(none.contains("no events"), "{none}");
    }
}
