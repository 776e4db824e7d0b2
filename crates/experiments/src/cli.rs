//! Minimal argument parsing for `fleet <figure> [flags]` (no external
//! dependency needed for `--quick`-style flags).
//!
//! Every flag is a typed [`Args`] field, parsed once by [`Args::from_iter`]
//! whichever row runs: a malformed value, an unknown flag or a flag that
//! needs another one is never a panic and never silently the default —
//! `from_iter` returns `Err` with a message, and the process prints it
//! plus a usage banner and exits with status 2 before any cell runs. The
//! one check left to a driver is whether `--fault-link` names a link of
//! the fabric it builds (`Args::fault_link`).

use crate::runner::{build_testbed, ecn_marking, Engine, FctRun, Scheme, TestbedOpts};
use conga_net::{LeafId, Link, NodeId, SpineId};
use conga_sim::{QueueKind, SimTime};
use conga_transport::{CcKind, TcpConfig};
use conga_workloads::FlowSizeDist;
use std::path::PathBuf;

/// Upper bound accepted for `--ecn-threshold`, in packets: the default
/// 2 MiB access-queue capacity divided by the 1560 B wire size of a
/// full-MSS segment. A threshold deeper than the queue can never mark.
pub const ECN_THRESHOLD_MAX_PKTS: u32 = (2 << 20) / 1560;

/// Parsed common arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Reduced problem sizes for smoke runs / CI.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of independent runs to average where applicable (`--runs
    /// N`, N >= 1; `None` = the figure's default).
    pub runs: Option<usize>,
    /// Fleet worker threads (`--jobs N`; default: the machine's available
    /// parallelism divided by `--shards`, at least 1, so that cells times
    /// workers per cell fills the cores once — artifacts are
    /// byte-identical for any N).
    pub jobs: usize,
    /// Bypass the content-addressed result cache (`--no-cache`).
    pub no_cache: bool,
    /// Worker threads *inside* each simulation (`--shards N`); purely a
    /// performance knob, never part of a scenario hash (default 1).
    pub shards: usize,
    /// Congestion controllers to run (`--cc a,b,...`; default `[aimd]`).
    /// Single-controller figures use the first entry; the tournament
    /// races every entry as an axis.
    pub cc: Vec<CcKind>,
    /// ECN marking threshold in packets (`--ecn-threshold N`); `None`
    /// leaves the per-controller default in force (off for loss-based
    /// controllers, ~65 packets for DCTCP).
    pub ecn_threshold: Option<u32>,
    /// Result-cache directory (`--cache-dir DIR`).
    pub(crate) cache_dir: String,
    /// Where event traces go (`--trace DIR`); `None` = no tracing.
    pub(crate) trace: Option<PathBuf>,
    /// Trace only these flow ids (`--trace-flows a,b,c`).
    pub(crate) trace_flows: Option<Vec<u32>>,
    /// Keep only the last N trace events (`--trace-ring N`).
    pub(crate) trace_ring: Option<usize>,
    /// Flows per direction in each FCT cell (`--flows N`).
    flows: Option<usize>,
    /// Load points as fractions (`--loads` takes percents).
    pub(crate) loads: Option<Vec<f64>>,
    /// When a fault-injecting figure fails its link (`--fail-at-ms T`).
    pub(crate) fail_at: Option<SimTime>,
    /// When it recovers the link (`--recover-at-ms T`, after `fail_at`).
    pub(crate) recover_at: Option<SimTime>,
    /// `--fault-link l:s:p` as given; see [`Args::fault_link`].
    fault_link: Option<(u32, u32, u32)>,
}

/// The usage banner printed on a parse error.
pub const USAGE: &str = "\
usage: fleet <subcommand> [flags]    (`fleet --help` lists the subcommands)
  --quick             reduced problem sizes (CI-scale run)
  --seed N            base RNG seed (default 1)
  --runs N            independent runs to average where applicable
  --jobs N            run independent cells on N worker threads (default:
                      the available parallelism / --shards, at least 1)
  --shards N          worker threads inside each simulation (default 1;
                      artifacts are byte-identical for any N)
  --cc LIST           congestion controllers, comma-separated from
                      aimd|dctcp|cubic|bbr (default aimd)
  --ecn-threshold N   ECN marking threshold in packets (>= 1, <= queue
                      capacity; default: controller-specific)
  --no-cache          bypass the content-addressed result cache
  --cache-dir DIR     result-cache directory (default results/cache)
  --trace DIR         write structured event traces under DIR
  --trace-flows LIST  trace only these flow ids, comma-separated
  --trace-ring N      keep only the last N trace events
  --flows N           flows per direction in each FCT cell
  --loads LIST        load points in percent, comma-separated
  --fail-at-ms T      fail a link T ms into each FCT cell
  --recover-at-ms T   recover it T ms in (default: never)
  --fault-link L:S:P  which link: leaf:spine:parallel (default 1:1:0)";

impl Args {
    /// Parse from an explicit iterator (testable). Returns a message
    /// describing the first malformed flag instead of panicking.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(it: I) -> Result<Args, String> {
        let mut a = Args {
            quick: false,
            seed: 1,
            runs: None,
            jobs: 0,
            no_cache: false,
            shards: 1,
            cc: vec![CcKind::Aimd],
            ecn_threshold: None,
            cache_dir: "results/cache".into(),
            trace: None,
            trace_flows: None,
            trace_ring: None,
            flows: None,
            loads: None,
            fail_at: None,
            recover_at: None,
            fault_link: None,
        };
        let mut jobs = None;
        let mut iter = it.into_iter();
        fn want<T: std::str::FromStr>(
            iter: &mut impl Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<T, String> {
            iter.next()
                .ok_or_else(|| format!("{flag} needs {what}"))?
                .parse()
                .map_err(|_| format!("{flag} needs {what}"))
        }
        fn at_least_one(n: usize, flag: &str, what: &str) -> Result<usize, String> {
            if n == 0 {
                return Err(format!("{flag} needs {what} >= 1"));
            }
            Ok(n)
        }
        fn list<T: std::str::FromStr>(raw: &str, sep: char) -> Option<Vec<T>> {
            raw.split(sep).map(|x| x.trim().parse().ok()).collect()
        }
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--quick" => a.quick = true,
                "--no-cache" => a.no_cache = true,
                "--seed" => a.seed = want(&mut iter, "--seed", "an integer")?,
                "--runs" => {
                    let n = want(&mut iter, "--runs", "an integer")?;
                    a.runs = Some(at_least_one(n, "--runs", "an integer")?);
                }
                "--jobs" => {
                    let n = want(&mut iter, "--jobs", "a worker count >= 1")?;
                    jobs = Some(at_least_one(n, "--jobs", "a worker count")?);
                }
                "--shards" => {
                    let n = want(&mut iter, "--shards", "a worker count >= 1")?;
                    a.shards = at_least_one(n, "--shards", "a worker count")?;
                }
                "--cc" => {
                    let list = iter
                        .next()
                        .ok_or("--cc needs a comma-separated controller list")?;
                    a.cc = list
                        .split(',')
                        .map(CcKind::parse)
                        .collect::<Result<_, _>>()?;
                }
                "--ecn-threshold" => {
                    let n: u32 = want(&mut iter, "--ecn-threshold", "a packet count >= 1")?;
                    if n == 0 {
                        return Err("--ecn-threshold needs a packet count >= 1".into());
                    }
                    if n > ECN_THRESHOLD_MAX_PKTS {
                        return Err(format!(
                            "--ecn-threshold must be <= {ECN_THRESHOLD_MAX_PKTS} packets \
                             (the access-queue capacity)"
                        ));
                    }
                    a.ecn_threshold = Some(n);
                }
                "--cache-dir" => a.cache_dir = want(&mut iter, "--cache-dir", "a value")?,
                "--trace" => a.trace = Some(want(&mut iter, "--trace", "a value")?),
                key @ ("--trace-flows" | "--trace-ring" | "--flows" | "--loads"
                | "--fault-link" | "--fail-at-ms" | "--recover-at-ms") => {
                    let raw = iter.next().ok_or_else(|| format!("{key} needs a value"))?;
                    let bad = |wants: &str| format!("{key} wants {wants}, got '{raw}'");
                    match key {
                        "--trace-flows" => {
                            let ids = list(&raw, ',');
                            a.trace_flows =
                                Some(ids.ok_or_else(|| bad("comma-separated flow ids"))?);
                        }
                        "--trace-ring" => {
                            a.trace_ring = Some(raw.parse().map_err(|_| bad("usize"))?)
                        }
                        "--flows" => a.flows = Some(raw.parse().map_err(|_| bad("usize"))?),
                        "--loads" => {
                            let pct: Vec<f64> =
                                list(&raw, ',').ok_or_else(|| bad("comma-separated percents"))?;
                            a.loads = Some(pct.into_iter().map(|p| p / 100.0).collect());
                        }
                        "--fault-link" => {
                            let link = match list::<u32>(&raw, ':').as_deref() {
                                Some(&[l, s, p]) => (l, s, p),
                                _ => return Err(bad("leaf:spine:parallel")),
                            };
                            a.fault_link = Some(link);
                        }
                        _ => {
                            // --fail-at-ms, --recover-at-ms
                            let ms: f64 = raw.parse().map_err(|_| bad("f64"))?;
                            if ms.is_nan() || ms < 0.0 {
                                return Err(format!("{key} wants a time >= 0 ms, got {ms}"));
                            }
                            let t = Some(SimTime::from_nanos((ms * 1e6) as u64));
                            if key == "--fail-at-ms" {
                                a.fail_at = t;
                            } else {
                                a.recover_at = t;
                            }
                        }
                    }
                }
                k if k.starts_with("--") => return Err(format!("unknown flag {k}")),
                other => return Err(format!("unexpected argument: {other}")),
            }
        }
        if let (Some(f), Some(r)) = (a.fail_at, a.recover_at) {
            if r <= f {
                return Err("--recover-at-ms must come after --fail-at-ms".into());
            }
        }
        if a.trace.is_none() {
            let given = [
                ("--trace-flows", a.trace_flows.is_some()),
                ("--trace-ring", a.trace_ring.is_some()),
            ];
            if let Some((flag, _)) = given.iter().find(|(_, set)| *set) {
                return Err(format!("{flag} needs --trace DIR"));
            }
        }
        a.jobs = jobs.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            default_jobs(cores, a.shards)
        });
        Ok(a)
    }

    /// `--fault-link l:s:p`: the leaf–spine link the fault flags act on
    /// (default `1:1:0`, the paper's Figure 7(b) link). It must exist on
    /// `fabric`, the topology the figure's cells will build — the engine
    /// asserts the same bound, inside the cell.
    pub(crate) fn fault_link(&self, fabric: TestbedOpts) -> Result<Link, String> {
        let (l, s, p) = self.fault_link.unwrap_or((1, 1, 0));
        let link = Link::new(NodeId::Leaf(LeafId(l)), NodeId::Spine(SpineId(s)), p);
        if (p as usize) < build_testbed(fabric).link_channels(link.a, link.b).len() {
            Ok(link)
        } else {
            Err(format!(
                "--fault-link {l}:{s}:{p}: no such link on a {}x{} par{} fabric",
                fabric.leaves, fabric.spines, fabric.parallel
            ))
        }
    }

    /// Number of runs, with experiment-chosen defaults for quick/full mode.
    pub fn runs_or(&self, quick_default: usize, full_default: usize) -> usize {
        self.runs
            .unwrap_or(self.by_mode(quick_default, full_default))
    }

    /// Flows per direction in each FCT cell: `--flows N` when given — also
    /// under `--quick` — else the figure's default for the mode.
    pub(crate) fn flows_or(&self, quick_default: usize, full_default: usize) -> usize {
        self.flows
            .unwrap_or(self.by_mode(quick_default, full_default))
    }

    fn by_mode(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The congestion controller for single-controller figures: the first
    /// `--cc` entry (the default list is `[aimd]`, so this never panics).
    pub fn primary_cc(&self) -> CcKind {
        self.cc.first().copied().unwrap_or(CcKind::Aimd)
    }

    /// The FCT cell of `scheme` on `topo` under `dist` at `load`, with
    /// what every FCT row takes from the command line: the seed,
    /// `--shards`, the first `--cc` entry and `--ecn-threshold`.
    pub(crate) fn fct_run(
        &self,
        topo: TestbedOpts,
        scheme: Scheme,
        dist: FlowSizeDist,
        load: f64,
    ) -> FctRun {
        let mut cfg = FctRun::new(topo, scheme, dist, load);
        cfg.seed = self.seed;
        cfg.shards = self.shards;
        cfg.cc = self.primary_cc();
        cfg.ecn_threshold_pkts = self.ecn_threshold;
        cfg
    }

    /// The engine settings of a row that builds its own flows, with what
    /// it takes from the command line: the seed, `--shards`, and the ECN
    /// marking of the first `--cc` entry under `--ecn-threshold`, counted
    /// in `mss`-sized packets.
    pub(crate) fn engine(&self, mss: u32) -> Engine<'static> {
        Engine {
            seed: self.seed,
            shards: self.shards,
            queue: QueueKind::Calendar,
            ecn: ecn_marking(self.primary_cc(), self.ecn_threshold, mss).map(|(_, e)| e),
            trace: None,
            faults: &[],
        }
    }

    /// Under a controller other than AIMD or an explicit
    /// `--ecn-threshold`, print one line naming both; with the default
    /// flags, print nothing.
    pub(crate) fn print_controller(&self) {
        let cc = self.primary_cc();
        if cc != CcKind::Aimd || self.ecn_threshold.is_some() {
            let marking = ecn_marking(cc, self.ecn_threshold, TcpConfig::standard().mss);
            let ecn = marking.map_or("off".into(), |(pkts, _)| format!("at {pkts} packets"));
            println!("controller {}, ECN marking {ecn}", cc.name());
        }
    }
}

/// `--jobs` when it is not given: as many cells at a time as fill `cores`
/// once, each cell running `shards` worker threads of its own.
fn default_jobs(cores: usize, shards: usize) -> usize {
    (cores / shards).max(1)
}

/// The one exit for every malformed flag: unwrap a parsed value, or print
/// the message and the usage banner and exit with status 2.
pub fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2)
    })
}

/// Print a header banner for an experiment.
pub fn banner(title: &str, detail: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("{detail}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::from_iter(s.iter().map(|x| x.to_string())).expect("valid args")
    }

    fn parse_err(s: &[&str]) -> String {
        Args::from_iter(s.iter().map(|x| x.to_string())).expect_err("must fail")
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.quick);
        assert!(!a.no_cache);
        assert_eq!(a.seed, 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(a.jobs, cores, "one --jobs default: the core count");
        assert_eq!(a.runs_or(1, 5), 5);
    }

    /// Cells times workers per cell fills the cores once; an explicit
    /// `--jobs` is taken as given.
    #[test]
    fn default_jobs_leaves_room_for_the_shards() {
        assert_eq!(default_jobs(2, 1), 2);
        assert_eq!(default_jobs(2, 2), 1);
        assert_eq!(default_jobs(8, 2), 4);
        assert_eq!(default_jobs(8, 3), 2);
        assert_eq!(default_jobs(2, 16), 1, "never zero");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(parse(&["--shards", "2"]).jobs, (cores / 2).max(1));
        assert_eq!(parse(&["--shards", "2", "--jobs", "7"]).jobs, 7);
        assert_eq!(parse(&["--jobs", "7", "--shards", "2"]).jobs, 7);
    }

    #[test]
    fn flags_and_typed_options() {
        let a = parse(&["--quick", "--seed", "9", "--flows", "32"]);
        assert!(a.quick);
        assert_eq!(a.seed, 9);
        assert_eq!(a.flows_or(8, 8), 32);
        assert_eq!(a.trace_ring, None);
        assert_eq!(a.runs_or(1, 5), 1);
        let a = parse(&["--cache-dir", "/tmp/c", "--trace", "t", "--trace-ring", "5"]);
        assert_eq!((a.cache_dir.as_str(), a.trace_ring), ("/tmp/c", Some(5)));
        assert_eq!(a.trace, Some(PathBuf::from("t")));
        assert_eq!(parse(&[]).cache_dir, "results/cache");
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        // A key no driver reads used to be swallowed with its value.
        assert_eq!(parse_err(&["--bogus", "1"]), "unknown flag --bogus");
        assert_eq!(
            parse_err(&["--quick", "--flow", "500"]),
            "unknown flag --flow"
        );
        assert_eq!(parse_err(&["--fanout"]), "unknown flag --fanout");
        // Every flag the usage documents is one the parser knows.
        for line in USAGE.lines().filter(|l| l.starts_with("  --")) {
            let flag = line.split_whitespace().next().expect("a flag per line");
            if let Err(e) = Args::from_iter([flag.to_string(), "1".into()]) {
                assert!(!e.starts_with("unknown flag"), "{flag}: {e}");
            }
        }
    }

    #[test]
    fn explicit_runs_wins() {
        let a = parse(&["--quick", "--runs", "7"]);
        assert_eq!(a.runs_or(1, 5), 7);
    }

    #[test]
    fn explicit_flows_wins_also_under_quick() {
        assert_eq!(parse(&["--quick", "--flows", "40"]).flows_or(120, 800), 40);
        assert_eq!(parse(&["--flows", "40"]).flows_or(120, 800), 40);
        assert_eq!(parse(&["--quick"]).flows_or(120, 800), 120);
        assert_eq!(parse(&[]).flows_or(120, 800), 800);
    }

    #[test]
    fn fleet_flags() {
        let a = parse(&["--jobs", "4", "--no-cache"]);
        assert_eq!(a.jobs, 4);
        assert!(a.no_cache);
        assert_eq!(a.shards, 1);
    }

    #[test]
    fn shards_flag() {
        let a = parse(&["--shards", "4"]);
        assert_eq!(a.shards, 4);
        assert_eq!(
            parse_err(&["--shards", "0"]),
            "--shards needs a worker count >= 1"
        );
        assert_eq!(
            parse_err(&["--shards"]),
            "--shards needs a worker count >= 1"
        );
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        assert_eq!(parse_err(&["--seed"]), "--seed needs an integer");
        assert_eq!(parse_err(&["--seed", "banana"]), "--seed needs an integer");
        assert_eq!(parse_err(&["--runs", "-3"]), "--runs needs an integer");
        assert_eq!(
            parse_err(&["--jobs", "0"]),
            "--jobs needs a worker count >= 1"
        );
        assert_eq!(
            parse_err(&["--jobs", "many"]),
            "--jobs needs a worker count >= 1"
        );
        assert_eq!(
            parse_err(&["positional"]),
            "unexpected argument: positional"
        );
        assert_eq!(parse_err(&["--loads"]), "--loads needs a value");

        // Experiment-specific options: a present-but-unparsable value is
        // an error naming the flag and the form it wants.
        for (argv, err) in [
            (
                &["--trace", "t", "--trace-ring", "maybe"][..],
                "--trace-ring wants usize, got 'maybe'",
            ),
            (&["--flows", "12x"], "--flows wants usize, got '12x'"),
            (
                &["--loads", "x"],
                "--loads wants comma-separated percents, got 'x'",
            ),
            (
                &["--trace", "t", "--trace-flows", "a"],
                "--trace-flows wants comma-separated flow ids, got 'a'",
            ),
            (
                &["--fault-link", "1:2"],
                "--fault-link wants leaf:spine:parallel, got '1:2'",
            ),
            (
                &["--fault-link", "1:b:0"],
                "--fault-link wants leaf:spine:parallel, got '1:b:0'",
            ),
            (
                &["--fail-at-ms", "soon"],
                "--fail-at-ms wants f64, got 'soon'",
            ),
            (
                &["--fail-at-ms", "-5"],
                "--fail-at-ms wants a time >= 0 ms, got -5",
            ),
            (
                &["--fail-at-ms", "5", "--recover-at-ms", "3"],
                "--recover-at-ms must come after --fail-at-ms",
            ),
        ] {
            assert_eq!(parse_err(argv), err, "{argv:?}");
        }

        // Parsable but naming no link of the figure's fabric: leaf/spine
        // out of range, or a parallel index past the pair's links. That
        // check needs the fabric, so the driver makes it.
        let testbed = TestbedOpts::paper_baseline().quick();
        let link_err = |raw: &str| {
            parse(&["--fault-link", raw])
                .fault_link(testbed)
                .unwrap_err()
        };
        assert_eq!(
            link_err("9:9:0"),
            "--fault-link 9:9:0: no such link on a 2x2 par2 fabric"
        );
        assert_eq!(
            link_err("1:1:7"),
            "--fault-link 1:1:7: no such link on a 2x2 par2 fabric"
        );
        // The check is against the fabric as built: Figure 7(b) already
        // removed one of the two Leaf1–Spine1 links.
        assert_eq!(
            parse(&["--fault-link", "1:1:1"])
                .fault_link(TestbedOpts::paper_failure())
                .unwrap_err(),
            "--fault-link 1:1:1: no such link on a 2x2 par2 fabric"
        );

        // The same flags with valid values parse to what they always did.
        let a = parse(&["--loads", "10, 30", "--trace", "t", "--trace-flows", "7,9"]);
        assert_eq!(a.loads, Some(vec![0.1, 0.3]));
        assert_eq!(a.trace_flows, Some(vec![7, 9]));
        let leaf_spine = |l, s, p| {
            Ok(Link::new(
                NodeId::Leaf(LeafId(l)),
                NodeId::Spine(SpineId(s)),
                p,
            ))
        };
        let a = parse(&["--fault-link", "1:0:1", "--fail-at-ms", "5"]);
        assert_eq!(a.fault_link(testbed), leaf_spine(1, 0, 1));
        assert_eq!(parse(&[]).fault_link(testbed), leaf_spine(1, 1, 0));
        assert_eq!(
            (a.fail_at, a.recover_at),
            (Some(SimTime::from_nanos(5_000_000)), None)
        );
        let a = parse(&[]);
        assert_eq!((a.fail_at, a.recover_at, a.loads), (None, None, None));
    }

    /// Three inputs that used to run a figure anyway: a malformed value of
    /// a flag the row never reads (every value is parsed up front now,
    /// whichever row runs), `--runs 0` (which read as "the default"), and
    /// a tracing option without `--trace` (which did nothing).
    #[test]
    fn inputs_no_row_would_honour_are_usage_errors() {
        assert_eq!(
            parse_err(&["--quick", "--loads", "x"]),
            "--loads wants comma-separated percents, got 'x'"
        );
        assert_eq!(parse_err(&["--runs", "0"]), "--runs needs an integer >= 1");
        assert_eq!(
            parse_err(&["--trace-ring", "5"]),
            "--trace-ring needs --trace DIR"
        );
        assert_eq!(
            parse_err(&["--trace-flows", "1,2", "--trace-ring", "5"]),
            "--trace-flows needs --trace DIR"
        );
        assert_eq!(parse(&["--runs", "1"]).runs, Some(1));
        assert_eq!(parse(&[]).runs, None);
    }

    #[test]
    fn usage_names_every_first_class_flag() {
        for flag in [
            "--quick",
            "--seed",
            "--runs",
            "--jobs",
            "--shards",
            "--cc",
            "--ecn-threshold",
            "--no-cache",
        ] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn cc_flag_parses_lists() {
        let a = parse(&[]);
        assert_eq!(a.cc, vec![CcKind::Aimd]);
        assert_eq!(a.primary_cc(), CcKind::Aimd);
        let a = parse(&["--cc", "dctcp"]);
        assert_eq!(a.cc, vec![CcKind::Dctcp]);
        assert_eq!(a.primary_cc(), CcKind::Dctcp);
        let a = parse(&["--cc", "dctcp,aimd,cubic,bbr"]);
        assert_eq!(
            a.cc,
            vec![CcKind::Dctcp, CcKind::Aimd, CcKind::Cubic, CcKind::Bbr]
        );
        assert_eq!(
            parse_err(&["--cc"]),
            "--cc needs a comma-separated controller list"
        );
        assert_eq!(
            parse_err(&["--cc", "reno"]),
            "unknown congestion controller 'reno' (expected aimd|dctcp|cubic|bbr)"
        );
    }

    /// Without flags the cell is `FctRun::new`'s; each cell flag reaches
    /// its field, and a controller list contributes its first entry.
    #[test]
    fn fct_run_carries_the_cell_flags() {
        let cell = |argv: &[&str]| {
            let topo = TestbedOpts::paper_baseline();
            parse(argv).fct_run(topo, Scheme::Conga, FlowSizeDist::enterprise(), 0.6)
        };
        let plain = FctRun::new(
            TestbedOpts::paper_baseline(),
            Scheme::Conga,
            FlowSizeDist::enterprise(),
            0.6,
        );
        assert_eq!(format!("{:?}", cell(&[])), format!("{plain:?}"));
        let c = cell(&[
            "--seed",
            "9",
            "--shards",
            "3",
            "--cc",
            "dctcp,bbr",
            "--ecn-threshold",
            "20",
        ]);
        assert_eq!(
            (c.seed, c.shards, c.cc, c.ecn_threshold_pkts),
            (9, 3, CcKind::Dctcp, Some(20))
        );
        assert_eq!((c.scheme, c.load, c.n_flows), (Scheme::Conga, 0.6, 2000));
    }

    #[test]
    fn ecn_threshold_is_validated_at_parse_time() {
        let a = parse(&[]);
        assert_eq!(a.ecn_threshold, None);
        let a = parse(&["--ecn-threshold", "65"]);
        assert_eq!(a.ecn_threshold, Some(65));
        assert_eq!(
            parse_err(&["--ecn-threshold", "0"]),
            "--ecn-threshold needs a packet count >= 1"
        );
        assert_eq!(
            parse_err(&["--ecn-threshold"]),
            "--ecn-threshold needs a packet count >= 1"
        );
        assert_eq!(
            parse_err(&["--ecn-threshold", "shallow"]),
            "--ecn-threshold needs a packet count >= 1"
        );
        assert_eq!(
            parse_err(&["--ecn-threshold", "9999"]),
            format!(
                "--ecn-threshold must be <= {ECN_THRESHOLD_MAX_PKTS} packets \
                 (the access-queue capacity)"
            )
        );
    }
}
