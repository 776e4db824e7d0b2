//! Minimal argument parsing for `fleet <figure> [flags]` (no external
//! dependency needed for `--quick`-style flags).
//!
//! Malformed flags never panic and are never silently replaced by a
//! default: [`Args::from_iter`] returns `Err` with a message for the
//! first-class flags and for any flag it does not know, the values of the
//! experiment-specific `--key value` options (`KEYS`) are checked when a
//! harness reads them (always before its first cell runs), and either way
//! the process prints the message plus a usage banner and exits with
//! status 2.

use crate::runner::{build_testbed, TestbedOpts};
use conga_net::{LeafId, SpineId};
use conga_sim::SimTime;
use conga_transport::CcKind;

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
    /// Number of independent runs to average where applicable.
    pub runs: usize,
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
    /// Leftover `--key value` pairs for experiment-specific options.
    extra: Vec<(String, String)>,
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

/// Every experiment-specific `--key value` option some driver reads —
/// the lower block of [`USAGE`]. [`Args::from_iter`] accepts no other
/// key: a flag no driver would read is a typo, not an option.
const KEYS: [&str; 9] = [
    "cache-dir",
    "trace",
    "trace-flows",
    "trace-ring",
    "flows",
    "loads",
    "fail-at-ms",
    "recover-at-ms",
    "fault-link",
];

impl Args {
    /// Parse from an explicit iterator (testable). Returns a message
    /// describing the first malformed flag instead of panicking.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(it: I) -> Result<Args, String> {
        let mut quick = false;
        let mut seed = 1u64;
        let mut runs = 0usize;
        let mut jobs = None;
        let mut no_cache = false;
        let mut shards = 1usize;
        let mut cc = vec![CcKind::Aimd];
        let mut ecn_threshold = None;
        let mut extra = Vec::new();
        let mut iter = it.into_iter().peekable();
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
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--no-cache" => no_cache = true,
                "--seed" => seed = want(&mut iter, "--seed", "an integer")?,
                "--runs" => runs = want(&mut iter, "--runs", "an integer")?,
                "--jobs" => {
                    let n: usize = want(&mut iter, "--jobs", "a worker count >= 1")?;
                    if n == 0 {
                        return Err("--jobs needs a worker count >= 1".into());
                    }
                    jobs = Some(n);
                }
                "--shards" => {
                    let n: usize = want(&mut iter, "--shards", "a worker count >= 1")?;
                    if n == 0 {
                        return Err("--shards needs a worker count >= 1".into());
                    }
                    shards = n;
                }
                "--cc" => {
                    let list = iter
                        .next()
                        .ok_or("--cc needs a comma-separated controller list")?;
                    let parsed: Vec<CcKind> = list
                        .split(',')
                        .map(CcKind::parse)
                        .collect::<Result<_, _>>()?;
                    if parsed.is_empty() {
                        return Err("--cc needs a comma-separated controller list".into());
                    }
                    cc = parsed;
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
                    ecn_threshold = Some(n);
                }
                k if k.starts_with("--") => {
                    let key = &k[2..];
                    if !KEYS.contains(&key) {
                        return Err(format!("unknown flag {k}"));
                    }
                    let v = iter.next().ok_or_else(|| format!("{k} needs a value"))?;
                    extra.push((key.to_string(), v));
                }
                other => return Err(format!("unexpected argument: {other}")),
            }
        }
        Ok(Args {
            quick,
            seed,
            runs,
            jobs: jobs.unwrap_or_else(|| {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                default_jobs(cores, shards)
            }),
            no_cache,
            shards,
            cc,
            ecn_threshold,
            extra,
        })
    }

    /// Experiment-specific option with a default. An absent key yields
    /// the default; a present value that does not parse is a usage error
    /// (exit 2), never the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        or_usage(self.try_get(key)).unwrap_or(default)
    }

    /// An experiment-specific option through `parse`: `Ok(None)` for an
    /// absent key, `Err` naming the flag and the form it `wants` for a
    /// present value `parse` rejects.
    fn parsed<T>(
        &self,
        key: &str,
        wants: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some((_, raw)) = self.extra.iter().find(|(k, _)| k == key) else {
            return Ok(None);
        };
        parse(raw)
            .map(Some)
            .ok_or_else(|| format!("--{key} wants {wants}, got '{raw}'"))
    }

    /// [`get`](Self::get) without the exit or the default.
    pub(crate) fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.parsed(key, std::any::type_name::<T>(), |v| v.parse().ok())
    }

    /// A `sep`-separated option, every element parsed as `T`.
    fn list<T: std::str::FromStr>(
        &self,
        key: &str,
        sep: char,
        wants: &str,
    ) -> Result<Option<Vec<T>>, String> {
        self.parsed(key, wants, |raw| {
            raw.split(sep).map(|x| x.trim().parse().ok()).collect()
        })
    }

    /// `--loads 10,30,50`: load points in percent, returned as fractions.
    pub(crate) fn loads(&self) -> Result<Option<Vec<f64>>, String> {
        let pct = self.list::<f64>("loads", ',', "comma-separated percents")?;
        Ok(pct.map(|v| v.into_iter().map(|p| p / 100.0).collect()))
    }

    /// `--trace-flows a,b,c`: the flow ids to sample.
    pub(crate) fn trace_flows(&self) -> Result<Option<Vec<u32>>, String> {
        self.list("trace-flows", ',', "comma-separated flow ids")
    }

    /// `--fault-link l:s:p`: the leaf–spine link the fault flags act on
    /// (default `1:1:0`, the paper's Figure 7(b) link). It must exist on
    /// `fabric`, the topology the figure's cells will build — the engine
    /// asserts the same bound, inside the cell.
    pub(crate) fn fault_link(&self, fabric: TestbedOpts) -> Result<(u32, u32, u32), String> {
        let parsed = self.parsed("fault-link", "leaf:spine:parallel", |raw| {
            let ids: Option<Vec<u32>> = raw.split(':').map(|x| x.trim().parse().ok()).collect();
            match ids?[..] {
                [l, s, p] => Some((l, s, p)),
                _ => None,
            }
        })?;
        let (l, s, p) = parsed.unwrap_or((1, 1, 0));
        let links = build_testbed(fabric).link_channels(LeafId(l), SpineId(s));
        if (p as usize) < links.len() {
            Ok((l, s, p))
        } else {
            Err(format!(
                "--fault-link {l}:{s}:{p}: no such link on a {}x{} par{} fabric",
                fabric.leaves, fabric.spines, fabric.parallel
            ))
        }
    }

    /// `--fail-at-ms T` / `--recover-at-ms T'` as simulated instants. Each
    /// must be a time >= 0, and when both are given the recovery must come
    /// after the failure.
    pub(crate) fn fault_window(&self) -> Result<(Option<SimTime>, Option<SimTime>), String> {
        let at = |key: &str| match self.try_get::<f64>(key)? {
            Some(ms) if ms.is_nan() || ms < 0.0 => {
                Err(format!("--{key} wants a time >= 0 ms, got {ms}"))
            }
            ms => Ok(ms.map(|ms| SimTime::from_nanos((ms * 1e6) as u64))),
        };
        let (fail, recover) = (at("fail-at-ms")?, at("recover-at-ms")?);
        match (fail, recover) {
            (Some(f), Some(r)) if r <= f => {
                Err("--recover-at-ms must come after --fail-at-ms".into())
            }
            _ => Ok((fail, recover)),
        }
    }

    /// Number of runs, with experiment-chosen defaults for quick/full mode.
    pub fn runs_or(&self, quick_default: usize, full_default: usize) -> usize {
        if self.runs > 0 {
            self.runs
        } else if self.quick {
            quick_default
        } else {
            full_default
        }
    }

    /// Flows per direction in each FCT cell: `--flows N` when given — also
    /// under `--quick` — else the figure's default for the mode.
    pub(crate) fn flows_or(&self, quick_default: usize, full_default: usize) -> usize {
        let default = if self.quick {
            quick_default
        } else {
            full_default
        };
        self.get("flows", default)
    }

    /// The congestion controller for single-controller figures: the first
    /// `--cc` entry (the default list is `[aimd]`, so this never panics).
    pub fn primary_cc(&self) -> CcKind {
        self.cc.first().copied().unwrap_or(CcKind::Aimd)
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
    fn flags_and_extras() {
        let a = parse(&["--quick", "--seed", "9", "--flows", "32"]);
        assert!(a.quick);
        assert_eq!(a.seed, 9);
        assert_eq!(a.get("flows", 8u32), 32);
        assert_eq!(a.get("trace-ring", 3u32), 3);
        assert_eq!(a.runs_or(1, 5), 1);
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
        // The closed list is the documented one, and every key parses.
        for key in KEYS {
            assert!(
                USAGE.contains(&format!("\n  --{key} ")),
                "usage lists {key}"
            );
            let a = parse(&[&format!("--{key}"), "v"]);
            assert_eq!(a.get(key, String::new()), "v");
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
        // an error naming the flag, an absent key still yields the default.
        let a = parse(&["--trace-ring", "maybe", "--flows", "12x"]);
        assert_eq!(
            a.try_get::<usize>("trace-ring").unwrap_err(),
            "--trace-ring wants usize, got 'maybe'"
        );
        assert_eq!(
            a.try_get::<usize>("flows").unwrap_err(),
            "--flows wants usize, got '12x'"
        );
        assert_eq!(a.try_get::<f64>("fail-at-ms"), Ok(None));
        assert_eq!(a.get("fail-at-ms", 8.0), 8.0);

        let a = parse(&["--loads", "x", "--trace-flows", "a", "--fault-link", "1:2"]);
        assert_eq!(
            a.loads().unwrap_err(),
            "--loads wants comma-separated percents, got 'x'"
        );
        assert_eq!(
            a.trace_flows().unwrap_err(),
            "--trace-flows wants comma-separated flow ids, got 'a'"
        );
        let testbed = TestbedOpts::paper_baseline().quick();
        let link_err = |raw: &str| {
            parse(&["--fault-link", raw])
                .fault_link(testbed)
                .unwrap_err()
        };
        assert_eq!(
            a.fault_link(testbed).unwrap_err(),
            "--fault-link wants leaf:spine:parallel, got '1:2'"
        );
        assert_eq!(
            link_err("1:b:0"),
            "--fault-link wants leaf:spine:parallel, got '1:b:0'"
        );
        // Parsable but naming no link of the figure's fabric: leaf/spine
        // out of range, or a parallel index past the pair's links.
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
        assert_eq!(
            parse(&["--fail-at-ms", "5", "--recover-at-ms", "3"])
                .fault_window()
                .unwrap_err(),
            "--recover-at-ms must come after --fail-at-ms"
        );
        assert_eq!(
            parse(&["--fail-at-ms", "-5"]).fault_window().unwrap_err(),
            "--fail-at-ms wants a time >= 0 ms, got -5"
        );

        // The same flags with valid values parse to what they always did.
        let a = parse(&["--loads", "10, 30", "--trace-flows", "7,9"]);
        assert_eq!(a.loads(), Ok(Some(vec![0.1, 0.3])));
        assert_eq!(a.trace_flows(), Ok(Some(vec![7, 9])));
        let a = parse(&["--fault-link", "1:0:1", "--fail-at-ms", "5"]);
        assert_eq!(a.fault_link(testbed), Ok((1, 0, 1)));
        assert_eq!(parse(&[]).fault_link(testbed), Ok((1, 1, 0)));
        assert_eq!(
            a.fault_window(),
            Ok((Some(SimTime::from_nanos(5_000_000)), None))
        );
        assert_eq!(parse(&[]).fault_window(), Ok((None, None)));
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
