//! The benchmark's one command.
//!
//! ```text
//! congabench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! congabench [--seed N] [--seconds S] [--traced] [--out F]   every workload, each in a child process
//! congabench --compare A.json B.json                       against the bounds of BENCHMARK.json
//! ```
//!
//! A single run prints every metric by name with its unit, the checks, and
//! as its last line the one JSON object the acceptance driver reads; it
//! exits 1 if a check failed and 2 on a usage error or when asked for more
//! worker threads than the machine has cores.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use congabench::machine::nproc;
use congabench::report::{compare, document, read_bounds, read_document};
use congabench::run::{end_to_end, traced, RunOpts};
use congabench::workloads::{Scale, Workload, WORKLOADS};

const USAGE: &str = "usage:
  congabench --workload W [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out F]
  congabench [--seed N] [--seconds S] [--traced] [--smoke] [--out F]
  congabench --compare A.json B.json
workloads: testbed_elephants testbed_mice incast_rto clos3_shards2";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: f64::NAN,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(flag, &mut it)?),
            "--seed" => {
                a.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                a.seconds = s;
            }
            "--trace" => {
                a.traced = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(flag, &mut it)?.into()),
            "--compare" => {
                a.compare = Some((value(flag, &mut it)?.into(), value(flag, &mut it)?.into()))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() {
        // The run length BENCHMARK.json states; a smoke run only has to
        // exercise every path once.
        a.seconds = if a.smoke { 0.0 } else { 20.0 };
    }
    Ok(a)
}

/// Where the benchmark may write: `out/` beside its own manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run in this process. Returns the process exit code.
fn run_one(a: &Args, name: &str) -> Result<u8, String> {
    let Some(w) = Workload::new(name, a.seed, Scale::Smoke) else {
        return Err(format!("unknown workload {name}"));
    };
    // A speed-up or a two-worker wall-clock measured on one core is noise
    // that looks like signal: refuse it.
    let workers = if a.traced { 2 } else { w.workers() };
    if workers > nproc() {
        eprintln!(
            "congabench: {name}{} needs {workers} worker threads, this machine has {} core(s); refusing",
            if a.traced { " (traced)" } else { "" },
            nproc()
        );
        return Ok(2);
    }
    let opts = RunOpts {
        workload: name,
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
    };
    let rec = if a.traced {
        traced(&opts, &out_dir())
    } else {
        end_to_end(&opts)
    }
    .ok_or_else(|| format!("unknown workload {name}"))?;
    print!("{}", rec.text());
    if let Some(path) = &a.out {
        write(path, &document(&[rec.to_json()]))?;
    }
    println!("{}", rec.contract_line());
    Ok(if rec.correct() { 0 } else { 1 })
}

/// Every workload, each run in its own sequential child process so that
/// peak RSS is per workload and no run inherits another's heap.
fn run_all(a: &Args) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    let mut runs = Vec::new();
    let mut worst = 0u8;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            if trace && !a.traced {
                continue;
            }
            let part = dir.join(format!("run.{name}.trace{}.json", trace as u8));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
            let code = status.code().unwrap_or(1) as u8;
            worst = worst.max(code);
            if code == 2 {
                // Refused (too few cores): nothing was measured.
                continue;
            }
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            // Each part is a one-run document: header line, the run, footer.
            let run = text
                .lines()
                .nth(1)
                .ok_or_else(|| format!("{}: not a run document", part.display()))?
                .to_string();
            runs.push(run);
            println!();
        }
    }
    let out = a.out.clone().unwrap_or_else(|| dir.join("congabench.json"));
    write(&out, &document(&runs))?;
    eprintln!("congabench: wrote {}", out.display());
    Ok(worst)
}

fn run_compare(pa: &Path, pb: &Path) -> Result<u8, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| read_document(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let bounds_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("{}: {e}", bounds_path.display()))
        .and_then(|t| read_bounds(&t))?;
    let (table, all_ok) = compare(&read(pa)?, &read(pb)?, &bounds);
    print!("{table}");
    Ok(if all_ok { 0 } else { 1 })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("congabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(name)) => run_one(&args, name),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("congabench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
