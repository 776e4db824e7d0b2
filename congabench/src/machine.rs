//! The machine a run was taken on, and the process counters read from
//! `/proc` (peak RSS, CPU time, voluntary context switches).
//!
//! Every output carries the stamp: a number without its core count,
//! worker count, compiler and commit cannot be compared with another.

use std::process::Command;

/// Where and with what a run was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    /// Cores available to this process.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Stamp {
    /// Probe the current machine. Never fails: what cannot be read is
    /// recorded as `unknown`.
    pub fn probe() -> Self {
        Stamp {
            nproc: nproc(),
            rustc: first_line("rustc", &["--version"]),
            // Only where the working directory is itself a checkout: git
            // would otherwise search the parent directories.
            commit: if std::path::Path::new(".git").exists() {
                first_line("git", &["rev-parse", "--short", "HEAD"])
            } else {
                "unknown".to_string()
            },
        }
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process (1 when the query fails).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A `kB` field of a `/proc/.../status` file, in MB (0 when unreadable).
fn status_mb(path: &str, field: &str) -> f64 {
    status_field(path, field)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn status_field(path: &str, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("/proc/self/status", "VmHWM")
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("/proc/self/status", "VmRSS")
}

/// Voluntary context switches of the *calling thread* so far. The sharded
/// engine runs its first domain chunk on the calling thread, so across a
/// sharded run this counts the barrier waits that actually blocked.
pub fn vol_ctx_switches() -> u64 {
    status_field("/proc/thread-self/status", "voluntary_ctxt_switches")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// User + system CPU seconds consumed by the whole process (all threads,
/// exited ones included). `/proc/self/stat` counts in clock ticks; Linux
/// fixes `USER_HZ` at 100 on every architecture Rust targets.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_on_linux() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb() + 1.0);
        let t0 = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < t0 + 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > t0);
    }
}
