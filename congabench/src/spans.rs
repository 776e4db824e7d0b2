//! In-memory spans recorded by the benchmark around its calls into the
//! simulator's layers.
//!
//! A span is a name, a start, an end and the span that caused it; spans
//! of one repetition share its id. Nothing is written while a run is
//! measured: [`Spans::to_jsonl`] renders the lot when the benchmark ends.
//! A span's *self time* is its duration minus what its children cover —
//! for a repetition's root span that is the time no stage accounts for.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// The repetition this span belongs to.
    pub rep: u32,
    /// Index of the enclosing span, `None` for a repetition's root.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Record `f` as a span named `name`, child of whichever span is open.
    /// A span opened while none is open starts a new repetition.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if self.open.is_empty() {
            self.rep += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Every span recorded so far, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name` within repetition `rep`.
    pub fn total_s(&self, rep: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time of span `id`, seconds: its duration minus its direct
    /// children's.
    pub fn self_s(&self, id: usize) -> f64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children) as f64 / 1e9
    }

    /// Indices of the root spans (one per repetition).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect()
    }

    /// One JSON object per span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"rep\": {}, \"name\": \"{}\", \"parent\": ",
                s.rep, s.name
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_reps_and_self_time() {
        let mut sp = Spans::new();
        for _ in 0..2 {
            sp.scope("rep", |sp| {
                sp.scope("a", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                sp.scope("b", |sp| sp.scope("slice", |_| ()));
            });
        }
        let roots = sp.roots();
        assert_eq!(roots.len(), 2);
        assert_eq!(sp.all()[roots[1]].rep, 2);
        assert_eq!(sp.all().len(), 8);
        let slice = &sp.all()[3];
        assert_eq!((slice.name, slice.parent, slice.rep), ("slice", Some(2), 1));
        assert!(sp.total_s(1, "a") >= 0.002);
        // The root's self time excludes both children.
        let root = &sp.all()[roots[0]];
        let dur = (root.end_ns - root.start_ns) as f64 / 1e9;
        assert!(sp.self_s(roots[0]) <= dur - sp.total_s(1, "a"));
        assert_eq!(sp.to_jsonl().lines().count(), 8);
    }
}
