//! Scenarios: the hashable identity of one experiment cell.
//!
//! Every evaluation figure is a sweep over a
//! `scheme × load × seed × fault` matrix whose cells are independent,
//! single-threaded, deterministic simulations. A cell is described once,
//! by its own spec type in the experiment harness; that type renders
//! everything that determines the cell's outputs — and *nothing else* —
//! as text, and a [`Scenario`] carries that text beside the cell's three
//! names. Its content hash keys the result cache: two cells with equal
//! hashes produce byte-identical artifacts, and a cached result can stand
//! in for a run.
//!
//! [`Scenario::canonical`] is the [`CACHE_FORMAT_VERSION`] line, the three
//! names and the spec text verbatim — pure data, no map iteration order,
//! no wall-clock — so it is stable across runs, worker threads, and
//! machines. [`Scenario::content_hash`] is FNV-1a/64 over those bytes,
//! rendered as 16 hex digits.

/// Version tag folded into every canonical serialization. Bump it when
/// simulation semantics or the cached result layout change, so old cache
/// entries miss instead of serving stale data. A new knob needs no bump:
/// the spec text renders every simulation-reaching field, defaults
/// included.
pub const CACHE_FORMAT_VERSION: u32 = 8;

/// The hashable identity of one experiment cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Cell family: `"fct"`, `"dynfail"`, `"incast"`, ...
    pub kind: String,
    /// The figure this cell belongs to (`"fig09_enterprise"`, ...).
    pub figure: String,
    /// Human-readable cell label (also names sidecar artifacts).
    pub label: String,
    /// Every input that reaches the simulation, as `key=value` lines
    /// rendered by the cell's own spec type.
    pub spec: String,
}

impl Scenario {
    /// The scenario of the cell `figure`/`label` of family `kind` whose
    /// simulation inputs render as `spec`.
    pub fn new(kind: &str, figure: &str, label: &str, spec: String) -> Self {
        Scenario {
            kind: kind.to_string(),
            figure: figure.to_string(),
            label: label.to_string(),
            spec,
        }
    }

    /// The canonical serialization: the version line, the three names,
    /// then the spec text verbatim.
    pub fn canonical(&self) -> String {
        format!(
            "version={CACHE_FORMAT_VERSION}\nkind={}\nfigure={}\nlabel={}\n{}",
            self.kind, self.figure, self.label, self.spec
        )
    }

    /// The content hash of the canonical serialization: FNV-1a/64 as 16
    /// lowercase hex digits. Cache entries live at
    /// `results/cache/<hash>.json`.
    pub fn content_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

/// FNV-1a, 64-bit. Not cryptographic — collision of two *distinct
/// scenarios actually present in one repository's sweep matrix* is the
/// relevant event, and at a few thousand cells the birthday bound is
/// ~1e-13.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::new(
            "fct",
            "fig09_enterprise",
            "CONGA.load30.r0",
            "scheme=CONGA\nload=0.3\n".into(),
        )
    }

    #[test]
    fn canonical_is_the_version_the_names_and_the_spec_verbatim() {
        assert_eq!(
            sample().canonical(),
            "version=8\nkind=fct\nfigure=fig09_enterprise\nlabel=CONGA.load30.r0\n\
             scheme=CONGA\nload=0.3\n"
        );
        assert_eq!(sample().content_hash(), sample().content_hash());
    }

    #[test]
    fn every_field_reaches_the_hash() {
        let base = sample().content_hash();
        let edits: [fn(&mut Scenario); 4] = [
            |s| s.kind = "incast".into(),
            |s| s.figure = "fig10_datamining".into(),
            |s| s.label = "CONGA.load30.r1".into(),
            |s| s.spec.push_str("seed=2\n"),
        ];
        for edit in edits {
            let mut s = sample();
            edit(&mut s);
            assert_ne!(s.content_hash(), base, "{}", s.canonical());
        }
    }

    #[test]
    fn hash_is_hex16() {
        let h = sample().content_hash();
        assert_eq!(h.len(), 16);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
