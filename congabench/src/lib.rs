//! `congabench` — the repository's benchmark.
//!
//! Four named workloads, five bounded end-to-end metrics (plus the
//! failed-flow count), and a traced run that prices every layer from
//! outside: calibrated timings of each crate's public functions, counts
//! from the run's own `RunReport`, and spans around a stage-by-stage
//! replay of the runner. It changes no simulator code and claims no gain;
//! see `README.md` beside this crate for definitions and method.
//!
//! This is a package of its own, outside the root workspace, so the root
//! manifest and `Cargo.lock` are untouched.

#![warn(missing_docs)]

pub mod layers;
pub mod machine;
pub mod measure;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;
