//! The repo benchmark: five workloads driven through the real threaded
//! `dip_dataplane::Dataplane` (one dispatcher thread + one worker), six
//! end-to-end metrics from an untraced run, and a per-layer ledger from a
//! separate traced run — all timed from outside the crates under test.
//!
//! README.md is the reference: the one command, the metric glossary, why
//! each workload exists, and every crate item this harness calls.

pub mod alloc;
pub mod cli;
pub mod gen;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
