//! The four verifier passes.
//!
//! Each pass is a pure function from a program (plus whatever environment
//! it checks against) to a list of diagnostics, so they can be run
//! individually or composed by [`crate::Checker`]:
//!
//! 1. [`structural`] — wire-format geometry: bounds, widths, counts, tag
//!    bits. Needs nothing but the program.
//! 2. [`registry`] — installation: is every router-executed key present in
//!    each traversed AS's `FnRegistry`?
//! 3. [`dataflow`] — ordering: dynamic-key def-use, MAC-coverage
//!    invalidation, parallel-flag hazards. Reads the *same* declared
//!    effects as the runtime planner in `dip_fnops::parallel`.
//! 4. [`resource`] — feasibility: summed pipeline costs against a
//!    [`crate::ResourceBudget`].

pub mod dataflow;
pub mod registry;
pub mod resource;
pub mod structural;
