//! # dip-verify — static verification of composed FN programs (`dipcheck`)
//!
//! DIP's expressiveness cuts both ways: because a packet header *is* a
//! program (an FN chain indexing into the locations area, §2.2), a host
//! can compose chains that are malformed, undeployable, or subtly
//! self-defeating — and the dataplane only discovers that at runtime, one
//! drop at a time. This crate is the static complement: it validates a
//! composed program **without executing it**, in four passes:
//!
//! 1. **structural** ([`passes::structural`]) — bit-range bounds inside
//!    the FN locations area (including `F_MAC`'s implicit tag-slot
//!    write), `FN_Num`/`fn_loc_len` limits, fixed-width operations, and
//!    tag-bit consistency;
//! 2. **registry** ([`passes::registry`]) — every router-executed key is
//!    installed in each traversed AS's [`FnRegistry`], with *unsupported
//!    at hop k* diagnostics (the static form of §2.3's planning);
//! 3. **data-flow** ([`passes::dataflow`]) — the `F_parm` →
//!    `F_MAC`/`F_mark` def-use order, MAC-coverage invalidation, and
//!    parallel-flag hazards, built on the *same* declared
//!    [`Effects`](dip_fnops::Effects) as the runtime planner
//!    ([`dip_fnops::parallel`]);
//! 4. **resource** ([`passes::resource`]) — summed pipeline costs against
//!    a deployment target's [`ResourceBudget`] (§4.1's Tofino limits).
//!
//! The guarantee the test-suite pins: a program this crate accepts
//! executes through the router pipeline without out-of-bounds errors or
//! drops attributable to construction (and every entry of the seeded
//! [`corpus`] of invalid programs is rejected with the expected
//! diagnostic, while the five paper protocols verify clean).
//!
//! ```
//! use dip_verify::{Checker, FnProgram};
//! use dip_wire::triple::{FnKey, FnTriple};
//!
//! // The §3 OPT chain: parm → MAC → mark on routers, ver at the host.
//! let opt = FnProgram::new(
//!     vec![
//!         FnTriple::router(128, 128, FnKey::Parm),
//!         FnTriple::router(0, 416, FnKey::Mac),
//!         FnTriple::router(288, 128, FnKey::Mark),
//!         FnTriple::host(0, 544, FnKey::Ver),
//!     ],
//!     68,
//!     false,
//! );
//! assert!(Checker::new().check(&opt).is_clean());
//!
//! // Reorder the derivation after its first use and the chain is caught.
//! let broken = FnProgram::new(
//!     vec![
//!         FnTriple::router(0, 416, FnKey::Mac),
//!         FnTriple::router(128, 128, FnKey::Parm),
//!     ],
//!     68,
//!     false,
//! );
//! assert!(Checker::new().check(&broken).has_errors());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod budget;
pub mod corpus;
pub mod diag;
pub mod opt;
pub mod passes;
pub mod program;

pub use budget::ResourceBudget;
pub use corpus::{invalid_corpus, CorpusCase};
pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use opt::{
    analyze, optimization_corpus, AbstractVal, Bail, BailReason, HopFacts, OptCorpusCase,
    ProgramFacts, Rewrite,
};
pub use program::FnProgram;

use dip_fnops::FnRegistry;
use dip_wire::packet::DipRepr;

/// The composed verifier: runs all four passes over a program.
pub struct Checker {
    /// Operation semantics (declared effects) used by the data-flow and
    /// resource passes, and the installation set `check` lints against.
    semantics: FnRegistry,
    /// Pipeline capacity for the resource pass.
    budget: ResourceBudget,
}

impl Checker {
    /// A checker with standard operation semantics and the Tofino budget.
    pub fn new() -> Self {
        Checker { semantics: FnRegistry::standard(), budget: ResourceBudget::tofino() }
    }

    /// Replaces the resource budget.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the semantics registry (e.g. to teach the verifier about
    /// custom operation modules and their effects).
    pub fn with_semantics(mut self, registry: FnRegistry) -> Self {
        self.semantics = registry;
        self
    }

    /// Verifies a program against a single node's registry — the checker's
    /// own semantics registry doubles as the installation set.
    pub fn check(&self, program: &FnProgram) -> Report {
        self.check_path(program, std::slice::from_ref(&self.semantics))
    }

    /// Verifies a program for a path: the registry pass runs per hop, the
    /// remaining passes once.
    pub fn check_path(&self, program: &FnProgram, hops: &[FnRegistry]) -> Report {
        let mut report = Report::default();
        report.extend(passes::structural::check(program));
        report.extend(passes::registry::check(program, hops));
        report.extend(passes::dataflow::check(program, &self.semantics));
        report.extend(passes::resource::check(program, &self.semantics, &self.budget));
        report
    }
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

/// One-shot convenience: verify the program a [`DipRepr`] carries with the
/// default checker.
pub fn dipcheck(repr: &DipRepr) -> Report {
    Checker::new().check(&FnProgram::from_repr(repr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::parallel::plan;
    use dip_wire::triple::{FnKey, FnTriple};

    #[test]
    fn dipcheck_convenience_on_a_repr() {
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
            ],
            locations: vec![0u8; 8],
            ..Default::default()
        };
        assert!(dipcheck(&repr).is_clean());
    }

    #[test]
    fn check_path_aggregates_all_passes() {
        // Out of bounds + missing at hop + key-use-before-def, one report.
        let p = FnProgram::new(
            vec![FnTriple::router(0, 416, FnKey::Mac), FnTriple::router(512, 64, FnKey::Fib)],
            68,
            false,
        );
        let hops = vec![FnRegistry::with_keys(&[FnKey::Mac])];
        let r = Checker::new().check_path(&p, &hops);
        assert!(r.has_code(DiagCode::FieldOutOfBounds)); // fib field 512..576 > 544
        assert!(r.has_code(DiagCode::UnsupportedAtHop)); // fib missing at hop 0
        assert!(r.has_code(DiagCode::KeyUseBeforeDef)); // mac without parm
    }

    /// The verifier's parallel-hazard analysis and the runtime planner
    /// must agree: for programs with no dynamic-key operations (where the
    /// chain exemption never applies), a hazard is reported **iff** the
    /// planner needs more than one wave. Exhaustively checked over all
    /// 3-op chains drawn from a read op and a write op at two offsets.
    #[test]
    fn parallel_hazards_match_planner_waves_exactly() {
        let semantics = FnRegistry::standard();
        let checker = Checker::new().with_budget(ResourceBudget::unconstrained());
        // (key, loc): Match32 reads its field; Intent rewrites its field.
        let menu =
            [(FnKey::Match32, 0u16), (FnKey::Match32, 64), (FnKey::Intent, 0), (FnKey::Intent, 64)];
        let mut checked = 0;
        for a in 0..menu.len() {
            for b in 0..menu.len() {
                for c in 0..menu.len() {
                    let fns: Vec<FnTriple> = [menu[a], menu[b], menu[c]]
                        .iter()
                        .map(|&(k, loc)| FnTriple::router(loc, 64, k))
                        .collect();
                    debug_assert!(fns
                        .iter()
                        .all(|t| semantics.effects(t).is_some_and(|e| !e.in_key_chain())));
                    let depth = plan(&fns, &semantics).depth();
                    let program = FnProgram::new(fns, 16, true);
                    let report = checker.check(&program);
                    let hazard = report.has_code(DiagCode::ParallelHazard);
                    assert_eq!(
                        hazard,
                        depth > 1,
                        "chain {:?}: verifier hazard={hazard} but planner depth={depth}",
                        program.fns
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 64);
    }

    /// And for the sanctioned dynamic-key chain the two intentionally
    /// diverge: the planner serializes (depth > 1) while the verifier
    /// stays silent, because the flag is still safe to set.
    #[test]
    fn key_chain_is_serialized_by_planner_but_not_a_hazard() {
        let fns = vec![
            FnTriple::router(128, 128, FnKey::Parm),
            FnTriple::router(0, 416, FnKey::Mac),
            FnTriple::router(288, 128, FnKey::Mark),
        ];
        assert!(plan(&fns, &FnRegistry::standard()).depth() > 1);
        let report = Checker::new().check(&FnProgram::new(fns, 68, true));
        assert!(report.is_clean(), "{report}");
    }

    /// Slot and table dependencies diverge the same way: `F_PIT` reads the
    /// verdict `F_pass` writes, so the planner serializes them, and the
    /// flag stays safe to set.
    #[test]
    fn slot_dependencies_are_serialized_but_not_hazards() {
        let fns =
            vec![FnTriple::router(0, 256, FnKey::Pass), FnTriple::router(256, 32, FnKey::Pit)];
        assert_eq!(plan(&fns, &FnRegistry::standard()).depth(), 2);
        let report = Checker::new().check(&FnProgram::new(fns, 36, true));
        assert!(!report.has_code(DiagCode::ParallelHazard), "{report}");
    }
}
