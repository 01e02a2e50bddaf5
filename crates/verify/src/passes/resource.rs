//! Pass 4 — resource feasibility against a pipeline budget.
//!
//! §4.1's Tofino mapping pre-writes operation modules into match-action
//! stages and unrolls the FN loop; a chain that wants more stages, lookups
//! or cipher math than the pipeline has cannot be deployed at all. This
//! pass sums the per-operation [`OpCost`]s the modules themselves declare
//! in their [`Effects`](dip_fnops::Effects) (the same numbers the `dip-sim`
//! timing model consumes) and compares
//! them against a [`ResourceBudget`].
//!
//! Stage accounting honors the parallel flag: modular parallelism packs
//! non-conflicting operations into the *same* stages, so a parallel
//! program is charged, per planner wave, only the widest member — computed
//! with the very planner ([`dip_fnops::parallel::plan`]) routers run.

use crate::budget::ResourceBudget;
use crate::diag::{DiagCode, Diagnostic};
use crate::program::FnProgram;
use dip_fnops::parallel::plan;
use dip_fnops::{FnRegistry, OpCost};
use dip_wire::triple::FnTriple;

/// Runs the resource pass.
pub fn check(
    program: &FnProgram,
    semantics: &FnRegistry,
    budget: &ResourceBudget,
) -> Vec<Diagnostic> {
    let router: Vec<FnTriple> = program.router_fns().map(|(_, t)| *t).collect();
    let costs: Vec<Option<OpCost>> =
        router.iter().map(|t| semantics.effects(t).map(|e| e.cost)).collect();

    let mut total = OpCost::default();
    for c in costs.iter().flatten() {
        total = total + *c;
    }

    // Stage occupancy under modular parallelism: per wave, the widest
    // member (the paper's §2.2 speedup is exactly this packing).
    let stages = if program.parallel {
        let p = plan(&router, semantics);
        p.waves
            .iter()
            .map(|wave| wave.iter().map(|&i| costs[i].map_or(0, |c| c.stages)).max().unwrap_or(0))
            .sum()
    } else {
        total.stages
    };

    let mut diags = Vec::new();
    let mut over = |code, used: u32, avail: u32, what: &str| {
        if used > avail {
            diags.push(Diagnostic::error(
                code,
                format!("chain needs {used} {what} but the target provides {avail}"),
            ));
        }
    };
    over(DiagCode::StageBudgetExceeded, stages, budget.max_stages, "match-action stages");
    over(
        DiagCode::LookupBudgetExceeded,
        total.table_lookups,
        budget.max_table_lookups,
        "table lookups",
    );
    over(
        DiagCode::CipherBudgetExceeded,
        total.cipher_blocks,
        budget.max_cipher_blocks,
        "cipher blocks",
    );
    over(DiagCode::ResubmitBudgetExceeded, total.resubmits, budget.max_resubmits, "resubmissions");
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::{Action, Effects, FieldOp, PacketCtx, RouterState};
    use dip_wire::triple::FnKey;

    fn std() -> FnRegistry {
        FnRegistry::standard()
    }

    fn tofino() -> ResourceBudget {
        ResourceBudget::tofino()
    }

    /// NDN+OPT — the heaviest paper composition — must fit the Tofino
    /// budget (pit 1 + parm 1 + mac 2 + mark 1 = 5 stages; 3+5+2 = 10
    /// cipher blocks; 1 lookup).
    #[test]
    fn ndn_opt_fits_the_tofino_budget() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 32, FnKey::Pit),
                FnTriple::router(160, 128, FnKey::Parm),
                FnTriple::router(32, 416, FnKey::Mac),
                FnTriple::router(320, 128, FnKey::Mark),
                FnTriple::host(32, 544, FnKey::Ver),
            ],
            72,
            false,
        );
        assert!(check(&p, &std(), &tofino()).is_empty());
    }

    #[test]
    fn stage_overflow_is_flagged() {
        let fns: Vec<FnTriple> =
            (0..16).map(|i| FnTriple::router(i * 8, 8, FnKey::Source)).collect();
        let p = FnProgram::new(fns, 16, false);
        let d = check(&p, &std(), &tofino());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::StageBudgetExceeded);
        assert!(d[0].message.contains("16"));
    }

    #[test]
    fn parallel_packing_reclaims_stages() {
        // The same 16 one-stage ops with the parallel flag: all fields are
        // disjoint reads, so the planner packs them into one wave = one
        // stage — within budget.
        let fns: Vec<FnTriple> =
            (0..16).map(|i| FnTriple::router(i * 8, 8, FnKey::Source)).collect();
        let p = FnProgram::new(fns, 16, true);
        assert!(check(&p, &std(), &tofino()).is_empty());
    }

    #[test]
    fn cipher_overflow_is_flagged() {
        // parm + five disjoint 416-bit MACs: 3 + 5·5 = 28 blocks > 24,
        // while stages (1 + 5·2 = 11) stay inside the budget.
        let mut fns = vec![FnTriple::router(0, 128, FnKey::Parm)];
        for k in 0..5u16 {
            fns.push(FnTriple::router(128 + k * 544, 416, FnKey::Mac));
        }
        let p = FnProgram::new(fns, (128 + 5 * 544) / 8, false);
        let d = check(&p, &std(), &tofino());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::CipherBudgetExceeded);
    }

    #[test]
    fn lookup_overflow_is_flagged() {
        // Nine 32-bit FIB matches: 9 lookups·2 = 18 > 8 (and 9 stages ≤ 12).
        let fns: Vec<FnTriple> = (0..9).map(|i| FnTriple::router(i * 32, 32, FnKey::Fib)).collect();
        let p = FnProgram::new(fns, 36, false);
        let d = check(&p, &std(), &tofino());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::LookupBudgetExceeded);
    }

    /// An op that needs a packet resubmission per invocation (AES-style).
    struct ResubmitOp;
    impl FieldOp for ResubmitOp {
        fn key(&self) -> FnKey {
            FnKey::Other(0x700)
        }
        fn execute(&self, _t: &FnTriple, _s: &mut RouterState, _c: &mut PacketCtx<'_>) -> Action {
            Action::Continue
        }
        fn effects(&self, t: &FnTriple) -> Effects {
            Effects::new(t, OpCost::cipher(1, 1, 1))
        }
    }

    #[test]
    fn resubmit_overflow_is_flagged() {
        let mut reg = FnRegistry::standard();
        reg.install(std::sync::Arc::new(ResubmitOp));
        let fns = vec![
            FnTriple::router(0, 8, FnKey::Other(0x700)),
            FnTriple::router(8, 8, FnKey::Other(0x700)),
        ];
        let p = FnProgram::new(fns, 2, false);
        let d = check(&p, &reg, &tofino());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::ResubmitBudgetExceeded);
    }

    #[test]
    fn unconstrained_budget_never_fires() {
        let fns: Vec<FnTriple> = (0..200).map(|i| FnTriple::router(i, 1, FnKey::Source)).collect();
        let p = FnProgram::new(fns, 32, false);
        assert!(check(&p, &std(), &ResourceBudget::unconstrained()).is_empty());
    }

    #[test]
    fn unknown_keys_cost_nothing_here() {
        let p = FnProgram::new(vec![FnTriple::router(0, 8, FnKey::Other(0x666)); 40], 1, false);
        assert!(check(&p, &std(), &tofino()).is_empty());
    }
}
