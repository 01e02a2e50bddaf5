//! Pass 3 — data-flow checks over the router-executed chain.
//!
//! This pass reads each operation's declared [`Effects`], the value the
//! runtime parallel planner reads, so a hazard reported here is exactly a
//! field-level edge the planner would serialize. Three properties are
//! checked:
//!
//! * **Dynamic-key def-use** (§3's `F_parm` → `F_MAC`/`F_mark` chain): an
//!   operation that reads the per-packet dynamic key must be preceded by
//!   one that derives it, or the router drops with `MissingDynamicKey`.
//! * **MAC-then-mutate**: once `F_MAC` has covered a bit range (and
//!   deposited its tag), a later operation overwriting those bits
//!   invalidates the authentication — unless that operation is itself part
//!   of the dynamic-key chain (`F_mark` updating the PVF *inside* the
//!   covered range is the sanctioned §3 composition, not a bug).
//! * **Parallel-flag hazards** (§2.2): when the packet requests modular
//!   parallelism, two conflicting operations are only safe if the planner
//!   serializes them — which it does for dynamic-key chain members. A
//!   field conflict where *either* side is outside the chain means the flag
//!   was set on a program that cannot actually parallelize safely. Slot and
//!   table dependencies (a shared PIT, `F_pass`'s verdict) are edges the
//!   planner serializes too, so they are not hazards.

use crate::diag::{DiagCode, Diagnostic};
use crate::program::FnProgram;
use dip_fnops::effects::ranges_overlap;
use dip_fnops::Dependency::{AliasingWrites, WriteRead};
use dip_fnops::{Effects, FnRegistry, Resource};
use dip_wire::triple::{FnKey, FnTriple};

/// A router-executed triple with its position and its effects, `None`
/// when no module is installed for its key.
type Hop<'a> = (usize, &'a FnTriple, Option<Effects>);

/// Runs the data-flow pass. `semantics` supplies operation behavior
/// (effects); keys it does not know are skipped here — the registry
/// pass owns "unknown key" reporting.
pub fn check(program: &FnProgram, semantics: &FnRegistry) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let chain: Vec<Hop> = program.router_fns().map(|(i, t)| (i, t, semantics.effects(t))).collect();

    check_key_def_use(&chain, &mut diags);
    check_mac_then_mutate(&chain, &mut diags);
    if program.parallel {
        check_parallel_hazards(&chain, &mut diags);
    }
    diags
}

fn check_key_def_use(chain: &[Hop], diags: &mut Vec<Diagnostic>) {
    let mut key_defined = false;
    for (i, t, e) in chain {
        let Some(e) = e else { continue };
        if e.reads.contains(Resource::DynamicKey) && !key_defined {
            diags.push(
                Diagnostic::error(
                    DiagCode::KeyUseBeforeDef,
                    format!(
                        "{} reads the per-packet dynamic key but no earlier F_parm derives it",
                        t.key.notation()
                    ),
                )
                .at_triple(*i),
            );
        }
        if e.writes.contains(Resource::DynamicKey) {
            key_defined = true;
        }
    }
}

fn check_mac_then_mutate(chain: &[Hop], diags: &mut Vec<Diagnostic>) {
    for (mac_pos, (mac_i, mac_t, mac_e)) in chain.iter().enumerate() {
        if mac_t.key != FnKey::Mac {
            continue;
        }
        let Some(mac_e) = mac_e else { continue };
        // Protected bits: the covered field plus the deposited tag slot.
        let coverage = mac_e.read;
        let tag = mac_e.write;
        for (j, t, e) in &chain[mac_pos + 1..] {
            let Some(e) = e else { continue };
            let Some(w) = e.write else { continue };
            if e.reads.contains(Resource::DynamicKey) {
                // F_mark (and any further MAC) participates in the same
                // chain; its writes are part of the protocol, not damage.
                continue;
            }
            let hits_coverage = ranges_overlap(w, coverage);
            let hits_tag = tag.is_some_and(|tg| ranges_overlap(w, tg));
            if hits_coverage || hits_tag {
                diags.push(
                    Diagnostic::error(
                        DiagCode::MacThenMutate,
                        format!(
                            "{} overwrites bits {}..{} {} by the F_MAC at fn#{mac_i}",
                            t.key.notation(),
                            w.0,
                            w.1,
                            if hits_coverage { "covered" } else { "of the tag written" },
                        ),
                    )
                    .at_triple(*j)
                    .with_span(w),
                );
            }
        }
    }
}

fn check_parallel_hazards(chain: &[Hop], diags: &mut Vec<Diagnostic>) {
    for (pos, (i, ti, ei)) in chain.iter().enumerate() {
        let Some(ei) = ei else { continue };
        for (j, tj, ej) in &chain[pos + 1..] {
            let Some(ej) = ej else { continue };
            if !matches!(ei.dependency(ej), Some(AliasingWrites | WriteRead)) {
                continue;
            }
            // Both ends inside the dynamic-key chain: the planner
            // serializes them (key dependency), so the flag is honest.
            if ei.in_key_chain() && ej.in_key_chain() {
                continue;
            }
            diags.push(
                Diagnostic::error(
                    DiagCode::ParallelHazard,
                    format!(
                        "parallel flag set but {} (fn#{i}) and {} (fn#{j}) conflict on packet state",
                        ti.key.notation(),
                        tj.key.notation()
                    ),
                )
                .at_triple(*j),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std() -> FnRegistry {
        FnRegistry::standard()
    }

    fn opt_chain(parallel: bool) -> FnProgram {
        FnProgram::new(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(288, 128, FnKey::Mark),
                FnTriple::host(0, 544, FnKey::Ver),
            ],
            68,
            parallel,
        )
    }

    /// NDN+OPT data with the parallel flag — the layout built by
    /// `dip_protocols::ndn_opt::data_parallel` (OPT block at bit 32).
    fn ndn_opt_parallel() -> FnProgram {
        FnProgram::new(
            vec![
                FnTriple::router(0, 32, FnKey::Pit),
                FnTriple::router(32 + 128, 128, FnKey::Parm),
                FnTriple::router(32, 416, FnKey::Mac),
                FnTriple::router(32 + 288, 128, FnKey::Mark),
                FnTriple::host(32, 544, FnKey::Ver),
            ],
            72,
            true,
        )
    }

    #[test]
    fn paper_opt_chain_is_clean() {
        assert!(check(&opt_chain(false), &std()).is_empty());
        // Even with the parallel flag: every conflict is inside the
        // dynamic-key chain, which the planner serializes.
        assert!(check(&opt_chain(true), &std()).is_empty());
    }

    #[test]
    fn ndn_opt_parallel_data_is_clean() {
        assert!(check(&ndn_opt_parallel(), &std()).is_empty());
    }

    #[test]
    fn mac_without_parm_is_use_before_def() {
        let p = FnProgram::new(
            vec![FnTriple::router(0, 416, FnKey::Mac), FnTriple::router(288, 128, FnKey::Mark)],
            68,
            false,
        );
        let d = check(&p, &std());
        assert_eq!(d.len(), 2, "{d:?}"); // both Mac and Mark read the key
        assert!(d.iter().all(|x| x.code == DiagCode::KeyUseBeforeDef));
    }

    #[test]
    fn parm_after_use_is_still_use_before_def() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(288, 128, FnKey::Mark),
            ],
            68,
            false,
        );
        let d = check(&p, &std());
        assert_eq!(d.len(), 1, "{d:?}"); // Mac flagged; Mark comes after parm
        assert_eq!(d[0].code, DiagCode::KeyUseBeforeDef);
        assert_eq!(d[0].triple, Some(0));
    }

    #[test]
    fn host_tagged_ver_never_counts_as_key_use() {
        // F_ver reads session material at the destination, not the
        // router's per-packet dynamic key; the chain ending in a host Ver
        // with no router ops must be clean.
        let p = FnProgram::new(vec![FnTriple::host(0, 544, FnKey::Ver)], 68, false);
        assert!(check(&p, &std()).is_empty());
    }

    #[test]
    fn mutating_covered_bits_after_mac_is_flagged() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(0, 128, FnKey::Intent), // writes inside coverage
            ],
            68,
            false,
        );
        let d = check(&p, &std());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::MacThenMutate);
        assert_eq!(d[0].triple, Some(2));
        assert_eq!(d[0].span, Some((0, 128)));
    }

    #[test]
    fn mutating_the_tag_slot_is_flagged_too() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(416, 128, FnKey::Intent), // clobbers the tag
            ],
            68,
            false,
        );
        let d = check(&p, &std());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::MacThenMutate);
        assert!(d[0].message.contains("tag"));
    }

    #[test]
    fn mark_inside_mac_coverage_is_the_sanctioned_composition() {
        // §3: F_mark updates the PVF *within* the MAC'd range by design.
        assert!(check(&opt_chain(false), &std()).is_empty());
    }

    #[test]
    fn writes_before_the_mac_are_fine() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 128, FnKey::Intent),
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
            ],
            68,
            false,
        );
        assert!(check(&p, &std()).is_empty());
    }

    #[test]
    fn parallel_flag_over_conflicting_writers_is_a_hazard() {
        let p = FnProgram::new(
            vec![FnTriple::router(0, 64, FnKey::Intent), FnTriple::router(0, 64, FnKey::Intent)],
            8,
            true,
        );
        let d = check(&p, &std());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, DiagCode::ParallelHazard);
        // Same program without the flag: sequential execution, no hazard.
        let p = FnProgram::new(p.fns, 8, false);
        assert!(check(&p, &std()).is_empty());
    }

    #[test]
    fn disjoint_ops_parallelize_cleanly() {
        let p = FnProgram::new(
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)],
            8,
            true,
        );
        assert!(check(&p, &std()).is_empty());
    }

    #[test]
    fn unknown_keys_are_left_to_the_registry_pass() {
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 32, FnKey::Other(0x300)),
                FnTriple::router(0, 32, FnKey::Other(0x301)),
            ],
            4,
            true,
        );
        assert!(check(&p, &std()).is_empty());
    }
}
