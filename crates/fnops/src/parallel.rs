//! The modular-parallelism planner (§2.2).
//!
//! The lowest bit of the packet parameter "indicates whether the operation
//! modules can be executed in parallel ... to improve packet processing
//! speed when the modular parallelism technique \[31, 32\] is used". This
//! module computes *which* operations may overlap: it partitions the FN
//! chain into sequential **waves** such that within a wave no two
//! operations conflict. Two operations conflict when their declared
//! [`Effects`] depend on each other ([`Effects::dependency`]): one writes
//! bits the other reads or writes, or one writes a per-packet slot or a
//! router table the other reads or writes (the `F_parm` → `F_MAC`/`F_mark`
//! dynamic key of §3, `F_pass`'s verdict that `F_PIT` reads, `F_DAG`'s
//! parse that `F_intent` walks, two ops that both update the PIT).
//!
//! Program order is preserved across conflicting pairs, so executing the
//! waves in order is observably equivalent to sequential execution. The
//! PISA timing model charges a wave the *maximum* of its members' costs
//! instead of the sum (experiment E5).

use crate::registry::FnRegistry;
use crate::Effects;
use dip_wire::triple::FnTriple;

/// An execution plan: triple indices grouped into sequential waves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Waves, each a list of indices into the original triple slice; all
    /// members of a wave may execute concurrently.
    pub waves: Vec<Vec<usize>>,
}

impl Plan {
    /// Number of sequential steps.
    pub fn depth(&self) -> usize {
        self.waves.len()
    }
}

/// Computes the parallel execution plan for a chain of router-executed
/// triples. Host-tagged triples should be filtered out by the caller (the
/// router skips them anyway). Unknown keys are treated as full-barrier
/// operations (conservatively conflicting with everything).
pub fn plan(triples: &[FnTriple], registry: &FnRegistry) -> Plan {
    let effects: Vec<Option<Effects>> = triples.iter().map(|t| registry.effects(t)).collect();

    // Greedy list scheduling: place each op in the earliest wave after all
    // conflicting predecessors.
    let mut wave_of: Vec<usize> = Vec::with_capacity(triples.len());
    for (i, a) in effects.iter().enumerate() {
        let mut earliest = 0;
        for (j, b) in effects[..i].iter().enumerate() {
            let conflict = match (a, b) {
                (Some(a), Some(b)) => b.dependency(a).is_some(),
                // Unknown op: total barrier.
                _ => true,
            };
            if conflict {
                earliest = earliest.max(wave_of[j] + 1);
            }
        }
        wave_of.push(earliest);
    }
    let depth = wave_of.iter().map(|w| w + 1).max().unwrap_or(0);
    let mut waves = vec![Vec::new(); depth];
    for (i, w) in wave_of.iter().enumerate() {
        waves[*w].push(i);
    }
    Plan { waves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resource;
    use dip_wire::opt::triple_bits;
    use dip_wire::triple::FnKey;

    fn registry() -> FnRegistry {
        FnRegistry::standard()
    }

    fn opt_chain() -> Vec<FnTriple> {
        vec![
            FnTriple::router(triple_bits::PARM.0, triple_bits::PARM.1, FnKey::Parm),
            FnTriple::router(triple_bits::MAC.0, triple_bits::MAC.1, FnKey::Mac),
            FnTriple::router(triple_bits::MARK.0, triple_bits::MARK.1, FnKey::Mark),
        ]
    }

    #[test]
    fn opt_auth_chain_is_mostly_sequential() {
        // parm -> mac (key dep), parm -> mark (key dep),
        // mark writes PVF ⊂ mac's read range -> mac/mark conflict too.
        let p = plan(&opt_chain(), &registry());
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn ndn_opt_lets_pit_run_with_parm() {
        // NDN+OPT data chain: PIT reads the name at [0,32); parm reads the
        // session id; neither writes fields others touch except the
        // key-dependency chain — so PIT joins the first wave.
        let triples = vec![
            FnTriple::router(0, 32, FnKey::Pit),
            FnTriple::router(32 + 128, 128, FnKey::Parm),
            FnTriple::router(32, 416, FnKey::Mac),
            FnTriple::router(32 + 288, 128, FnKey::Mark),
        ];
        let p = plan(&triples, &registry());
        assert_eq!(p.waves[0], vec![0, 1], "PIT and parm should share wave 0");
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn disjoint_reads_share_a_wave() {
        let triples =
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)];
        let p = plan(&triples, &registry());
        assert_eq!(p.depth(), 1);
        assert_eq!(p.waves[0], vec![0, 1]);
    }

    #[test]
    fn unknown_key_is_a_barrier() {
        let triples = vec![
            FnTriple::router(0, 32, FnKey::Match32),
            FnTriple::router(64, 32, FnKey::Other(0x300)),
            FnTriple::router(32, 32, FnKey::Source),
        ];
        let p = plan(&triples, &registry());
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn empty_chain() {
        let p = plan(&[], &registry());
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn effects_of_mac_name_the_tag_and_the_key() {
        let reg = registry();
        let t = FnTriple::router(32, 416, FnKey::Mac);
        let e = reg.effects(&t).expect("Mac installed in standard registry");
        assert_eq!(e.read, (32, 32 + 416));
        // F_MAC deposits its 128-bit tag immediately after the covered field.
        assert_eq!(e.write, Some((32 + 416, 32 + 416 + 128)));
        assert!(e.reads.contains(Resource::DynamicKey));
        assert!(!e.writes.contains(Resource::DynamicKey));
        assert!(reg.effects(&FnTriple::router(0, 8, FnKey::Other(0x300))).is_none());
    }

    #[test]
    fn pass_verdict_orders_pass_before_pit() {
        // F_PIT reads the verdict F_pass writes (under
        // `require_pass_for_cache`): disjoint fields, still two waves.
        let triples =
            vec![FnTriple::router(0, 160, FnKey::Pass), FnTriple::router(160, 32, FnKey::Pit)];
        assert_eq!(plan(&triples, &registry()).waves, vec![vec![0], vec![1]]);
    }

    #[test]
    fn parsed_dag_orders_dag_before_intent_on_disjoint_spans() {
        // F_intent walks whatever DAG an earlier F_DAG left in the packet
        // context, whatever that op's span.
        let triples =
            vec![FnTriple::router(0, 720, FnKey::Dag), FnTriple::router(720, 720, FnKey::Intent)];
        assert_eq!(plan(&triples, &registry()).waves, vec![vec![0], vec![1]]);
    }

    #[test]
    fn two_pit_writers_keep_their_order() {
        let triples =
            vec![FnTriple::router(0, 32, FnKey::Fib), FnTriple::router(32, 32, FnKey::Fib)];
        assert_eq!(plan(&triples, &registry()).depth(), 2);
    }

    #[test]
    fn waves_preserve_program_order_for_conflicts() {
        // Two marks on the same field must stay ordered.
        let triples =
            vec![FnTriple::router(0, 128, FnKey::Mark), FnTriple::router(0, 128, FnKey::Mark)];
        // Give them a key so they'd otherwise be runnable.
        let p = plan(&triples, &registry());
        assert_eq!(p.depth(), 2);
        assert_eq!(p.waves[0], vec![0]);
        assert_eq!(p.waves[1], vec![1]);
    }
}
