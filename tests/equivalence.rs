//! The dipopt equivalence gate: a dipopt-rewritten plan must be
//! byte-indistinguishable from the program's identity plan. Both run
//! through the one executor (`DipRouter::process_parsed`); only the plan
//! differs.
//!
//! For each of the six protocol programs (DIP-32, DIP-128, NDN, OPT, XIA,
//! NDN+OPT), a seeded workload trace runs through two identically
//! provisioned routers — one running identity plans, one running the
//! dipopt-rewritten plans — and [`dip::core::differential_check`] compares,
//! per packet: the verdict, the full post-processing packet bytes, and the
//! router-state fingerprint (FIB/PIT/content-store effects). A protocol's
//! gate only counts if at least one packet actually exercised an optimized
//! plan.
//!
//! The suite also pins the negative space: every admissible-but-illegal
//! program in [`dip::verify::optimization_corpus`] must run with *zero*
//! optimized plans under the flag, and the facts `dipstat`/the dataplane
//! compute for the real XIA wire packet must contain the hot-path rewrite
//! (the fix behind the XIA MST outlier).

use dip::core::differential_check;
use dip::prelude::*;
use dip::verify::{analyze, optimization_corpus, Rewrite};
use dip::workload::{Mix, TrafficClass, WorkloadSpec};

const PACKETS_PER_CLASS: usize = 96;

fn spec(class: TrafficClass, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        mix: Mix::single(class),
        catalog_size: 64,
        table_size: 512,
        pit_preseed: 256,
        ..Default::default()
    }
}

/// Classes whose chains dipopt provably rewrites (fusion, hoist, or parse
/// elimination). NDN is a single-hop chain with nothing to optimize — its
/// gate instead pins that the optimizer leaves it alone.
fn expects_optimization(class: TrafficClass) -> bool {
    !matches!(class, TrafficClass::Ndn)
}

#[test]
fn all_six_protocol_programs_are_equivalent_under_optimization() {
    for (i, &class) in TrafficClass::ALL.iter().enumerate() {
        let spec = spec(class, 0xe9 + i as u64);
        let trace = spec.generate(1_000_000, PACKETS_PER_CLASS);
        assert_eq!(trace.packets.len(), PACKETS_PER_CLASS);
        let packets = trace.packets.iter().map(|p| (p.bytes.clone(), 7, p.at_ns));
        let report = differential_check(spec.build_router(1), spec.build_router(1), packets)
            .unwrap_or_else(|e| panic!("{}: optimized run diverged: {e}", class.label()));
        assert_eq!(report.packets, PACKETS_PER_CLASS);
        if expects_optimization(class) {
            assert!(
                report.optimized_verdicts > 0,
                "{}: no packet exercised an optimized plan",
                class.label()
            );
        } else {
            assert_eq!(
                report.optimized_verdicts,
                0,
                "{}: single-hop chain must not be rewritten",
                class.label()
            );
        }
    }
}

#[test]
fn corpus_programs_run_unoptimized_and_equivalent() {
    // The must-not-optimize corpus: equivalence still holds trivially —
    // because the optimizer provably bailed and both sides run the
    // identity plan.
    for case in optimization_corpus() {
        let report = dip::core::differential_smoke(
            &case.program.fns,
            case.program.loc_len,
            case.program.parallel,
            &FnRegistry::standard(),
            0xc0,
        )
        .unwrap_or_else(|e| panic!("{}: diverged: {e}", case.name));
        assert_eq!(report.optimized_verdicts, 0, "{} must never be optimized", case.name);
        let facts = analyze(&case.program, &FnRegistry::standard());
        assert!(facts.rewrites.is_empty(), "{}: unexpected rewrites", case.name);
        assert!(facts.bailed(case.expect), "{}: missing expected bail", case.name);
    }
}

#[test]
fn the_real_xia_wire_packet_gets_the_hot_path_rewrite() {
    // The XIA MST outlier fix: the standalone DAG parse ahead of F_intent
    // is eliminated, so the wire packet's program must carry exactly that
    // rewrite when analyzed from parsed bytes (the dataplane's view).
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"gate-content")),
        Xid::derive(b"gate-ad"),
        Xid::derive(b"gate-hid"),
    )
    .unwrap();
    let bytes = dip::protocols::xia::packet(&dag, 64).to_bytes(&[]).unwrap();
    let parsed = dip::core::parse_packet(&bytes).expect("xia packet parses");
    let program = FnProgram::new(parsed.triples.clone(), parsed.loc_len, parsed.parallel);
    let facts = analyze(&program, &FnRegistry::standard());
    assert!(
        facts
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::EliminateRedundantParse { parse: 0, into: 1, .. })),
        "expected the dag-parse elimination, got {:?}",
        facts.rewrites
    );
    assert_eq!(facts.ops_eliminated(), 1);
}
