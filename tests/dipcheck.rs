//! Integration tests for the `dipcheck` static verifier (ISSUE 1).
//!
//! Three layers of assurance:
//! 1. table-driven: the five paper protocols lint clean (zero false
//!    positives on real programs);
//! 2. table-driven: every seeded-invalid corpus entry is rejected with
//!    its expected diagnostic (detection power);
//! 3. property: any randomly composed chain the verifier accepts
//!    serializes and executes through the real `dip_core::DipRouter`
//!    pipeline without an out-of-bounds `WireError` — the soundness
//!    contract the crate documents.

use dip::prelude::*;
use dip::verify::{invalid_corpus, DiagCode};
use dip_crypto::DetRng;
use dip_routes::RouteStore;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;

fn opt_session() -> OptSession {
    OptSession::establish([0xaa; 16], &[0xbb; 16], &[[1; 16], [2; 16]])
}

fn paper_protocols() -> Vec<(&'static str, DipRepr)> {
    let name = Name::parse("hotnets.org");
    let session = opt_session();
    vec![
        (
            "ipv4",
            dip::protocols::ip::dip32_packet(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 1),
                64,
            ),
        ),
        (
            "ipv6",
            dip::protocols::ip::dip128_packet(
                Ipv6Addr::new([0x2001, 0xdb8, 0, 0, 0, 0, 0, 2]),
                Ipv6Addr::new([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]),
                64,
            ),
        ),
        ("ndn", dip::protocols::ndn::interest(&name, 64)),
        ("opt", session.packet(b"payload", 7, 64)),
        ("ndn+opt", dip::protocols::ndn_opt::data(&session, &name, b"content", 7, 64)),
    ]
}

#[test]
fn five_paper_protocols_lint_clean() {
    let checker = Checker::new();
    for (label, repr) in paper_protocols() {
        let report = checker.check(&FnProgram::from_repr(&repr));
        assert!(report.is_clean(), "{label}: false positive(s): {report}");
    }
}

#[test]
fn ndn_opt_parallel_variant_also_lints_clean() {
    // The parallel-flag composition exercises the hazard analysis with a
    // sanctioned dynamic-key chain — it must not be a false positive.
    let session = opt_session();
    let repr = dip::protocols::ndn_opt::data_parallel(
        &session,
        &Name::parse("hotnets.org"),
        b"content",
        7,
        64,
    );
    let report = Checker::new().check(&FnProgram::from_repr(&repr));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn corpus_entries_are_rejected_with_expected_diagnostics() {
    let checker = Checker::new();
    let corpus = invalid_corpus();
    assert!(corpus.len() >= 10);
    for case in corpus {
        let report = if case.hop_keys.is_empty() {
            checker.check(&case.program)
        } else {
            let hops: Vec<FnRegistry> =
                case.hop_keys.iter().map(|ks| FnRegistry::with_keys(ks)).collect();
            checker.check_path(&case.program, &hops)
        };
        assert!(report.has_errors(), "{}: accepted ({})", case.name, case.description);
        assert!(
            report.has_code(case.expect),
            "{}: expected {:?}, got {report}",
            case.name,
            case.expect
        );
    }
}

#[test]
fn diagnostics_carry_severity_index_and_span() {
    // The diagnostic format the CLI and docs promise: code string,
    // offending triple index, and the bit span of the violation.
    let program = FnProgram::new(
        vec![
            FnTriple::router(0, 32, FnKey::Match32),
            FnTriple::router(16, 64, FnKey::Source), // 16..80 > 32 bits
        ],
        4,
        false,
    );
    let report = Checker::new().check(&program);
    let d = report
        .errors()
        .find(|d| d.code == DiagCode::FieldOutOfBounds)
        .expect("out-of-bounds diagnostic");
    assert_eq!(d.triple, Some(1));
    assert_eq!(d.span, Some((16, 80)));
    let rendered = format!("{d}");
    assert!(rendered.contains("field-out-of-bounds"), "{rendered}");
    assert!(rendered.contains("fn#1"), "{rendered}");
}

/// A menu of operations at their canonical field widths — what a real
/// (if randomly scrambled) host composition draws from.
fn arb_triple(r: &mut DetRng) -> FnTriple {
    let loc = (r.next_u32() % 1600) as u16;
    match r.gen_index(8) {
        0 => FnTriple::router(loc, 32, FnKey::Match32),
        1 => FnTriple::router(loc, 128, FnKey::Match128),
        2 => FnTriple::router(loc, if r.gen_bool(0.5) { 32 } else { 128 }, FnKey::Source),
        3 => FnTriple::router(loc, 32, FnKey::Pit),
        4 => FnTriple::router(loc, 128, FnKey::Parm),
        5 => FnTriple::router(loc, 8 * (1 + (r.next_u32() % 64) as u16), FnKey::Mac),
        6 => FnTriple::router(loc, 128, FnKey::Mark),
        7 => FnTriple::host(loc, 8 * (1 + (r.next_u32() % 68) as u16), FnKey::Ver),
        _ => unreachable!(),
    }
}

#[test]
fn accepted_chains_execute_without_out_of_bounds() {
    let mut r = DetRng::seed_from_u64(0xd1c);
    let checker = Checker::new();
    let mut accepted = 0usize;

    for case in 0..400 {
        let fns: Vec<FnTriple> = (0..1 + r.gen_index(5)).map(|_| arb_triple(&mut r)).collect();
        let loc_len = r.gen_index(201); // 0..=200 bytes
        let parallel = r.gen_bool(0.3);
        let program = FnProgram::new(fns.clone(), loc_len, parallel);
        if !checker.check(&program).is_clean() {
            continue; // rejected statically — nothing to prove
        }
        accepted += 1;

        // 1. Serialization never reports an out-of-bounds WireError.
        let repr = DipRepr {
            parallel,
            fns: fns.clone(),
            locations: vec![0u8; loc_len],
            ..Default::default()
        };
        let bytes = repr
            .to_bytes(b"prop")
            .unwrap_or_else(|e| panic!("case {case}: accepted chain failed to emit: {e:?}"));

        // 2. Every field access the router will perform is in bounds.
        let pkt = DipPacket::new_checked(&bytes[..])
            .unwrap_or_else(|e| panic!("case {case}: accepted chain unparseable: {e:?}"));
        for t in &fns {
            pkt.target_field(t).unwrap_or_else(|e| panic!("case {case}: field read OOB: {e:?}"));
        }

        // 3. The Algorithm-1 pipeline runs to a verdict without a
        //    malformed-field drop (NoRoute/pit verdicts are fine — the
        //    contract is about construction, not table contents).
        let mut router = DipRouter::new(1, [7; 16]);
        router.config_mut().default_port = Some(1);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(0, 0, 0, 0), 0, dip::tables::fib::NextHop::port(1));
        router.state_mut().routes = routes.rebuild();
        let mut buf = bytes.clone();
        let (verdict, _) = router.process(&mut buf, 0, 0);
        assert_ne!(
            verdict,
            Verdict::Drop(DropReason::MalformedField),
            "case {case}: accepted chain {fns:?} (loc {loc_len}B) dropped as malformed"
        );
    }

    assert!(accepted >= 25, "property vacuous: only {accepted} of 400 chains accepted");
}
