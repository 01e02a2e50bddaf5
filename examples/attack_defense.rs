//! §2.4's security story, live: the FIB+PIT cache-poisoning combo, the
//! `F_pass` defense toggled *on the fly*, and the per-packet processing
//! budget stopping an FN-chain bomb.
//!
//! Run with: `cargo run --example attack_defense`

use dip::fnops::ops::pass::{issue_label, PASS_FIELD_BITS};
use dip::prelude::*;
use dip_routes::RouteStore;

fn attack_packet(name: &Name) -> Vec<u8> {
    // "An attacker can use both F_FIB and F_PIT in one packet and carry
    // maliciously constructed data to pollute the node's content cache."
    DipRepr {
        fns: vec![FnTriple::router(0, 32, FnKey::Fib), FnTriple::router(0, 32, FnKey::Pit)],
        locations: name.compact32().to_be_bytes().to_vec(),
        ..Default::default()
    }
    .to_bytes(b"EVIL BYTES")
    .unwrap()
}

fn main() {
    println!("=== §2.4 attacks and dynamic defenses ===\n");
    let name = Name::parse("/bank/homepage");

    let mut router = DipRouter::new(1, [0x11; 16]);
    router.state_mut().enable_content_store(64);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(9));
    router.state_mut().routes = routes.rebuild();

    // --- Phase 1: the attack works against an undefended cache. ----------
    println!("phase 1: no defense");
    let mut pkt = attack_packet(&name);
    let (v, _) = router.process(&mut pkt, 2, 0);
    println!("  attack packet verdict: {v:?}");
    let poisoned = router.state().content_store.as_ref().unwrap().peek(&name.compact32()).is_some();
    println!("  cache now poisoned: {poisoned}");
    assert!(poisoned);

    // An honest user asking for the page gets the attacker's bytes.
    let mut interest = dip::protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    let (v, _) = router.process(&mut interest, 3, 1);
    if let Verdict::RespondCached(bytes) = &v {
        println!("  honest user served: {:?}\n", String::from_utf8_lossy(bytes));
    }

    // --- Phase 2: operator detects it, enables F_pass on the fly. --------
    println!("phase 2: operator enables the F_pass policy and purges the cache");
    router.state_mut().require_pass_for_cache = true;
    let purged = router.state_mut().content_store.as_mut().unwrap().purge_since(0);
    println!("  purged {purged} poisoned entr(y/ies)");

    let mut pkt = attack_packet(&name);
    let (v, _) = router.process(&mut pkt, 2, 10);
    let poisoned = router.state().content_store.as_ref().unwrap().peek(&name.compact32()).is_some();
    println!("  attack re-run verdict: {v:?}; cache poisoned: {poisoned}");
    assert!(!poisoned);

    // A legitimate producer with a valid AS-issued source label still gets
    // cached — the defense costs the attacker, not the ecosystem.
    let source_id = [0x0Au8; 16];
    let label = issue_label(&router.state().as_secret, &source_id);
    let mut locations = name.compact32().to_be_bytes().to_vec();
    locations.extend_from_slice(&source_id);
    locations.extend_from_slice(&label);
    let legit = DipRepr {
        fns: vec![
            FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass),
            FnTriple::router(0, 32, FnKey::Pit),
        ],
        locations,
        ..Default::default()
    }
    .to_bytes(b"the real homepage")
    .unwrap();
    // (answering a fresh pending interest)
    let mut interest = dip::protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    let _ = router.process(&mut interest, 3, 20);
    let mut legit_buf = legit;
    let (v, _) = router.process(&mut legit_buf, 9, 21);
    let cached = router
        .state()
        .content_store
        .as_ref()
        .unwrap()
        .peek(&name.compact32())
        .map(|b| String::from_utf8_lossy(b).into_owned());
    println!("  legit producer verdict: {v:?}; cached: {cached:?}\n");
    assert_eq!(cached.as_deref(), Some("the real homepage"));

    // --- Phase 3: FN-chain bomb vs the processing budget. -----------------
    println!("phase 3: processing-budget defense");
    let mut fns = vec![FnTriple::router(16 * 8, 128, FnKey::Parm)];
    fns.extend((0..25).map(|_| FnTriple::router(0, 416, FnKey::Mac)));
    let bomb =
        DipRepr { fns, locations: vec![0u8; 68], ..Default::default() }.to_bytes(&[]).unwrap();
    let mut bomb_buf = bomb;
    let (v, stats) = router.process(&mut bomb_buf, 2, 30);
    println!(
        "  26-FN MAC bomb: verdict {v:?} after only {} FNs / {} cipher blocks",
        stats.fns_executed, stats.cost.cipher_blocks
    );
    assert_eq!(v, Verdict::Drop(DropReason::ProcessingBudgetExceeded));

    println!("\nSame primitive that creates the attack surface (composable FNs) also");
    println!("carries the defense: policies are just more FNs plus hard budgets.");
}
