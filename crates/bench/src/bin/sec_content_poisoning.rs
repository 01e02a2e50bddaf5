//! Experiment E6 — §2.4's content-poisoning attack and the `F_pass`
//! defense.
//!
//! "An attacker can use both F_FIB and F_PIT in one packet and carry
//! maliciously constructed data to pollute the node's content cache.
//! Nodes can enable source label verification designs (implemented as a
//! new FN F_pass) to defend against this attack. ... F_pass can be enabled
//! on the fly upon detecting content poisoning attacks."
//!
//! Three phases on one caching router:
//! 1. no defense — the combined FIB+PIT packet seeds the cache, and honest
//!    consumers are served the bogus bytes;
//! 2. F_pass policy — caching requires a verified source label, so the
//!    attack packet forwards but never enters the cache;
//! 3. forged label — an attacker guessing labels is dropped outright.

use dip_core::{DipRouter, Verdict};
use dip_fnops::ops::pass::{issue_label, PASS_FIELD_BITS};
use dip_fnops::{DropReason, RouteStore};
use dip_tables::fib::NextHop;
use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

const N_NAMES: usize = 64;

fn victim_name(i: usize) -> Name {
    Name::parse(&format!("/victim/content{i}"))
}

/// The §2.4 attack packet: F_FIB creates the PIT entry, F_PIT immediately
/// consumes it, caching the attacker's payload.
fn attack_packet(name: &Name) -> Vec<u8> {
    DipRepr {
        fns: vec![FnTriple::router(0, 32, FnKey::Fib), FnTriple::router(0, 32, FnKey::Pit)],
        locations: name.compact32().to_be_bytes().to_vec(),
        ..Default::default()
    }
    .to_bytes(b"BOGUS CONTENT FROM ATTACKER")
    .unwrap()
}

/// The same attack with a forged (random-guess) source label prepended.
fn attack_packet_forged_label(name: &Name) -> Vec<u8> {
    let mut locations = name.compact32().to_be_bytes().to_vec();
    locations.extend_from_slice(&[0xEEu8; 32]); // source id + bogus label
    DipRepr {
        fns: vec![
            FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass),
            FnTriple::router(0, 32, FnKey::Fib),
            FnTriple::router(0, 32, FnKey::Pit),
        ],
        locations,
        ..Default::default()
    }
    .to_bytes(b"BOGUS CONTENT FROM ATTACKER")
    .unwrap()
}

/// A legitimate producer's data packet with a valid AS-issued label.
fn legit_data(name: &Name, as_secret: &[u8; 16]) -> Vec<u8> {
    let source_id = [0x0Au8; 16];
    let mut locations = name.compact32().to_be_bytes().to_vec();
    locations.extend_from_slice(&source_id);
    locations.extend_from_slice(&issue_label(as_secret, &source_id));
    DipRepr {
        fns: vec![
            FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass),
            FnTriple::router(0, 32, FnKey::Pit),
        ],
        locations,
        ..Default::default()
    }
    .to_bytes(b"genuine content")
    .unwrap()
}

fn fresh_router(defended: bool) -> DipRouter {
    let mut r = DipRouter::new(1, [0x11; 16]);
    r.state_mut().enable_content_store(256);
    r.state_mut().require_pass_for_cache = defended;
    let mut routes = RouteStore::new();
    for i in 0..N_NAMES {
        routes.insert_name(&victim_name(i), NextHop::port(9));
    }
    r.state_mut().routes = routes.rebuild();
    r
}

/// Runs the attack volley, then measures how many honest interests get a
/// poisoned cache answer. Returns (cached_bogus, poisoned_responses,
/// attack_drops).
fn run_phase(router: &mut DipRouter, forged_label: bool) -> (usize, usize, usize) {
    let mut attack_drops = 0;
    for i in 0..N_NAMES {
        let name = victim_name(i);
        let mut pkt =
            if forged_label { attack_packet_forged_label(&name) } else { attack_packet(&name) };
        let (verdict, _) = router.process(&mut pkt, 2, 1_000 + i as u64);
        if matches!(verdict, Verdict::Drop(_)) {
            attack_drops += 1;
        }
    }
    let cached_bogus = (0..N_NAMES)
        .filter(|&i| {
            router
                .state()
                .content_store
                .as_ref()
                .unwrap()
                .peek(&victim_name(i).compact32())
                .is_some_and(|d| d.starts_with(b"BOGUS"))
        })
        .count();

    // Honest consumers request every name.
    let mut poisoned = 0;
    for i in 0..N_NAMES {
        let name = victim_name(i);
        let mut interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        let (verdict, _) = router.process(&mut interest, 3, 100_000 + i as u64);
        if let Verdict::RespondCached(data) = verdict {
            if data.starts_with(b"BOGUS") {
                poisoned += 1;
            }
        }
    }
    (cached_bogus, poisoned, attack_drops)
}

fn main() {
    println!("E6 — content poisoning via combined F_FIB+F_PIT (§2.4) — {N_NAMES} names\n");
    println!("{:<34} {:>12} {:>12} {:>12}", "scenario", "bogus cached", "poisoned", "atk dropped");
    println!("{}", "-".repeat(74));

    let mut undefended = fresh_router(false);
    let (cached, poisoned, dropped) = run_phase(&mut undefended, false);
    println!("{:<34} {:>12} {:>12} {:>12}", "no defense", cached, poisoned, dropped);
    assert!(cached == N_NAMES && poisoned == N_NAMES, "attack must succeed undefended");

    let mut defended = fresh_router(true);
    let (cached, poisoned, dropped) = run_phase(&mut defended, false);
    println!("{:<34} {:>12} {:>12} {:>12}", "F_pass cache policy", cached, poisoned, dropped);
    assert!(cached == 0 && poisoned == 0, "policy must block cache pollution");

    let mut strict = fresh_router(true);
    let (cached, poisoned, dropped) = run_phase(&mut strict, true);
    println!("{:<34} {:>12} {:>12} {:>12}", "forged label (defended)", cached, poisoned, dropped);
    assert!(cached == 0 && dropped == N_NAMES, "forged labels must be dropped");

    // Availability: a legitimate producer with a valid label still gets
    // cached under the defense.
    let mut r = fresh_router(true);
    let name = victim_name(0);
    let mut interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    let _ = r.process(&mut interest, 3, 1);
    let as_secret = r.state().as_secret;
    let mut data = legit_data(&name, &as_secret);
    let (verdict, _) = r.process(&mut data, 9, 2);
    let cached_ok = r
        .state()
        .content_store
        .as_ref()
        .unwrap()
        .peek(&name.compact32())
        .is_some_and(|d| **d == *b"genuine content");
    println!();
    println!(
        "legit producer under defense: verdict={:?}, cached={} (availability preserved)",
        match verdict {
            Verdict::Forward(_) => "forwarded",
            Verdict::Drop(DropReason::BadSourceLabel) => "DROPPED?!",
            _ => "other",
        },
        cached_ok
    );
    assert!(cached_ok, "defense must not block legitimate producers");
    println!(
        "\nresult: attack succeeds undefended; F_pass policy blocks it; legit traffic unaffected"
    );
}
