//! Experiment E9 — §2.4's state/processing exhaustion defenses.
//!
//! Two attacks, two hard limits:
//!
//! 1. **Interest flooding vs. the PIT budget** — an attacker floods
//!    distinct-name interests; the PIT capacity bound caps the state while
//!    entry expiry restores service to honest clients.
//! 2. **FN-chain bombs vs. the processing budget** — a packet stuffed with
//!    MAC operations is cut off by the per-packet cost meter instead of
//!    monopolizing the pipeline.

use dip_core::budget::ProcessingBudget;
use dip_core::{DipRouter, Verdict};
use dip_fnops::{DropReason, RouteStore};
use dip_tables::fib::NextHop;
use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

const PIT_CAPACITY: usize = 1_000;
const PIT_TTL: u64 = 1_000_000; // 1 ms of virtual time
const FLOOD: usize = 5_000;

fn main() {
    interest_flood();
    println!();
    fn_chain_bomb();
}

fn interest_flood() {
    println!("E9a — interest flood vs PIT budget (capacity {PIT_CAPACITY}, ttl {PIT_TTL} ns)\n");
    let mut r = DipRouter::new(1, [1; 16]);
    r.state_mut().pit = dip_tables::Pit::new(PIT_CAPACITY, PIT_TTL);
    let mut routes = RouteStore::new();
    routes.insert_name(&Name::parse("/attack"), NextHop::port(9));
    routes.insert_name(&Name::parse("/honest"), NextHop::port(9));
    r.state_mut().routes = routes.rebuild();

    // Attacker: FLOOD distinct full-name interests under /attack.
    let mut accepted = 0;
    let mut rejected = 0;
    for i in 0..FLOOD {
        let name = Name::parse(&format!("/attack/{i}"));
        let mut pkt = dip_protocols::ndn::interest_full(&name, 64).unwrap().to_bytes(&[]).unwrap();
        let (verdict, _) = r.process(&mut pkt, 2, i as u64);
        match verdict {
            Verdict::Forward(_) => accepted += 1,
            Verdict::Drop(DropReason::StateBudgetExhausted) => rejected += 1,
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    println!("  attacker interests accepted : {accepted}");
    println!("  attacker interests rejected : {rejected} (state budget)");
    println!("  PIT occupancy               : {} / {}", r.state().pit.len(), PIT_CAPACITY);
    assert_eq!(accepted, PIT_CAPACITY);
    assert_eq!(rejected, FLOOD - PIT_CAPACITY);

    // Honest client during the flood: rejected (the cost of the attack)...
    let honest = Name::parse("/honest/page");
    let mut pkt = dip_protocols::ndn::interest_full(&honest, 64).unwrap().to_bytes(&[]).unwrap();
    let (during, _) = r.process(&mut pkt, 3, FLOOD as u64);
    println!("  honest interest during flood: {during:?}");

    // ...but after TTL expiry the state self-heals.
    let after_expiry = 2 * PIT_TTL;
    r.state_mut().pit.expire(after_expiry);
    let mut pkt2 = dip_protocols::ndn::interest_full(&honest, 64).unwrap().to_bytes(&[]).unwrap();
    let (after, _) = r.process(&mut pkt2, 3, after_expiry);
    println!("  honest interest after expiry: {after:?}");
    assert!(matches!(after, Verdict::Forward(_)));
    println!("  -> the budget bounds attacker state; expiry restores service");
}

fn fn_chain_bomb() {
    println!("E9b — FN-chain bomb vs processing budget\n");
    // A packet with 30 MAC operations over the same field.
    let mut fns = vec![FnTriple::router(16 * 8, 128, FnKey::Parm)];
    for _ in 0..30 {
        fns.push(FnTriple::router(0, 416, FnKey::Mac));
    }
    let bomb = DipRepr { fns, locations: vec![0u8; 68], ..Default::default() };

    let mut limited = DipRouter::new(1, [1; 16]);
    limited.config_mut().default_port = Some(1);
    let mut pkt = bomb.to_bytes(&[]).unwrap();
    let (verdict, stats) = limited.process(&mut pkt, 0, 0);
    println!("  default budget : verdict {:?}", verdict);
    println!(
        "                   executed {} FNs, {} cipher blocks",
        stats.fns_executed, stats.cost.cipher_blocks
    );
    assert_eq!(verdict, Verdict::Drop(DropReason::ProcessingBudgetExceeded));

    let mut unlimited = DipRouter::new(2, [1; 16]);
    unlimited.config_mut().default_port = Some(1);
    unlimited.config_mut().budget = ProcessingBudget::unlimited();
    let mut pkt2 = bomb.to_bytes(&[]).unwrap();
    let (verdict2, stats2) = unlimited.process(&mut pkt2, 0, 0);
    println!(
        "  no budget      : verdict {:?} after {} FNs, {} cipher blocks",
        match verdict2 {
            Verdict::Forward(_) => "Forward",
            _ => "other",
        },
        stats2.fns_executed,
        stats2.cost.cipher_blocks
    );
    println!(
        "  -> the budget cuts the bomb off at {}x fewer cipher blocks",
        stats2.cost.cipher_blocks / stats.cost.cipher_blocks.max(1)
    );
}
