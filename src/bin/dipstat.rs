//! `dipstat` — per-program dipopt facts and rewrites, as JSON lines.
//!
//! Runs the abstract-interpretation optimizer (`dip_verify::opt`) over the
//! six protocol programs the repo ships (DIP-32, DIP-128, NDN, OPT, XIA,
//! NDN+OPT) — or over any subset — and prints one JSON object per program:
//! the per-hop declared effects and folded operands, every rewrite the
//! optimizer proved safe, and every opportunity it declined with the
//! reason. This is the human-readable face of the `ProgramFacts` artifact
//! the dataplane consumes.
//!
//! ```text
//! usage: dipstat [--protocol NAME|all] [--hops]
//!
//!   --protocol NAME   ipv4 | ipv6 | ndn | opt | xia | ndn_opt | all
//!                     (default: all)
//!   --hops            include the per-hop facts array (larger output)
//! ```

use dip::prelude::*;
use dip::verify::{analyze, AbstractVal, Bail, BailReason, ProgramFacts, Rewrite};
use dip_fnops::{Effects, OpCost, Resource, Resources};
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;

fn programs() -> Vec<(&'static str, DipRepr)> {
    let name = Name::parse("hotnets.org");
    let session = OptSession::establish([0xaa; 16], &[0xbb; 16], &[[1; 16], [2; 16]]);
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"dipstat-content")),
        Xid::derive(b"dipstat-ad"),
        Xid::derive(b"dipstat-hid"),
    )
    .expect("static dag");
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
        ("xia", dip::protocols::xia::packet(&dag, 64)),
        ("ndn_opt", dip::protocols::ndn_opt::data(&session, &name, b"content", 7, 64)),
    ]
}

fn key_name(key: FnKey) -> String {
    format!("{key:?}").to_lowercase()
}

fn cost_json(c: OpCost) -> String {
    format!(
        "{{\"stages\":{},\"table_lookups\":{},\"cipher_blocks\":{},\"resubmits\":{}}}",
        c.stages, c.table_lookups, c.cipher_blocks, c.resubmits
    )
}

fn aval_json(v: &AbstractVal) -> String {
    match v {
        AbstractVal::Unknown => "{\"kind\":\"unknown\"}".to_string(),
        AbstractVal::Const(x) => format!("{{\"kind\":\"const\",\"value\":{x}}}"),
        AbstractVal::Interval { lo, hi } => {
            format!("{{\"kind\":\"interval\",\"lo\":{lo},\"hi\":{hi}}}")
        }
    }
}

fn rewrite_json(r: &Rewrite) -> String {
    match r {
        Rewrite::EliminateRedundantParse { parse, into, fused_model } => format!(
            "{{\"rewrite\":\"eliminate_redundant_parse\",\"parse\":{parse},\"into\":{into},\"fused_model\":{}}}",
            cost_json(*fused_model)
        ),
        Rewrite::EliminateDeadKeyWrite { index } => {
            format!("{{\"rewrite\":\"eliminate_dead_key_write\",\"index\":{index}}}")
        }
        Rewrite::FuseAdjacent { first, second } => {
            format!("{{\"rewrite\":\"fuse_adjacent\",\"first\":{first},\"second\":{second}}}")
        }
        Rewrite::HoistKeySchedule { index, hoisted_model } => format!(
            "{{\"rewrite\":\"hoist_key_schedule\",\"index\":{index},\"hoisted_model\":{}}}",
            cost_json(*hoisted_model)
        ),
    }
}

fn bail_json(b: &Bail) -> String {
    let reason = match b.reason {
        BailReason::ParallelProgram => "parallel_program".to_string(),
        BailReason::UninstalledKey(k) => format!("uninstalled_key:{}", key_name(k)),
        BailReason::SpanMismatch => "span_mismatch".to_string(),
        BailReason::NotAdjacent => "not_adjacent".to_string(),
        BailReason::AliasingWrites => "aliasing_writes".to_string(),
        BailReason::OrderDependentWrites => "order_dependent_writes".to_string(),
        BailReason::KeyDependency => "key_dependency".to_string(),
        BailReason::SharedState(r) => format!("shared_state:{}", format!("{r:?}").to_lowercase()),
    };
    let hop = |h: Option<usize>| h.map_or("null".to_string(), |i| i.to_string());
    format!("{{\"first\":{},\"second\":{},\"reason\":\"{reason}\"}}", hop(b.first), hop(b.second))
}

fn facts_json(name: &str, facts: &ProgramFacts, with_hops: bool) -> String {
    let rewrites: Vec<String> = facts.rewrites.iter().map(rewrite_json).collect();
    let bails: Vec<String> = facts.bails.iter().map(bail_json).collect();
    let mut line = format!(
        "{{\"program\":\"{name}\",\"hops\":{},\"optimizes\":{},\"ops_eliminated\":{},\"fusions\":{},\"hoists\":{},\"rewrites\":[{}],\"bails\":[{}]",
        facts.hops.len(),
        facts.optimizes(),
        facts.ops_eliminated(),
        facts.fusions(),
        facts.hoists(),
        rewrites.join(","),
        bails.join(","),
    );
    if with_hops {
        let hops: Vec<String> = facts
            .hops
            .iter()
            .map(|h| {
                let e = h.effects;
                let write = e
                    .and_then(|e| e.write)
                    .map_or("null".to_string(), |(a, b)| format!("[{a},{b}]"));
                let key = |rs: fn(&Effects) -> Resources| {
                    e.is_some_and(|e| rs(&e).contains(Resource::DynamicKey))
                };
                format!(
                    "{{\"index\":{},\"key\":\"{}\",\"host\":{},\"installed\":{},\"read_bits\":[{},{}],\"write_bits\":{write},\"reads_key\":{},\"writes_key\":{},\"model\":{},\"field_loc\":{},\"field_len\":{},\"field_value\":{},\"dag_nodes\":{},\"cipher_blocks\":{}}}",
                    h.index,
                    key_name(h.key),
                    h.host,
                    h.installed,
                    h.field_loc.as_const().unwrap_or(0),
                    h.field_loc.as_const().unwrap_or(0) + h.field_len.as_const().unwrap_or(0),
                    key(|e| e.reads),
                    key(|e| e.writes),
                    cost_json(e.map_or(OpCost::default(), |e| e.cost)),
                    aval_json(&h.field_loc),
                    aval_json(&h.field_len),
                    aval_json(&h.field_value),
                    aval_json(&h.dag_nodes),
                    aval_json(&h.cipher_blocks),
                )
            })
            .collect();
        line.push_str(&format!(",\"hop_facts\":[{}]", hops.join(",")));
    }
    line.push('}');
    line
}

fn usage() -> ! {
    eprintln!("usage: dipstat [--protocol NAME|all] [--hops]");
    eprintln!("  --protocol NAME   ipv4 | ipv6 | ndn | opt | xia | ndn_opt | all");
    eprintln!("  --hops            include per-hop facts");
    std::process::exit(2);
}

fn main() {
    let mut protocol = "all".to_string();
    let mut with_hops = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--protocol" => protocol = value("--protocol"),
            "--hops" => with_hops = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let registry = FnRegistry::standard();
    let mut printed = 0usize;
    for (name, repr) in programs() {
        if protocol != "all" && protocol != name {
            continue;
        }
        let facts = analyze(&FnProgram::from_repr(&repr), &registry);
        println!("{}", facts_json(name, &facts, with_hops));
        printed += 1;
    }
    if printed == 0 {
        eprintln!("dipstat: unknown protocol {protocol:?}");
        usage();
    }
}

fn usage_missing(name: &str) -> ! {
    eprintln!("dipstat: {name} requires a value");
    usage();
}
