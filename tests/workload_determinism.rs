//! Workload determinism: one seed pins everything.
//!
//! A pin on a seeded replay is only meaningful if the replay is exact —
//! same seed ⇒ byte-identical trace (pinned by hash), identical outcome
//! counters, identical modeled prices — for every protocol mix. The
//! Zipf sanity check guards the other failure mode: a generator that
//! silently degrades to uniform popularity would still be deterministic,
//! so determinism alone can't catch it.

use dip::crypto::DetRng;
use dip::workload::{run_open_loop, ArrivalModel, Mix, TrafficClass, WorkloadSpec, Zipf};

fn spec_for(mix: Mix, seed: u64) -> WorkloadSpec {
    WorkloadSpec { seed, mix, table_size: 300, catalog_size: 64, ..Default::default() }
}

#[test]
fn same_seed_same_trace_and_counters_for_every_mix() {
    let mut mixes: Vec<Mix> = TrafficClass::ALL.iter().map(|c| Mix::single(*c)).collect();
    mixes.push(Mix::all());
    for mix in mixes {
        let label = mix.label();
        let spec = spec_for(mix, 99);
        let a = run_open_loop(&spec, 500_000, 300);
        let b = run_open_loop(&spec, 500_000, 300);
        assert_eq!(a.trace_hash, b.trace_hash, "trace bytes for {label}");
        assert_eq!(a.content_hash, b.content_hash, "content for {label}");
        assert_eq!(
            (a.forwarded, a.consumed, a.dropped),
            (b.forwarded, b.consumed, b.dropped),
            "outcome counters for {label}"
        );
        assert_eq!(
            (a.price_p50_ns, a.price_p99_ns, a.price_sum_ns),
            (b.price_p50_ns, b.price_p99_ns, b.price_sum_ns),
            "modeled prices for {label}"
        );
        assert!(a.identity_holds, "identity for {label}: {a:?}");
    }
}

/// The built router's PIT hashes under the router's secret, not the
/// public zero key: after the same inserts it lays out like a table keyed
/// from that secret and unlike one from `Pit::new`.
#[test]
fn build_router_keys_its_pit_under_the_router_secret() {
    use dip::prelude::Pit;
    use dip::tables::TableHasher;
    let spec = WorkloadSpec { pit_preseed: 0, ..spec_for(Mix::all(), 7) };
    let mut router = spec.build_router(0);
    let state = router.state_mut();
    // The layout depends on the key and the inserts, not on the capacity
    // bound or the TTL, while nothing is refused or expires.
    let (capacity, ttl) = (4_096, 1_000_000);
    let fill = |pit: &mut Pit<u32>| {
        for i in 0..64u32 {
            let _ = pit.record_interest(i.wrapping_mul(0x9e37_79b9), 1, u64::from(i), 0);
        }
    };
    let order = |pit: &Pit<u32>| pit.iter().map(|e| *e.name).collect::<Vec<_>>();
    let mut keyed = Pit::with_hasher(capacity, ttl, TableHasher::from_secret(&state.local_secret));
    let mut public = Pit::new(capacity, ttl);
    for pit in [&mut state.pit, &mut keyed, &mut public] {
        fill(pit);
    }
    assert_eq!(order(&state.pit), order(&keyed), "keyed by the router secret");
    assert_ne!(order(&keyed), order(&public), "the public key lays the table out differently");
}

#[test]
fn different_seeds_give_different_traces() {
    let a = spec_for(Mix::all(), 1).generate(500_000, 200);
    let b = spec_for(Mix::all(), 2).generate(500_000, 200);
    assert_ne!(a.hash(), b.hash(), "seeds must matter");
}

#[test]
fn arrival_models_are_deterministic_too() {
    for arrival in [
        ArrivalModel::Uniform,
        ArrivalModel::Poisson,
        ArrivalModel::OnOff { mean_on_ns: 100_000, mean_off_ns: 300_000 },
    ] {
        let spec = WorkloadSpec { arrival, ..spec_for(Mix::single(TrafficClass::Ipv4), 5) };
        assert_eq!(
            spec.generate(1_000_000, 200).hash(),
            spec.generate(1_000_000, 200).hash(),
            "{arrival:?}"
        );
    }
}

#[test]
fn ndn_interest_popularity_tracks_zipf_theory() {
    // Count how often the most popular catalog name appears in a pure-NDN
    // trace by matching the interest header bytes (headers are
    // payload-independent, so every request for a name shares them).
    let spec = WorkloadSpec {
        seed: 13,
        mix: Mix::single(TrafficClass::Ndn),
        catalog_size: 64,
        table_size: 300,
        ..Default::default()
    };
    let n = 4_000;
    let trace = spec.generate(1_000_000, n);
    let top_header = dip::protocols::ndn::interest(&dip::wire::ndn::Name::parse("/wl/cat/0"), 64)
        .to_bytes(&[])
        .unwrap();
    let hits = trace.packets.iter().filter(|p| p.bytes.starts_with(&top_header)).count() as f64;
    let empirical = hits / n as f64;
    let theory = Zipf::new(spec.catalog_size, spec.zipf_s).theoretical_top1();
    let uniform = 1.0 / spec.catalog_size as f64;
    assert!(
        (empirical - theory).abs() < 0.05,
        "top-1 frequency {empirical:.3} must be within 0.05 of theory {theory:.3}"
    );
    assert!(
        empirical > 3.0 * uniform,
        "top-1 frequency {empirical:.3} must far exceed uniform {uniform:.3}"
    );
}

#[test]
fn zipf_model_matches_theory_directly() {
    let zipf = Zipf::new(512, 1.1);
    let mut rng = DetRng::seed_from_u64(17);
    let n = 20_000;
    let top1 = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count() as f64 / n as f64;
    let theory = zipf.theoretical_top1();
    assert!((top1 - theory).abs() < 0.02, "direct Zipf top-1 {top1:.4} vs theory {theory:.4}");
}
