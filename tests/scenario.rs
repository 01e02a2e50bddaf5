//! Scenario-subsystem gates: byte determinism of full scenario runs,
//! the NDN-vs-IPv4 partition divergence, and honest PIT-expiry
//! accounting — all through the real control plane (SPF-built routes,
//! never hand-written FIBs).

use dip::scenario::{partition_sweep, run_scenario, ScenarioSpec};

/// Two runs of the same spec must agree on every counter the report
/// carries — the fingerprint digests all of them.
fn assert_byte_deterministic(spec: &ScenarioSpec) {
    let a = run_scenario(spec);
    let b = run_scenario(spec);
    assert!(a.converged, "{}: control plane must converge", spec.name);
    assert_eq!(a.fingerprint, b.fingerprint, "{}: fingerprint differs", spec.name);
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(pa.start, pb.start);
        assert_eq!(pa.cache_hits, pb.cache_hits, "{}/{}", spec.name, pa.name);
        assert_eq!(pa.link_dropped, pb.link_dropped, "{}/{}", spec.name, pa.name);
        assert_eq!(pa.pit_entries, pb.pit_entries, "{}/{}", spec.name, pa.name);
        assert_eq!(pa.cs_entries, pb.cs_entries, "{}/{}", spec.name, pa.name);
        assert_eq!(pa.drops, pb.drops, "{}/{}", spec.name, pa.name);
        assert_eq!(pa.reconvergence_ns, pb.reconvergence_ns, "{}/{}", spec.name, pa.name);
        for (ta, tb) in pa.traffic.iter().zip(&pb.traffic) {
            assert_eq!(ta.protocol, tb.protocol);
            assert_eq!(ta.injected, tb.injected, "{}/{}/{}", spec.name, pa.name, ta.protocol);
            assert_eq!(ta.delivered, tb.delivered, "{}/{}/{}", spec.name, pa.name, ta.protocol);
        }
    }
    assert_eq!(a.accounted, b.accounted);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.spf_runs, b.spf_runs);
    assert!(a.identity_ok && b.identity_ok, "{}: accounting identity", spec.name);
}

#[test]
fn fat_tree_partition_scenario_is_byte_deterministic() {
    assert_byte_deterministic(&ScenarioSpec::partition(4, 300_000, 12, 7));
}

#[test]
fn as_graph_scenario_is_byte_deterministic() {
    assert_byte_deterministic(&ScenarioSpec::as_graph(24, 2, 4, 300_000, 10, 11));
}

/// The paper's disruption-tolerance divergence: at every nonzero
/// partition window, content-named retrieval (answered by in-network
/// caches) strictly out-delivers host-based IPv4 — and at window zero
/// the two agree at full delivery.
#[test]
fn ndn_out_delivers_ipv4_at_every_nonzero_partition_length() {
    let windows = [0u64, 150_000, 400_000, 700_000];
    for point in partition_sweep(4, &windows, 12, 7) {
        let report = &point.report;
        assert!(report.converged, "window {}", point.window);
        assert!(report.identity_ok, "window {}: identity through the partition", point.window);
        let outage = report.phase("outage").expect("outage phase");
        let ndn = outage.delivery_fraction("ndn").expect("ndn injected");
        let ipv4 = outage.delivery_fraction("ipv4").expect("ipv4 injected");
        if point.window == 0 {
            assert_eq!((ndn, ipv4), (1.0, 1.0), "no partition, no loss");
        } else {
            assert!(
                ndn > ipv4,
                "window {}: NDN must strictly out-deliver IPv4 ({ndn} vs {ipv4})",
                point.window
            );
            assert!(outage.link_dropped > 0, "window {}: the cut must bite", point.window);
        }
    }
}

/// A zero-length window is no partition: the spec string's outage phase
/// reports no window and no reconvergence, as the sweep's window-0 point.
#[test]
fn a_zero_window_partition_spec_opens_no_partition() {
    let spec = ScenarioSpec::parse("partition:k=4,window=0,requests=12,seed=7").unwrap();
    let report = run_scenario(&spec);
    let outage = report.phase("outage").expect("outage phase");
    assert_eq!((outage.partition_window, outage.reconvergence_ns), (None, None));
    assert_eq!(outage.link_dropped, 0);
    let swept = &partition_sweep(4, &[0], 12, 7)[0].report;
    let swept = swept.phase("outage").expect("outage phase");
    assert_eq!((swept.partition_window, swept.reconvergence_ns), (None, None));
}

/// With a PIT TTL shorter than the fat-tree RTT and no content store,
/// every returning data packet finds its PIT entry aged out: the drop
/// taxonomy says `pit_expired` (not a silent disappearance), the
/// eviction counter matches, and the accounting identity still holds.
#[test]
fn aged_out_pit_entries_surface_as_pit_expired_drops() {
    let mut spec = ScenarioSpec::fat_tree(2, 8, 7);
    spec.name = "pit_expiry".into();
    spec.content_store = 0;
    spec.pit_ttl = 1_000; // << the multi-hop interest/data RTT
    spec.phases.truncate(1); // the NDN catalog sweep only
    let report = run_scenario(&spec);
    assert!(report.converged);
    let phase = &report.phases[0];
    assert_eq!(phase.delivered("ndn"), 0, "nothing survives a sub-RTT PIT TTL");
    let expired =
        phase.drops.iter().find(|(reason, _)| reason == "pit_expired").map_or(0, |&(_, n)| n);
    assert!(expired > 0, "returning data must be dropped as pit_expired: {:?}", phase.drops);
    assert!(
        phase.pit_expired_evictions >= expired,
        "every pit_expired drop is a counted eviction ({} < {expired})",
        phase.pit_expired_evictions
    );
    assert!(report.identity_ok, "identity holds under mass PIT expiry");
}
