//! Pins on committed artifacts, shipped binaries and the documented
//! scenario spec that no unit test owns.

use std::process::Command;

#[test]
fn dipstat_reports_all_six_programs_and_the_xia_parse_elimination() {
    let out = Command::new(env!("CARGO_BIN_EXE_dipstat")).output().expect("run dipstat");
    assert!(out.status.success(), "dipstat failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("dipstat prints UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one JSON line per shipped program:\n{stdout}");
    let xia = lines.iter().find(|l| l.contains(r#""program":"xia""#)).expect("an xia line");
    assert!(xia.contains("eliminate_redundant_parse"), "dipstat lost the XIA rewrite: {xia}");
}

#[test]
fn small_fat_tree_partition_scenario_reports_its_fields() {
    // The spec `dipload --scenario` documents, run through the same engine.
    let spec = dip::scenario::ScenarioSpec::parse("partition:k=4,window=200000,requests=12,seed=7")
        .expect("the documented spec parses");
    let json = dip::scenario::run_scenario(&spec).to_json();
    for field in [
        r#""scenario":"partition_k4_w200000""#,
        r#""topology":"fat_tree(k=4)""#,
        r#""converged":true"#,
        r#""name":"outage""#,
        r#""partition_window_ns":200000"#,
        r#""protocol":"ndn""#,
        r#""delivery_fraction":"#,
        r#""reconvergence_ns":"#,
        r#""identity_ok":true"#,
        r#""fingerprint":"#,
    ] {
        assert!(json.contains(field), "the scenario report is missing {field}:\n{json}");
    }
}

/// The delivery fraction `protocol` reached in `phase` of one scenario
/// report line (`ScenarioReport::to_json`'s field names).
fn delivery_fraction(report: &str, phase: &str, protocol: &str) -> f64 {
    let phase_at = report.find(&format!(r#""name":"{phase}""#)).expect("the phase is reported");
    let rest = &report[phase_at..];
    let entry = rest.find(&format!(r#"{{"protocol":"{protocol}","#)).expect("the protocol ran");
    let field = r#""delivery_fraction":"#;
    let value = &rest[entry..][rest[entry..].find(field).expect("a fraction") + field.len()..];
    value[..value.find('}').expect("the entry closes")].parse().expect("a number")
}

#[test]
fn bench_scenarios_json_carries_its_fields() {
    // Regenerated by `dipload --scenario` over the partition sweep and the
    // 180-router fat-tree (README "Reproducing the paper").
    let committed = include_str!("../BENCH_scenarios.json");
    let lines: Vec<&str> = committed.lines().collect();
    assert_eq!(lines.len(), 6, "five partition windows and one fat-tree report");
    for line in &lines {
        for field in [r#""converged":true"#, r#""identity_ok":true"#, r#""fingerprint":""#] {
            assert!(line.contains(field), "a report is missing {field}:\n{line}");
        }
    }
    for (line, window) in lines.iter().zip([0u64, 200_000, 400_000, 800_000, 1_200_000]) {
        assert!(line.contains(&format!(r#""scenario":"partition_k4_w{window}""#)), "{line}");
        let ndn = delivery_fraction(line, "outage", "ndn");
        let ipv4 = delivery_fraction(line, "outage", "ipv4");
        if window == 0 {
            // A zero window opens no partition: none of the three phases
            // reports a window or a reconvergence.
            let nulls = |field: &str| line.matches(&format!(r#""{field}":null"#)).count();
            assert_eq!((nulls("partition_window_ns"), nulls("reconvergence_ns")), (3, 3), "{line}");
            assert_eq!((ndn, ipv4), (1.0, 1.0), "no partition, no loss");
        } else {
            assert!(line.contains(&format!(r#""partition_window_ns":{window}"#)), "{line}");
            assert!(ndn > ipv4, "window {window}: NDN must out-deliver IPv4 ({ndn} vs {ipv4})");
        }
    }
    let fat_tree = lines[5];
    assert!(fat_tree.contains(r#""scenario":"fat_tree_k12""#), "{fat_tree}");
    assert!(fat_tree.contains(r#""routers":180"#), "{fat_tree}");
    for protocol in ["ipv4", "ipv6", "ndn", "opt", "xia", "legacy_v4"] {
        assert_eq!(delivery_fraction(fat_tree, "steady", protocol), 1.0, "{protocol}");
    }
}

/// The seeded traces priced by the PISA model, per class: seed 7, 512
/// packets at 1 Mpps through the router `WorkloadSpec::build_router`
/// seeds. Pins the trace bytes and timestamps (`trace_hash`), the packets
/// alone (`content_hash`), every verdict count, and the p50 / p99 / sum of
/// `TofinoModel::process_ns` at the MAC the router runs. A change to trace
/// generation, to an op's `OpCost` or to the model's constants moves a
/// value here.
#[test]
fn seeded_traces_and_their_pisa_prices_are_pinned() {
    use dip::workload::{run_open_loop, Mix, TrafficClass, WorkloadSpec};
    // (class, trace_hash, content_hash, [forwarded, consumed, dropped],
    //  [price p50, price p99, price sum] in ns)
    type Pin = (&'static str, u64, u64, [u64; 3], [u64; 3]);
    let pins: [Pin; 6] = [
        ("ipv4", 0xc90f_4191_7ba6_364e, 0xb2bd_d29d_b717_6461, [512, 0, 0], [445, 450, 228_864]),
        ("ipv6", 0x00e1_94a5_095d_eef3, 0xbd29_71da_2caf_3e6c, [512, 0, 0], [465, 470, 237_568]),
        ("ndn", 0xaa8d_1e63_55ef_feee, 0xe735_b56b_05a6_bf5d, [163, 349, 0], [475, 480, 241_152]),
        ("opt", 0x45c0_0fb9_d316_06d9, 0x663a_045e_8737_67a6, [512, 0, 0], [834, 843, 425_984]),
        ("xia", 0xeb80_8c13_a2c4_cbfb, 0x0c6a_e0ff_20c6_d8e0, [512, 0, 0], [475, 480, 244_736]),
        ("ndn_opt", 0x987b_fc7b_bb36_9c37, 0xa177_9b25_e925_1274, [512, 0, 0], [852, 861, 439_296]),
    ];
    for (label, trace_hash, content_hash, verdicts, prices) in pins {
        let class = TrafficClass::parse(label).expect("a class label");
        let spec = WorkloadSpec { seed: 7, mix: Mix::single(class), ..Default::default() };
        let r = run_open_loop(&spec, 1_000_000, 512);
        assert!(r.identity_holds, "{label}: accounting identity: {r:?}");
        assert_eq!((r.trace_hash, r.content_hash), (trace_hash, content_hash), "{label}: trace");
        assert_eq!([r.forwarded, r.consumed, r.dropped], verdicts, "{label}: verdicts");
        assert_eq!(
            [r.price_p50_ns, r.price_p99_ns, r.price_sum_ns],
            prices,
            "{label}: PISA prices"
        );
    }
}
