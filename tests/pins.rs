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

#[test]
fn bench_scenarios_json_carries_its_fields() {
    // Regenerated by `cargo bench -p dip-bench --bench scenarios >
    // BENCH_scenarios.json`, which asserts NDN strictly out-delivers IPv4
    // at every nonzero window.
    let committed = include_str!("../BENCH_scenarios.json");
    for field in [
        r#""bench":"scenario_partition""#,
        r#""window_ns":0"#,
        r#""window_ns":1200000"#,
        r#""ndn_delivery_fraction":"#,
        r#""ipv4_delivery_fraction":"#,
        r#""reconvergence_ns":"#,
        r#""bench":"scenario_fat_tree""#,
        r#""routers":180"#,
        r#""opt_delivery_fraction":"#,
        r#""legacy_v4_delivery_fraction":"#,
        r#""identity_ok":1"#,
        r#""fingerprint":"#,
    ] {
        assert!(committed.contains(field), "BENCH_scenarios.json is missing {field}");
    }
}
