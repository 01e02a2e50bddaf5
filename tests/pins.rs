//! Pins on committed artifacts and shipped binaries that no unit test owns.

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
