//! `diplint` integration suite: the linter must reproduce every invariant
//! the old grep gates enforced — verified by seeding each violation into a
//! scratch tree and expecting exit 1 — and must pass the real repository
//! clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The keyword the unsafe-containment rule looks for, assembled so this
/// file (walked for that rule) never contains it as a token.
const UNSAFE: &str = concat!("uns", "afe");

fn diplint(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_diplint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("run diplint")
}

/// A scratch repo skeleton under the system temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("diplint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Scratch { root }
    }

    /// Writes `content` at `rel` (creating parent directories).
    fn file(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
        self
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn expect_violation(scratch: &Scratch, rule: &str) {
    let out = diplint(&scratch.root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "expected exit 1, stdout:\n{stdout}");
    assert!(stdout.contains(rule), "expected rule {rule:?} in output:\n{stdout}");
}

fn expect_clean(scratch: &Scratch) {
    let out = diplint(&scratch.root);
    assert!(out.status.success(), "expected clean, got:\n{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn real_repo_is_clean() {
    let out = diplint(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        out.status.success(),
        "diplint flagged the repository:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn route_snapshot_outside_controlplane_is_flagged() {
    let seeded = format!("fn rogue() {{ let s = {}; }}\n", "RouteSnapshot::default()");
    let s = Scratch::new("snapshot");
    s.file("crates/dataplane/src/worker.rs", &seeded);
    expect_violation(&s, "route-snapshot");

    // The same construction is legitimate inside the control plane.
    let ok = Scratch::new("snapshot-ok");
    ok.file("crates/controlplane/src/compile.rs", &seeded);
    expect_clean(&ok);
}

/// `crates/bench/` is not among the places that may assemble routing
/// state.
#[test]
fn route_snapshot_under_the_retired_bench_crate_is_flagged() {
    let s = Scratch::new("snapshot-bench");
    s.file(
        "crates/bench/src/workload.rs",
        &format!("fn rogue() {{ let s = {}; }}\n", "RouteSnapshot::default()"),
    );
    expect_violation(&s, "route-snapshot");
}

#[test]
fn route_snapshot_literal_and_from_tables_forms_are_flagged() {
    let s = Scratch::new("snapshot-forms");
    s.file("src/main.rs", &format!("let s = {} routes }};\n", "RouteSnapshot {"));
    expect_violation(&s, "route-snapshot");

    let t = Scratch::new("snapshot-from-tables");
    t.file(
        "crates/workload/src/gen.rs",
        &format!("let s = {}(store.rebuild());\n", "RouteSnapshot::from_tables"),
    );
    expect_violation(&t, "route-snapshot");
}

#[test]
fn route_delta_outside_routes_is_flagged() {
    let call = format!("let t = table{}&store, &slots);\n", ".apply_delta(");
    let s = Scratch::new("delta-call");
    s.file("crates/dataplane/src/worker.rs", &call);
    expect_violation(&s, "route-delta");

    let def = format!("pub {}(&self) -> Self {{ self.clone() }}\n", "fn build_from");
    let d = Scratch::new("delta-def");
    d.file("crates/controlplane/src/tables.rs", &def);
    expect_violation(&d, "route-delta");

    // Both forms are legitimate inside the routes crate.
    let ok = Scratch::new("delta-ok");
    ok.file("crates/routes/src/lpm.rs", &format!("{call}{def}"));
    expect_clean(&ok);
}

#[test]
fn link_admin_outside_sim_and_scenario_is_flagged() {
    let immediate = format!("fn cut(net: &mut Network) {{ net{}r, 0); }}\n", ".link_down(");
    let s = Scratch::new("linkadmin");
    s.file("crates/bench/src/fault.rs", &immediate);
    expect_violation(&s, "link-admin");

    let scheduled = format!("net{}40_000, r, 0);\n", ".schedule_link_up(");
    let t = Scratch::new("linkadmin-sched");
    t.file("src/bin/breaker.rs", &scheduled);
    expect_violation(&t, "link-admin");

    // The simulator owns link state; the scenario crate scripts it.
    let sim = Scratch::new("linkadmin-sim-ok");
    sim.file("crates/sim/src/engine.rs", &immediate);
    expect_clean(&sim);
    let scn = Scratch::new("linkadmin-scenario-ok");
    scn.file("crates/scenario/src/run.rs", &format!("{immediate}{scheduled}"));
    expect_clean(&scn);
}

#[test]
fn quantile_outside_telemetry_is_flagged() {
    let seeded = format!("pub {}(&self, q: f64) -> u64 {{ 0 }}\n", "fn quantile");
    let s = Scratch::new("quantile");
    s.file("crates/bench/src/stats.rs", &seeded);
    expect_violation(&s, "quantile");

    let ok = Scratch::new("quantile-ok");
    ok.file("crates/telemetry/src/hist.rs", &seeded);
    expect_clean(&ok);
}

#[test]
fn drop_reason_outside_telemetry_is_flagged() {
    let seeded = format!("pub {} {{ NoRoute }}\n", "enum DropReason");
    let s = Scratch::new("dropreason");
    s.file("crates/core/src/drops.rs", &seeded);
    expect_violation(&s, "drop-taxonomy");

    let ok = Scratch::new("dropreason-ok");
    ok.file("crates/telemetry/src/drop_reason.rs", &seeded);
    expect_clean(&ok);
}

#[test]
fn unsafe_outside_the_ring_is_flagged() {
    let seeded = format!("{UNSAFE} {{ core::hint::unreachable_unchecked() }}\n");
    let s = Scratch::new("unsafe_outside");
    s.file("crates/core/src/fast.rs", &seeded);
    expect_violation(&s, &format!("{UNSAFE}-containment"));
}

#[test]
fn unjustified_unsafe_in_the_ring_is_flagged() {
    let s = Scratch::new("unsafe_ring");
    s.file(
        "crates/dataplane/src/ring.rs",
        &format!("fn read(&self) {{ {UNSAFE} {{ (*self.cell.get()).take() }} }}\n"),
    );
    expect_violation(&s, &format!("{UNSAFE}-containment"));

    // A SAFETY comment within the window justifies it.
    let ok = Scratch::new("unsafe_ring_ok");
    ok.file(
        "crates/dataplane/src/ring.rs",
        &format!(
            "// SAFETY: single consumer, slot published via Release tail.\nfn read(&self) {{ {UNSAFE} {{ (*self.cell.get()).take() }} }}\n"
        ),
    );
    expect_clean(&ok);
}

#[test]
fn unsafe_in_tests_is_admitted_only_in_the_cost_ratchet() {
    let allocator = format!("{UNSAFE} impl GlobalAlloc for Counting {{}}\n");
    let justified = format!("// SAFETY: forwards to System.\n{allocator}");
    let s = Scratch::new("unsafe_tests");
    s.file("tests/other.rs", &justified);
    expect_violation(&s, &format!("{UNSAFE}-containment"));

    let bare = Scratch::new("unsafe_ratchet_bare");
    bare.file("tests/cost_ratchet.rs", &allocator);
    expect_violation(&bare, &format!("{UNSAFE}-containment"));

    // Justified in the admitted file; and tests/ answers to this rule
    // alone — an integration test may build snapshots.
    let ok = Scratch::new("unsafe_ratchet_ok");
    ok.file("tests/cost_ratchet.rs", &justified);
    ok.file("tests/snapshots.rs", &format!("let s = {}(tables);\n", "RouteSnapshot::from_tables"));
    expect_clean(&ok);
}

#[test]
fn lint_words_inside_comments_and_idents_do_not_trip_the_unsafe_rule() {
    let s = Scratch::new("unsafe_negative");
    s.file(
        "crates/core/src/lib.rs",
        &format!("#![forbid({UNSAFE}_code)]\n// this comment says {UNSAFE} and that is fine\n"),
    );
    expect_clean(&s);
}
