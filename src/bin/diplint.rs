//! `diplint` — the repo-invariant linter.
//!
//! Replaces the fragile grep gates `scripts/check.sh` used to carry with a
//! self-contained binary that walks `crates/` and `src/` under `--root`
//! and enforces the architectural invariants the test-suite depends on
//! (the workspace's `tests/` are walked for rule 4 alone):
//!
//! 1. **route-snapshot** — `RouteSnapshot` values are constructed only by
//!    the control plane (and its definition/plumbing/churn sites). The
//!    dataplane consumes whole snapshots via epoch swap; it never
//!    assembles routing state.
//! 2. **quantile** — latency-quantile estimation is implemented once, in
//!    `crates/telemetry` (linear interpolation inside log-spaced
//!    buckets); drivers and tests read quantiles, never re-derive them.
//! 3. **drop-taxonomy** — the `DropReason` enum is defined only in
//!    `crates/telemetry`; every other crate imports it, so drop
//!    accounting stays one taxonomy.
//! 4. **unsafe-containment** — `unsafe` code appears only in the Lamport
//!    ring (`crates/dataplane/src/ring.rs`), in the AES-NI kernel
//!    (`crates/crypto/src/ni.rs`: its calls into
//!    `#[target_feature(enable = "aes")]` functions, each resting on the
//!    run-time CPU check) and in the per-thread counting allocator of the
//!    allocation-ceiling test (`tests/cost_ratchet.rs`), and every
//!    occurrence there must be justified by a `SAFETY` invariant comment
//!    within the eight preceding lines.
//! 5. **route-delta** — compressed-table construction (`build_from`) and
//!    incremental delta application (`apply_delta`) live only in
//!    `crates/routes`. Everything else goes through `RouteStore`'s
//!    `rebuild`/`commit` API, so there is exactly one implementation of
//!    the copy-on-write table algebra to verify against the oracle.
//! 6. **link-admin** — administrative link state (`link_down`/`link_up`
//!    and their scheduled variants) is touched only by the simulator
//!    that owns it (`crates/sim`) and the scenario crate that scripts
//!    it (`crates/scenario`). Tests and drivers stage outages through
//!    `dip_scenario`'s `sever_link`/`restore_link`/`schedule_outage`
//!    wrappers, so every disruption a measurement reports went through
//!    the one scripted path.
//!
//! Violations print as `path:line: rule: text` and the process exits 1.
//!
//! ```text
//! usage: diplint [--root DIR]
//! ```

use std::fs;
use std::path::{Path, PathBuf};

// The needles are assembled with `concat!` so diplint's own source (which
// lives under `src/` and is therefore scanned) never matches its own
// patterns.
const ROUTE_SNAPSHOT_NEEDLES: [&str; 3] = [
    concat!("RouteSnapshot", "::default()"),
    concat!("RouteSnapshot", "::from_tables"),
    concat!("RouteSnapshot", " {"),
];
const ROUTE_DELTA_NEEDLES: [&str; 6] = [
    concat!("fn ", "apply_delta"),
    concat!(".", "apply_delta("),
    concat!("::", "apply_delta"),
    concat!("fn ", "build_from"),
    concat!(".", "build_from("),
    concat!("::", "build_from"),
];
const LINK_ADMIN_NEEDLES: [&str; 4] = [
    concat!(".", "link_down("),
    concat!(".", "link_up("),
    concat!(".", "schedule_link_down("),
    concat!(".", "schedule_link_up("),
];
const QUANTILE_NEEDLE: &str = concat!("fn ", "quantile");
const DROP_REASON_NEEDLE: &str = concat!("enum ", "DropReason");
const UNSAFE_TOKEN: &str = concat!("uns", "afe");
const UNSAFE_RULE: &str = concat!("uns", "afe-containment");
/// How many lines above an `unsafe` occurrence may carry its invariant
/// justification (a SAFETY block may cover a couple of adjacent impls).
const SAFETY_WINDOW: usize = 8;
/// The only files allowed `unsafe` code, each occurrence justified.
const UNSAFE_ADMITTED: [&str; 3] =
    ["crates/dataplane/src/ring.rs", "crates/crypto/src/ni.rs", "tests/cost_ratchet.rs"];

/// One rule violation: file, 1-based line, rule name, offending text.
struct Violation {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    text: String,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `line` contains `token` as a standalone identifier (not as a
/// fragment of a longer identifier such as a lint name), ignoring
/// everything after a `//` comment marker.
fn has_token(line: &str, token: &str) -> bool {
    let code = line.split("//").next().unwrap_or(line);
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after_ok = code[at + token.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

/// The places allowed to construct `RouteSnapshot` values: the control
/// plane itself, the definition site, the epoch-cell plumbing (and its
/// tests), and the churn generator (which *is* a synthetic control plane
/// — it publishes tables-only snapshots under test load).
fn route_snapshot_allowed(rel: &str) -> bool {
    rel.starts_with("crates/controlplane/")
        || rel == "crates/dataplane/src/snapshot.rs"
        || rel == "crates/dataplane/src/runtime.rs"
        || rel == "crates/workload/src/churn.rs"
}

/// Which rules a walked tree is held to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every rule (`crates/`, `src/`).
    All,
    /// Unsafe containment only (`tests/`: integration tests legitimately
    /// build snapshots, stage link outages and so on).
    UnsafeOnly,
}

fn lint_file(root: &Path, path: &Path, scope: Scope, violations: &mut Vec<Violation>) {
    let Ok(content) = fs::read_to_string(path) else {
        return;
    };
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/");
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let mut report = |rule: &'static str| {
            violations.push(Violation {
                path: path.to_path_buf(),
                line: i + 1,
                rule,
                text: line.trim().to_string(),
            });
        };
        if has_token(line, UNSAFE_TOKEN) {
            let justified =
                lines[i.saturating_sub(SAFETY_WINDOW)..=i].iter().any(|l| l.contains("SAFETY"));
            if !UNSAFE_ADMITTED.contains(&rel.as_str()) || !justified {
                report(UNSAFE_RULE);
            }
        }
        if scope == Scope::UnsafeOnly {
            continue;
        }
        if !route_snapshot_allowed(&rel) && ROUTE_SNAPSHOT_NEEDLES.iter().any(|n| line.contains(n))
        {
            report("route-snapshot");
        }
        if !rel.starts_with("crates/routes/")
            && ROUTE_DELTA_NEEDLES.iter().any(|n| line.contains(n))
        {
            report("route-delta");
        }
        if !rel.starts_with("crates/sim/")
            && !rel.starts_with("crates/scenario/")
            && LINK_ADMIN_NEEDLES.iter().any(|n| line.contains(n))
        {
            report("link-admin");
        }
        if !rel.starts_with("crates/telemetry/") {
            if line.contains(QUANTILE_NEEDLE) {
                report("quantile");
            }
            if line.contains(DROP_REASON_NEEDLE) {
                report("drop-taxonomy");
            }
        }
    }
}

fn walk(root: &Path, dir: &Path, scope: Scope, violations: &mut Vec<Violation>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(root, &path, scope, violations);
        } else if path.extension().is_some_and(|e| e == "rs") {
            lint_file(root, &path, scope, violations);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: diplint [--root DIR]");
    std::process::exit(2);
}

fn main() {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let mut violations = Vec::new();
    for (top, scope) in [("crates", Scope::All), ("src", Scope::All), ("tests", Scope::UnsafeOnly)]
    {
        walk(&root, &root.join(top), scope, &mut violations);
    }
    if violations.is_empty() {
        println!("diplint: all invariants hold");
        return;
    }
    for v in &violations {
        println!("{}:{}: {}: {}", v.path.display(), v.line, v.rule, v.text);
    }
    eprintln!("diplint: {} violation(s)", violations.len());
    std::process::exit(1);
}
