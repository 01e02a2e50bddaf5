//! Differential equivalence harness for the dipopt optimizer.
//!
//! The contract `dip_verify::opt` promises — every rewrite is
//! behavior-preserving — is machine-checked here rather than argued: the
//! same packet sequence runs through two identically constructed routers,
//! one running every program as its identity plan and one running the
//! plans dipopt rewrote, and every observable must match byte-for-byte:
//!
//! * the verdict (including drop reasons and notification contents),
//! * the full packet buffer after processing (header rewrites, tags),
//! * router state (FIB/PIT/content-store effects, via `Debug` plus
//!   explicit PIT/CS entry counts).
//!
//! The harness is used three ways: by the `equivalence` integration suite
//! over the six protocol programs' seeded traces, by unit tests over the
//! optimization corpus, and by the dataplane's `ProgramCache` at admission
//! time in debug builds ([`differential_smoke`]).

use crate::router::DipRouter;
use dip_fnops::FnRegistry;
use dip_tables::{Port, Ticks};
use dip_wire::packet::DipRepr;
use dip_wire::triple::FnTriple;

/// Outcome of a differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Packets compared.
    pub packets: usize,
    /// How many were processed by an actually-rewritten plan (the rest
    /// ran the identity plan on both sides).
    pub optimized_verdicts: usize,
}

fn state_fingerprint(router: &DipRouter) -> String {
    let st = router.state();
    format!("{:?} pit={} cs={:?}", st, st.pit.len(), st.content_store.as_ref().map(|c| c.len()))
}

/// Runs `packets` through `baseline` (identity plans) and `optimized`
/// (dipopt-rewritten plans) and checks byte-identical behavior per packet.
///
/// The two routers must be *identically constructed* — same node id,
/// secrets, tables, registry and config; this function only flips the
/// `optimize` bit on each side. Returns the first divergence as a
/// human-readable error.
pub fn differential_check<I>(
    mut baseline: DipRouter,
    mut optimized: DipRouter,
    packets: I,
) -> Result<EquivReport, String>
where
    I: IntoIterator<Item = (Vec<u8>, Port, Ticks)>,
{
    baseline.config_mut().optimize = false;
    optimized.config_mut().optimize = true;
    let mut report = EquivReport { packets: 0, optimized_verdicts: 0 };
    for (idx, (bytes, in_port, now)) in packets.into_iter().enumerate() {
        let mut a = bytes.clone();
        let mut b = bytes;
        let (va, sa) = baseline.process(&mut a, in_port, now);
        let (vb, sb) = optimized.process(&mut b, in_port, now);
        if va != vb {
            return Err(format!("packet {idx}: verdict diverged: {va:?} vs {vb:?}"));
        }
        if a != b {
            return Err(format!("packet {idx}: buffer bytes diverged after {va:?}"));
        }
        let (fa, fb) = (state_fingerprint(&baseline), state_fingerprint(&optimized));
        if fa != fb {
            return Err(format!("packet {idx}: router state diverged: {fa} vs {fb}"));
        }
        report.packets += 1;
        if sb.fns_executed != sa.fns_executed || sb.cost != sa.cost {
            // The optimized side really took a different plan.
            report.optimized_verdicts += 1;
        }
    }
    Ok(report)
}

/// Admission-time differential smoke: builds a small seeded corpus of
/// packets carrying the given program (random locations and payload, so
/// both malformed-field and live paths are exercised against empty
/// tables) and checks identity-vs-rewritten equivalence with fresh
/// routers sharing `registry`.
///
/// Used by the dataplane's `ProgramCache` under `debug_assertions` as the
/// last line of defense before a rewritten plan is cached.
pub fn differential_smoke(
    triples: &[FnTriple],
    loc_len: usize,
    parallel: bool,
    registry: &FnRegistry,
    seed: u64,
) -> Result<EquivReport, String> {
    let mut rng = dip_crypto::DetRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for i in 0..4u64 {
        let mut locations = vec![0u8; loc_len];
        for b in &mut locations {
            *b = rng.next_u64() as u8;
        }
        let mut repr = DipRepr { fns: triples.to_vec(), locations, ..Default::default() };
        repr.parallel = parallel;
        let payload = vec![rng.next_u64() as u8; 8];
        let bytes = repr
            .to_bytes(&payload)
            .map_err(|e| format!("smoke corpus construction failed: {e:?}"))?;
        packets.push((bytes, 0 as Port, i as Ticks));
    }
    let make = || {
        let mut r = DipRouter::new(0xd1f, [0x42; 16]).with_registry(registry.clone());
        // A content store so CS effects are comparable too.
        r.state_mut().content_store = Some(dip_tables::ContentStore::new(64));
        r
    };
    differential_check(make(), make(), packets)
}
