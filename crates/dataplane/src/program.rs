//! The per-worker program cache with static admission.
//!
//! Real traffic is a handful of *programs* (one FN chain per protocol)
//! carried by millions of packets. A worker therefore compiles each
//! distinct program once — registry lookups pinned to `Arc<dyn FieldOp>`s,
//! per-op costs, the §2.2 parallel-plan hazard analysis — and reuses the
//! [`CompiledChain`] for every packet of the batch that carries the same
//! triple-region bytes. The cache key is exactly what
//! [`ParsedPacket::program_bytes`] identifies: the FN triple region plus
//! the locations length and parallel flag.
//!
//! Admission runs `dipcheck` (the [`dip_verify::Checker`]) on first sight
//! of a program: a shard never accepts a chain with error-severity
//! diagnostics — structurally broken programs are refused at the door
//! instead of faulting per packet in the hot loop. The checker uses the
//! worker's own registry as semantics (so custom operation modules lint
//! with their real footprints) and the software resource budget (a
//! software dataplane has no PISA stage limits).
//!
//! Every program compiles through the same [`CompiledChain::compile`] as
//! a bare `DipRouter`. When the worker's [`RouterConfig`] has `optimize`
//! set, admitted programs — never refused ones — also get dipopt's
//! rewrites ([`dip_verify::analyze`]) applied to their plan, [`CacheStats`]
//! counts what was rewritten, and — in debug builds — the rewritten plan
//! must match the identity plan on a seeded differential smoke
//! ([`dip_core::differential_smoke`]) before it is cached.

use dip_core::router::RouterConfig;
use dip_core::{CompiledChain, ParsedPacket};
use dip_fnops::FnRegistry;
use dip_verify::{Checker, FnProgram, ResourceBudget};
use std::collections::HashMap;

/// Whether a worker statically verifies programs before accepting them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Run `dipcheck` on first sight; refuse programs with errors.
    #[default]
    Lint,
    /// Accept everything (byte-exact parity with a bare `DipRouter`).
    Open,
}

/// A compiled, admission-checked program.
#[derive(Debug)]
pub struct CachedProgram {
    /// The resolved chain (valid for the owning worker's registry+config).
    pub chain: CompiledChain,
    /// `false` when `dipcheck` refused the program — the worker drops its
    /// packets without executing.
    pub admitted: bool,
    /// The cache key (program bytes + parallel flag + locations length),
    /// kept on the entry so the batch-local memo and the recent-program
    /// ring can revalidate a candidate index with one `memcmp` instead of
    /// a map probe.
    key: Vec<u8>,
}

/// Cache statistics (amortization evidence for the benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Programs compiled (first sight).
    pub misses: u64,
    /// Programs refused by admission.
    pub rejected: u64,
    /// Programs for which dipopt attached an optimized plan.
    pub programs_optimized: u64,
    /// Chain steps eliminated across optimized programs (dead key writes,
    /// redundant parses).
    pub ops_eliminated: u64,
    /// Adjacent-op fusions applied across optimized programs.
    pub fusions: u64,
    /// Key schedules hoisted to once-per-program across optimized programs.
    pub hoists: u64,
}

/// How many recently resolved programs [`ProgramCache::resolve`] checks in
/// place before it hashes: enough for the traffic that interleaves a few
/// programs packet by packet (DIP-32 beside DIP-128, NDN interests beside
/// data), small enough that a miss costs four short compares.
const RECENT: usize = 4;

/// A per-worker map from program bytes to [`CachedProgram`].
///
/// Entries live in a dense `Vec` addressed by the small indexes
/// [`ProgramCache::resolve`] hands out, so a worker's batch loop can
/// resolve every packet first (phase 1) and execute against `&self`
/// borrows later (phase 2) without re-hashing anything.
pub struct ProgramCache {
    /// Keyed with the standard SipHash: program bytes are chosen by the
    /// sender, so a weaker hash would let traffic pick its collisions.
    entries: HashMap<Vec<u8>, usize>,
    programs: Vec<CachedProgram>,
    checker: Checker,
    admission: Admission,
    registry: FnRegistry,
    config: RouterConfig,
    stats: CacheStats,
    /// Reused key buffer: cache hits allocate nothing.
    scratch: Vec<u8>,
    /// The indexes the last [`RECENT`] map probes resolved to, written
    /// round-robin at `recent_next`. Entries are never evicted today —
    /// when the cache gains eviction, an evicted index must leave this
    /// ring too.
    recent: [Option<usize>; RECENT],
    recent_next: usize,
}

impl ProgramCache {
    /// A cache compiling against `registry`/`config` (the owning worker's
    /// copies) under the given admission policy.
    pub fn new(registry: FnRegistry, config: RouterConfig, admission: Admission) -> Self {
        let checker =
            Checker::new().with_semantics(registry.clone()).with_budget(ResourceBudget::software());
        ProgramCache {
            entries: HashMap::new(),
            programs: Vec::new(),
            checker,
            admission,
            registry,
            config,
            stats: CacheStats::default(),
            scratch: Vec::new(),
            recent: [None; RECENT],
            recent_next: 0,
        }
    }

    /// Resolves `parsed` (from `buf`) to the dense index of its compiled
    /// program, compiling and admission-checking on first sight.
    ///
    /// `memo` is the batch-local fast path: callers pass the index of the
    /// previously resolved program (starting each batch from `None`) and
    /// a run of same-program packets — the common case, since real
    /// traffic is a handful of programs — revalidates with one byte
    /// comparison instead of a map probe per packet. This is where
    /// batching amortizes program resolution per *program run* rather
    /// than per packet. When the memo misses, the programs the last few
    /// probes resolved are compared in place the same way, so traffic
    /// that interleaves a few programs skips the key build and the hash
    /// too; only a program outside that ring probes the map.
    pub fn resolve(
        &mut self,
        parsed: &ParsedPacket,
        buf: &[u8],
        memo: &mut Option<usize>,
    ) -> usize {
        let program_bytes = parsed.program_bytes(buf);
        let memo_idx = *memo;
        for &idx in memo_idx.iter().chain(self.recent.iter().flatten()) {
            if key_matches(&self.programs[idx].key, program_bytes, parsed) {
                self.stats.hits += 1;
                *memo = Some(idx);
                return idx;
            }
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(program_bytes);
        self.scratch.push(u8::from(parsed.parallel));
        self.scratch.extend_from_slice(&(parsed.loc_len as u32).to_be_bytes());
        let idx = match self.entries.get(self.scratch.as_slice()) {
            Some(&idx) => {
                self.stats.hits += 1;
                idx
            }
            None => {
                self.stats.misses += 1;
                let admitted = match self.admission {
                    Admission::Open => true,
                    Admission::Lint => {
                        let program =
                            FnProgram::new(parsed.triples.clone(), parsed.loc_len, parsed.parallel);
                        !self.checker.check(&program).has_errors()
                    }
                };
                if !admitted {
                    self.stats.rejected += 1;
                }
                let optimize = self.config.optimize && admitted;
                let chain = CompiledChain::compile(parsed, &self.registry, &self.config, optimize);
                if let Some(summary) = chain.opt_summary() {
                    self.stats.programs_optimized += 1;
                    self.stats.ops_eliminated += u64::from(summary.ops_eliminated);
                    self.stats.fusions += u64::from(summary.fusions);
                    self.stats.hoists += u64::from(summary.hoists);
                    // Debug-build admission gate: before a rewritten plan
                    // enters the cache, prove it byte-equivalent to the
                    // identity plan on a seeded corpus.
                    #[cfg(debug_assertions)]
                    if let Err(e) = dip_core::differential_smoke(
                        &parsed.triples,
                        parsed.loc_len,
                        parsed.parallel,
                        &self.registry,
                        0xd1f0 + self.stats.misses,
                    ) {
                        panic!("dipopt equivalence smoke failed at admission: {e}");
                    }
                }
                let idx = self.programs.len();
                self.programs.push(CachedProgram { chain, admitted, key: self.scratch.clone() });
                self.entries.insert(self.scratch.clone(), idx);
                idx
            }
        };
        self.recent[self.recent_next] = Some(idx);
        self.recent_next = (self.recent_next + 1) % RECENT;
        *memo = Some(idx);
        idx
    }

    /// The program at a dense index handed out by [`ProgramCache::resolve`].
    pub fn get(&self, idx: usize) -> &CachedProgram {
        &self.programs[idx]
    }

    /// Hit/miss/rejection counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct programs seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no program has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Whether `key` — a cached program's key: program bytes, parallel flag,
/// big-endian locations length — is the key of `parsed`'s program, compared
/// in place without building it.
fn key_matches(key: &[u8], program_bytes: &[u8], parsed: &ParsedPacket) -> bool {
    let n = program_bytes.len();
    key.len() == n + 5
        && key[..n] == *program_bytes
        && key[n] == u8::from(parsed.parallel)
        && key[n + 1..] == (parsed.loc_len as u32).to_be_bytes()
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("programs", &self.entries.len())
            .field("stats", &self.stats)
            .field("admission", &self.admission)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::parse_packet;
    use dip_wire::ipv4::Ipv4Addr;

    fn cache(admission: Admission) -> ProgramCache {
        ProgramCache::new(FnRegistry::standard(), RouterConfig::default(), admission)
    }

    /// Resolves one packet with a fresh memo (no batch-local shortcut).
    fn resolve<'c>(c: &'c mut ProgramCache, buf: &[u8]) -> &'c CachedProgram {
        let idx = c.resolve(&parse_packet(buf).unwrap(), buf, &mut None);
        c.get(idx)
    }

    #[test]
    fn same_program_compiles_once() {
        let mut c = cache(Admission::Lint);
        for i in 0..10u8 {
            let buf = dip_protocols::ip::dip32_packet(
                Ipv4Addr::new(10, 0, 0, i),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[])
            .unwrap();
            assert!(resolve(&mut c, &buf).admitted);
        }
        assert_eq!(c.stats(), CacheStats { hits: 9, misses: 1, ..Default::default() });
        assert_eq!(c.len(), 1, "ten flows, one program");
    }

    #[test]
    fn broken_program_is_refused_once() {
        use dip_wire::packet::DipRepr;
        use dip_wire::triple::{FnKey, FnTriple};
        // F_MAC before F_parm: a data-flow error dipcheck catches.
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(128, 128, FnKey::Parm),
            ],
            locations: vec![0; 68],
            ..Default::default()
        };
        let buf = repr.to_bytes(&[]).unwrap();

        let mut lint = cache(Admission::Lint);
        assert!(!resolve(&mut lint, &buf).admitted);
        assert!(!resolve(&mut lint, &buf).admitted, "cached refusal");
        assert_eq!(
            lint.stats(),
            CacheStats { hits: 1, misses: 1, rejected: 1, ..Default::default() }
        );

        let mut open = cache(Admission::Open);
        assert!(resolve(&mut open, &buf).admitted, "open admission accepts");
    }

    #[test]
    fn memo_short_circuits_same_program_runs() {
        let mut c = cache(Admission::Lint);
        let v4 = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        )
        .to_bytes(&[])
        .unwrap();
        let v6 = dip_protocols::ip::dip128_packet(
            dip_wire::ipv6::Ipv6Addr::new([0xfd, 0, 0, 0, 0, 0, 0, 1]),
            dip_wire::ipv6::Ipv6Addr::new([0xfd, 0, 0, 0, 0, 0, 0, 2]),
            64,
        )
        .to_bytes(&[])
        .unwrap();
        let p4 = parse_packet(&v4).unwrap();
        let p6 = parse_packet(&v6).unwrap();

        let mut memo = None;
        let a = c.resolve(&p4, &v4, &mut memo);
        assert_eq!(memo, Some(a));
        // Same program again: memo revalidates, same index.
        assert_eq!(c.resolve(&p4, &v4, &mut memo), a);
        // Different program: memo mismatch falls back to the map/compile
        // path and repoints the memo.
        let b = c.resolve(&p6, &v6, &mut memo);
        assert_ne!(a, b);
        assert_eq!(memo, Some(b));
        assert_eq!(c.resolve(&p6, &v6, &mut memo), b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2, ..Default::default() });
    }

    #[test]
    fn recently_resolved_programs_match_in_place_without_the_memo() {
        use dip_wire::packet::DipRepr;
        use dip_wire::triple::{FnKey, FnTriple};
        // Five programs that differ only in their locations length.
        let bufs: Vec<Vec<u8>> = (0..5)
            .map(|extra| {
                DipRepr {
                    fns: vec![FnTriple::router(0, 32, FnKey::Match32)],
                    locations: vec![10; 4 + extra],
                    ..Default::default()
                }
                .to_bytes(&[])
                .unwrap()
            })
            .collect();
        let parsed: Vec<ParsedPacket> = bufs.iter().map(|b| parse_packet(b).unwrap()).collect();
        let mut c = cache(Admission::Lint);
        let first: Vec<usize> =
            (0..4).map(|i| c.resolve(&parsed[i], &bufs[i], &mut None)).collect();
        assert_eq!(c.recent, [0, 1, 2, 3].map(Some));
        // Interleaved, each with a fresh memo: every packet is a hit on the
        // ring, which does not move.
        for round in 0..3 {
            for i in [2, 0, 3, 1] {
                assert_eq!(c.resolve(&parsed[i], &bufs[i], &mut None), first[i], "round {round}");
            }
        }
        assert_eq!(c.recent, [0, 1, 2, 3].map(Some));
        assert_eq!(c.stats(), CacheStats { hits: 12, misses: 4, ..Default::default() });
        // A fifth program displaces the oldest slot; the displaced program
        // still resolves to its index through the map, and re-enters.
        let fifth = c.resolve(&parsed[4], &bufs[4], &mut None);
        assert_eq!(c.recent, [Some(fifth), Some(1), Some(2), Some(3)]);
        assert_eq!(c.resolve(&parsed[0], &bufs[0], &mut None), first[0]);
        assert_eq!(c.recent, [Some(fifth), Some(first[0]), Some(2), Some(3)]);
        assert_eq!(c.stats(), CacheStats { hits: 13, misses: 5, ..Default::default() });
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn optimizing_cache_attaches_plans_and_counts_rewrites() {
        use dip_wire::xia::{Dag, DagNode, Xid, XidType};
        let config = RouterConfig { optimize: true, ..Default::default() };
        let mut c = ProgramCache::new(FnRegistry::standard(), config, Admission::Lint);

        // IPv4 chain: Match32 + Source fuse into one stage group.
        let v4 = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        )
        .to_bytes(&[])
        .unwrap();
        let prog = resolve(&mut c, &v4);
        assert!(prog.admitted && prog.chain.opt_summary().is_some());

        // XIA chain: the redundant standalone DAG parse is eliminated.
        let dag = Dag::direct_with_fallback(
            DagNode::sink(XidType::Cid, Xid::derive(b"cid")),
            Xid::derive(b"ad"),
            Xid::derive(b"hid"),
        )
        .unwrap();
        let xia = dip_protocols::xia::packet(&dag, 64).to_bytes(&[]).unwrap();
        let prog = resolve(&mut c, &xia);
        assert!(prog.admitted && prog.chain.opt_summary().is_some());

        let stats = c.stats();
        assert_eq!(stats.programs_optimized, 2);
        assert_eq!(stats.fusions, 1, "ipv4 match+source fuse");
        assert_eq!(stats.ops_eliminated, 1, "xia dag parse eliminated");
    }

    #[test]
    fn parallel_flag_is_part_of_the_key() {
        use dip_wire::packet::DipRepr;
        use dip_wire::triple::{FnKey, FnTriple};
        let base = DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
            ],
            locations: vec![0; 8],
            ..Default::default()
        };
        let seq = base.to_bytes(&[]).unwrap();
        let par = DipRepr { parallel: true, ..base }.to_bytes(&[]).unwrap();
        let mut c = cache(Admission::Lint);
        resolve(&mut c, &seq);
        resolve(&mut c, &par);
        assert_eq!(c.len(), 2, "sequential and parallel variants compile separately");
    }
}
