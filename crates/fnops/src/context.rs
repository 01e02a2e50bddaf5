//! Router state, per-packet context, and the action/verdict types.

use dip_crypto::Block;
use dip_routes::RouteTables;
use dip_tables::fib::NextHop;
use dip_tables::{
    ContentStore, Ipv4Fib, Ipv6Fib, NameFib, Pit, Port, Ticks, XiaNextHop, XiaRouteTable,
};
use dip_telemetry::Counter;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::xia::{Dag, Xid, XidType};
use std::sync::Arc;

/// Which block cipher backs `F_MAC` / `F_mark` (§4.1: the prototype uses
/// 2EM because AES would need a packet resubmission on Tofino).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacChoice {
    /// Two-round Even–Mansour (the paper's choice).
    #[default]
    TwoRoundEm,
    /// AES-128 (the baseline; costs a resubmission in the pipeline model).
    Aes,
}

/// The forwarding state of one DIP-capable node that operation modules act
/// on. One instance per router; the router pipeline passes it to every op.
pub struct RouterState {
    /// Stable node identifier (used in traces and control messages).
    pub node_id: u64,
    /// This router's local secret (DRKey-style root for session keys).
    pub local_secret: Block,
    /// The AS-level secret used by `F_pass` source labels.
    pub as_secret: Block,
    /// 32-bit address FIB (`F_32_match`).
    pub ipv4_fib: Ipv4Fib,
    /// 128-bit address FIB (`F_128_match`).
    pub ipv6_fib: Ipv6Fib,
    /// Name FIB (`F_FIB`).
    pub name_fib: NameFib,
    /// Pending interest table (`F_PIT`), keyed by compact 32-bit names as in
    /// the prototype dataplane.
    pub pit: Pit<u32>,
    /// Optional content store (footnote 2); `None` reproduces the paper's
    /// prototype ("the router has no cached data").
    pub content_store: Option<ContentStore<u32, Vec<u8>>>,
    /// XIA per-principal routing tables (`F_DAG`/`F_intent`).
    pub xia: XiaRouteTable,
    /// Compiled forwarding tables (`dip-routes`). When present, every
    /// lookup op prefers these over the per-family FIBs above — this is
    /// how the dataplane swaps a million-route table in one epoch
    /// without rebuilding the legacy structures.
    pub compiled: Option<RouteTables>,
    /// Cipher backing the authentication operations.
    pub mac_choice: MacChoice,
    /// When `true`, `F_PIT` refuses to cache data that does not carry a
    /// verified source label — the dynamic defense of §2.4 (experiment E6).
    pub require_pass_for_cache: bool,
    /// Typed state for *custom* operation modules (§5: "network providers
    /// can support new services by only upgrading FNs"). An out-of-tree
    /// `FieldOp` keeps its tables here without touching this struct.
    pub ext: Extensions,
    /// Where this router's content store counts LRU evictions, whichever
    /// store is installed and whenever: the counter belongs to the router,
    /// so enabling, replacing or preloading a store never unhooks it.
    cs_evictions: Arc<Counter>,
}

/// A typed, heterogeneous map holding the private state of custom
/// operation modules (one slot per Rust type).
#[derive(Default)]
pub struct Extensions {
    slots: std::collections::HashMap<std::any::TypeId, Box<dyn std::any::Any + Send>>,
}

impl Extensions {
    /// Gets the extension state of type `T`, inserting `T::default()` on
    /// first use.
    pub fn get_or_default<T: Default + Send + 'static>(&mut self) -> &mut T {
        self.slots
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut::<T>()
            .expect("slot keyed by TypeId")
    }

    /// Read-only access to the extension state of type `T`, if present.
    pub fn get<T: Send + 'static>(&self) -> Option<&T> {
        self.slots.get(&std::any::TypeId::of::<T>())?.downcast_ref::<T>()
    }

    /// Replaces the extension state of type `T`, returning the old value.
    pub fn insert<T: Send + 'static>(&mut self, value: T) -> Option<T> {
        self.slots
            .insert(std::any::TypeId::of::<T>(), Box::new(value))
            .and_then(|old| old.downcast::<T>().ok().map(|b| *b))
    }

    /// Number of occupied extension slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no extension state exists.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl RouterState {
    /// A router with empty tables and the given identity/secret.
    pub fn new(node_id: u64, local_secret: Block) -> Self {
        RouterState {
            node_id,
            local_secret,
            as_secret: local_secret,
            ipv4_fib: Ipv4Fib::new(),
            ipv6_fib: Ipv6Fib::new(),
            name_fib: NameFib::new(),
            pit: Pit::new(65_536, 4_000_000_000), // 4s at ns ticks
            content_store: None,
            xia: XiaRouteTable::new(),
            compiled: None,
            mac_choice: MacChoice::TwoRoundEm,
            require_pass_for_cache: false,
            ext: Extensions::default(),
            cs_evictions: Arc::new(Counter::new()),
        }
    }

    /// Enables a content store of `capacity` entries.
    pub fn enable_content_store(&mut self, capacity: usize) {
        self.install_content_store(ContentStore::new(capacity));
    }

    /// Installs `store` (a preload or a post-poisoning reset) as this
    /// router's content store, counting evictions where the router counts
    /// them rather than where `store` did.
    pub fn install_content_store(&mut self, mut store: ContentStore<u32, Vec<u8>>) {
        store.set_eviction_counter(Arc::clone(&self.cs_evictions));
        self.content_store = Some(store);
    }

    /// Replaces the PIT (an explicit reset; in-flight interests are
    /// discarded), counting evictions where the old one did.
    pub fn install_pit(&mut self, mut pit: Pit<u32>) {
        pit.set_eviction_counter(self.pit.eviction_counter());
        self.pit = pit;
    }

    /// Routes content-store LRU evictions into `counter` — for the store
    /// enabled now and for any enabled or installed later.
    pub fn set_cs_eviction_counter(&mut self, counter: Arc<Counter>) {
        if let Some(cs) = self.content_store.as_mut() {
            cs.set_eviction_counter(Arc::clone(&counter));
        }
        self.cs_evictions = counter;
    }

    /// IPv4 LPM: compiled tables when installed, else the legacy FIB.
    pub fn lookup_v4(&self, addr: Ipv4Addr) -> Option<NextHop> {
        match &self.compiled {
            Some(t) => t.lookup_v4(addr),
            None => self.ipv4_fib.lookup(addr),
        }
    }

    /// IPv6 LPM: compiled tables when installed, else the legacy FIB.
    pub fn lookup_v6(&self, addr: Ipv6Addr) -> Option<NextHop> {
        match &self.compiled {
            Some(t) => t.lookup_v6(addr),
            None => self.ipv6_fib.lookup(addr),
        }
    }

    /// Hierarchical name LPM: compiled tables when installed, else the
    /// legacy name FIB.
    pub fn lookup_name(&self, name: &Name) -> Option<NextHop> {
        match &self.compiled {
            Some(t) => t.lookup_name(name),
            None => self.name_fib.lookup(name),
        }
    }

    /// Compact 32-bit name match: compiled tables when installed, else
    /// the legacy name FIB.
    pub fn lookup_name_compact(&self, compact: u32) -> Option<NextHop> {
        match &self.compiled {
            Some(t) => t.lookup_name_compact(compact),
            None => self.name_fib.lookup_compact(compact),
        }
    }

    /// XIA per-principal lookup: compiled tables when installed, else
    /// the legacy route table.
    pub fn lookup_xia(&self, ty: XidType, xid: &Xid) -> Option<XiaNextHop> {
        match &self.compiled {
            Some(t) => t.lookup_xia(ty, xid),
            None => self.xia.lookup(ty, xid),
        }
    }
}

impl std::fmt::Debug for RouterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterState")
            .field("node_id", &self.node_id)
            .field("ipv4_routes", &self.ipv4_fib.len())
            .field("ipv6_routes", &self.ipv6_fib.len())
            .field("name_routes", &self.name_fib.len())
            .field("pit_entries", &self.pit.len())
            .field("compiled_version", &self.compiled.as_ref().map(|t| t.version))
            .field("mac_choice", &self.mac_choice)
            .finish_non_exhaustive()
    }
}

/// Per-packet scratch context threaded through the FN chain.
///
/// Operations communicate *only* through this context and the locations
/// area — e.g. `F_parm` deposits the dynamic key that `F_MAC` and `F_mark`
/// consume (§3), which is also the dependency the parallel planner tracks.
pub struct PacketCtx<'a> {
    /// The packet's FN locations area (mutable: authentication ops update
    /// tags in place).
    pub locations: &'a mut [u8],
    /// The packet payload (read-only; used for data hashing and caching).
    pub payload: &'a [u8],
    /// Ingress port the packet arrived on (recorded in the PIT).
    pub in_port: Port,
    /// Virtual arrival time.
    pub now: Ticks,
    /// Lazily computed dedup nonce (see [`PacketCtx::nonce`]).
    nonce_cache: Option<u64>,
    /// Dynamic key derived by `F_parm`, consumed by `F_MAC`/`F_mark`.
    pub dynamic_key: Option<Block>,
    /// DAG parsed by `F_DAG`, consumed by `F_intent`.
    pub dag: Option<Dag>,
    /// Host-side verification context: per-hop session keys, in path order
    /// (populated by the destination before running tagged host FNs).
    pub path_keys: Vec<Block>,
    /// Host-side: the source↔destination session key that seeds the PVF
    /// chain.
    pub source_key: Option<Block>,
    /// Set by `F_pass` on success; `F_PIT` may require it before caching.
    pub pass_verified: bool,
    /// Source address recorded by `F_source` (32- or 128-bit, left-aligned).
    pub source_addr: Option<Vec<u8>>,
}

impl<'a> PacketCtx<'a> {
    /// A fresh context for a packet arriving on `in_port` at `now`.
    pub fn new(locations: &'a mut [u8], payload: &'a [u8], in_port: Port, now: Ticks) -> Self {
        PacketCtx {
            locations,
            payload,
            in_port,
            now,
            nonce_cache: None,
            dynamic_key: None,
            dag: None,
            path_keys: Vec::new(),
            source_key: None,
            pass_verified: false,
            source_addr: None,
        }
    }

    /// Deduplication nonce for interests, derived from the packet bytes
    /// (identical duplicates — loops — collide, distinct requests don't).
    ///
    /// Computed lazily so protocols with no PIT operation never pay for it,
    /// and over at most the locations plus the first 128 payload bytes so
    /// interest processing stays size-independent (real NDN carries an
    /// explicit small nonce; a loop returns the *identical* packet, which
    /// still collides under the capped hash).
    pub fn nonce(&mut self) -> u64 {
        *self.nonce_cache.get_or_insert_with(|| {
            let cap = self.payload.len().min(128);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (self.payload.len() as u64);
            for &b in self.locations.iter().chain(self.payload[..cap].iter()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        })
    }

    /// Reads the target field of `triple` (left-aligned bytes).
    pub fn read_field(
        &self,
        triple: &dip_wire::triple::FnTriple,
    ) -> Result<Vec<u8>, dip_wire::WireError> {
        dip_wire::bits::read_bits(
            self.locations,
            usize::from(triple.field_loc),
            usize::from(triple.field_len),
        )
    }

    /// Writes the target field of `triple`.
    pub fn write_field(
        &mut self,
        triple: &dip_wire::triple::FnTriple,
        value: &[u8],
    ) -> Result<(), dip_wire::WireError> {
        dip_wire::bits::write_bits(
            self.locations,
            usize::from(triple.field_loc),
            usize::from(triple.field_len),
            value,
        )
    }
}

// The drop taxonomy lives in `dip-telemetry` (the workspace-wide outcome
// accounting crate); re-exported here so `dip_fnops::DropReason` — the
// path every op module and downstream crate uses — keeps working.
pub use dip_telemetry::DropReason;

/// What an operation decided about the packet.
///
/// Forwarding decisions are *sticky*: the pipeline records the first
/// `Forward`/`ForwardMulti`/`Deliver` and later operations keep running
/// (e.g. NDN+OPT: `F_PIT` picks the faces, then the MAC ops update tags).
/// `Drop` aborts the chain immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Operation completed; no routing decision from this op.
    Continue,
    /// Forward on one egress port.
    Forward(Port),
    /// Forward copies on several ports (PIT fan-out).
    ForwardMulti(Vec<Port>),
    /// Deliver to the local host stack.
    Deliver,
    /// The interest was aggregated into an existing PIT entry; no copy
    /// should be forwarded, but the packet is *not* an error.
    Consumed,
    /// Answer the interest from the content store with this payload,
    /// back out the ingress port.
    RespondCached(Vec<u8>),
    /// Discard the packet.
    Drop(DropReason),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_is_content_addressed() {
        let mut loc_a = vec![1, 2, 3, 4];
        let mut loc_a2 = vec![1, 2, 3, 4];
        let mut loc_b = vec![1, 2, 3, 5];
        let a = PacketCtx::new(&mut loc_a, b"x", 0, 0).nonce();
        let a2 = PacketCtx::new(&mut loc_a2, b"x", 5, 99).nonce(); // port/time irrelevant
        let b = PacketCtx::new(&mut loc_b, b"x", 0, 0).nonce();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn field_read_write_through_ctx() {
        use dip_wire::triple::{FnKey, FnTriple};
        let mut locs = vec![0u8; 8];
        let mut ctx = PacketCtx::new(&mut locs, &[], 0, 0);
        let t = FnTriple::router(16, 32, FnKey::Match32);
        ctx.write_field(&t, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
        assert_eq!(ctx.read_field(&t).unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(&ctx.locations[2..6], &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn router_state_debug_is_compact() {
        let s = RouterState::new(7, [0u8; 16]);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("node_id: 7"));
    }

    #[test]
    fn compiled_tables_override_legacy_fibs() {
        let mut s = RouterState::new(1, [0u8; 16]);
        let dst = Ipv4Addr::new(10, 1, 2, 3);
        s.ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        assert_eq!(s.lookup_v4(dst), Some(NextHop::port(1)));

        // Install a compiled table that routes the same prefix elsewhere:
        // it must win, and uninstalling must fall back.
        let mut store = dip_routes::RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(7));
        s.compiled = Some(store.rebuild());
        assert_eq!(s.lookup_v4(dst), Some(NextHop::port(7)));
        // An empty compiled family means "no route", not "ask legacy".
        assert_eq!(s.lookup_name_compact(42), None);
        s.compiled = None;
        assert_eq!(s.lookup_v4(dst), Some(NextHop::port(1)));
    }
}
