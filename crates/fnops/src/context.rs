//! Router state, per-packet context, and the action/verdict types.

use dip_crypto::{Aes128, Block, CbcMac, MacAlgorithm, TwoRoundEm};
use dip_routes::RouteTables;
use dip_tables::fib::NextHop;
use dip_tables::{ContentStore, Pit, Port, Ports, TableHasher, Ticks, XiaNextHop};
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

/// A CBC-MAC whose key schedule has been expanded for one [`MacChoice`].
pub(crate) enum MacSchedule {
    TwoRoundEm(CbcMac<TwoRoundEm>),
    Aes(CbcMac<Aes128>),
}

impl MacSchedule {
    /// Expands `key` for `choice`.
    pub(crate) fn new(choice: MacChoice, key: &Block) -> Self {
        match choice {
            MacChoice::TwoRoundEm => MacSchedule::TwoRoundEm(CbcMac::new_2em(key)),
            MacChoice::Aes => MacSchedule::Aes(CbcMac::new_aes(key)),
        }
    }

    /// The tag of `data`.
    pub(crate) fn mac(&self, data: &[u8]) -> Block {
        match self {
            MacSchedule::TwoRoundEm(m) => m.mac(data),
            MacSchedule::Aes(m) => m.mac(data),
        }
    }
}

/// The last MAC schedule a packet expanded, with the `(choice, key)` it
/// was expanded from. `F_MAC` and `F_mark` both MAC under the packet's
/// dynamic key, so the key schedule is expanded once per packet: it is
/// reused while `choice` and `key` equal the ones it was expanded from, and
/// re-expanded otherwise.
#[derive(Default)]
pub(crate) struct MacMemo {
    last: Option<(MacChoice, Block, MacSchedule)>,
    /// How many times a key schedule was expanded.
    #[cfg(test)]
    pub(crate) expansions: u32,
}

impl MacMemo {
    /// The `choice` CBC-MAC of `data` under `key`.
    fn mac(&mut self, choice: MacChoice, key: &Block, data: &[u8]) -> Block {
        match &self.last {
            Some((c, k, schedule)) if *c == choice && k == key => schedule.mac(data),
            _ => {
                #[cfg(test)]
                {
                    self.expansions += 1;
                }
                let schedule = MacSchedule::new(choice, key);
                let tag = schedule.mac(data);
                self.last = Some((choice, *key, schedule));
                tag
            }
        }
    }
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
    /// The forwarding tables every lookup op answers from: IPv4/IPv6 LPM
    /// (`F_32_match`/`F_128_match`), the name FIB (`F_FIB`) and the XIA
    /// per-principal tables (`F_DAG`/`F_intent`). Built by a
    /// [`RouteStore`](dip_routes::RouteStore) and installed whole —
    /// `state.routes = store.rebuild()` — or swapped in by a route
    /// snapshot at an epoch boundary. Empty tables answer `None`.
    pub routes: RouteTables,
    /// Pending interest table (`F_PIT`), keyed by compact 32-bit names as in
    /// the prototype dataplane.
    pub pit: Pit<u32>,
    /// Optional content store (footnote 2); `None` reproduces the paper's
    /// prototype ("the router has no cached data"). Payloads are shared:
    /// `F_PIT` stores one allocation per cached data packet and every
    /// `F_FIB` hit answers with a reference to it, not a copy.
    pub content_store: Option<ContentStore<u32, Arc<[u8]>>>,
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
            routes: RouteTables::default(),
            // 4 s at ns ticks.
            pit: Pit::with_hasher(65_536, 4_000_000_000, TableHasher::from_secret(&local_secret)),
            content_store: None,
            mac_choice: MacChoice::TwoRoundEm,
            require_pass_for_cache: false,
            ext: Extensions::default(),
            cs_evictions: Arc::new(Counter::new()),
        }
    }

    /// Enables a content store of `capacity` entries.
    pub fn enable_content_store(&mut self, capacity: usize) {
        let hasher = TableHasher::from_secret(&self.local_secret);
        self.install_content_store(ContentStore::with_hasher(capacity, hasher));
    }

    /// Installs `store` (a preload or a post-poisoning reset) as this
    /// router's content store, counting evictions where the router counts
    /// them rather than where `store` did.
    pub fn install_content_store(&mut self, mut store: ContentStore<u32, Arc<[u8]>>) {
        store.rekey(TableHasher::from_secret(&self.local_secret));
        store.set_eviction_counter(Arc::clone(&self.cs_evictions));
        self.content_store = Some(store);
    }

    /// Replaces the PIT (an explicit reset; in-flight interests are
    /// discarded), counting evictions where the old one did.
    pub fn install_pit(&mut self, mut pit: Pit<u32>) {
        pit.rekey(TableHasher::from_secret(&self.local_secret));
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

    /// IPv4 LPM (`F_32_match`).
    pub fn lookup_v4(&self, addr: Ipv4Addr) -> Option<NextHop> {
        self.routes.lookup_v4(addr)
    }

    /// IPv6 LPM (`F_128_match`).
    pub fn lookup_v6(&self, addr: Ipv6Addr) -> Option<NextHop> {
        self.routes.lookup_v6(addr)
    }

    /// Hierarchical name LPM.
    pub fn lookup_name(&self, name: &Name) -> Option<NextHop> {
        self.routes.lookup_name(name)
    }

    /// Compact 32-bit name match (`F_FIB` on the prototype's wire form).
    pub fn lookup_name_compact(&self, compact: u32) -> Option<NextHop> {
        self.routes.lookup_name_compact(compact)
    }

    /// XIA per-principal lookup (`F_intent`).
    pub fn lookup_xia(&self, ty: XidType, xid: &Xid) -> Option<XiaNextHop> {
        self.routes.lookup_xia(ty, xid)
    }
}

impl std::fmt::Debug for RouterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterState")
            .field("node_id", &self.node_id)
            .field("routes", &self.routes.route_count())
            .field("routes_version", &self.routes.version)
            .field("pit_entries", &self.pit.len())
            .field("mac_choice", &self.mac_choice)
            .finish_non_exhaustive()
    }
}

/// Per-packet scratch context threaded through the FN chain.
///
/// Operations communicate *only* through this context and the locations
/// area — e.g. `F_parm` deposits the dynamic key that `F_MAC` and `F_mark`
/// consume (§3). Each slot another op reads is a
/// [`Resource`](crate::Resource) that ops declare in their
/// [`Effects`](crate::Effects), so the parallel planner orders them.
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
    /// The MAC schedule [`PacketCtx::mac`] and [`PacketCtx::mac_field`]
    /// share.
    pub(crate) mac_memo: MacMemo,
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
            mac_memo: MacMemo::default(),
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

    /// Reads the target field of `triple` into `out` (left-aligned),
    /// returning the number of bytes written; `out` must hold the field.
    pub fn read_field_into(
        &self,
        triple: &dip_wire::triple::FnTriple,
        out: &mut [u8],
    ) -> Result<usize, dip_wire::WireError> {
        dip_wire::bits::read_bits_into(
            self.locations,
            usize::from(triple.field_loc),
            usize::from(triple.field_len),
            out,
        )
    }

    /// The `choice` CBC-MAC of `data` under `key`, through the packet's
    /// [`MacMemo`].
    pub(crate) fn mac(&mut self, choice: MacChoice, key: &Block, data: &[u8]) -> Block {
        self.mac_memo.mac(choice, key, data)
    }

    /// The `choice` CBC-MAC of `triple`'s target field (left-aligned bytes,
    /// as [`PacketCtx::read_field`] reads it) under `key`, without a heap
    /// allocation: a byte-aligned field is MACed where it lies, any other is
    /// read onto the stack first.
    pub(crate) fn mac_field(
        &mut self,
        choice: MacChoice,
        key: &Block,
        triple: &dip_wire::triple::FnTriple,
    ) -> Result<Block, dip_wire::WireError> {
        use dip_wire::bits::{check_range, is_byte_aligned};
        let (off, len) = (usize::from(triple.field_loc), usize::from(triple.field_len));
        check_range(self.locations.len(), off, len)?;
        if is_byte_aligned(off, len) {
            let field = &self.locations[off / 8..(off + len) / 8];
            return Ok(self.mac_memo.mac(choice, key, field));
        }
        // The widest field a triple can name: 65 535 bits.
        let mut buf = [0u8; (u16::MAX as usize).div_ceil(8)];
        let n = self.read_field_into(triple, &mut buf)?;
        Ok(self.mac_memo.mac(choice, key, &buf[..n]))
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
    ForwardMulti(Ports),
    /// Deliver to the local host stack.
    Deliver,
    /// The interest was aggregated into an existing PIT entry; no copy
    /// should be forwarded, but the packet is *not* an error.
    Consumed,
    /// Answer the interest from the content store with this payload,
    /// back out the ingress port (shared with the store's entry).
    RespondCached(Arc<[u8]>),
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
    fn lookups_answer_from_the_installed_tables() {
        let mut s = RouterState::new(1, [0u8; 16]);
        let dst = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(s.lookup_v4(dst), None, "a new router has no routes");

        let mut store = dip_routes::RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(7));
        s.routes = store.rebuild();
        assert_eq!(s.lookup_v4(dst), Some(NextHop::port(7)));
        // An empty family means "no route".
        assert_eq!(s.lookup_name_compact(42), None);
        assert_eq!(s.lookup_xia(XidType::Cid, &Xid::derive(b"c")), None);

        // Installing the next version replaces the whole table.
        s.routes = dip_routes::RouteStore::new().rebuild();
        assert_eq!(s.lookup_v4(dst), None);
    }
}
