//! The Pending Interest Table (`F_PIT`).
//!
//! NDN routers "record the receiving port in the PIT" when forwarding an
//! interest, and on a data packet "look up the content name in the PIT and
//! forward it to the recorded request port (match hit) or discard the
//! packet (match miss)" (§3).
//!
//! This PIT implements the behaviours a real deployment needs and the §2.4
//! security discussion requires:
//!
//! * **aggregation** — multiple faces waiting on the same name share one
//!   entry and all receive the data;
//! * **nonce-based loop suppression** — a re-seen (name, nonce) pair is
//!   reported as a duplicate;
//! * **expiry** — entries lapse after a TTL of virtual ticks;
//! * **a hard capacity** — the per-packet/router state budget that §2.4
//!   prescribes against state-exhaustion attacks (experiment E9).

use crate::{Port, Ticks};
use dip_telemetry::Counter;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result of recording an interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PitOutcome {
    /// First interest for this name: the router must forward it upstream.
    Forward,
    /// An entry already existed; the face was merely added (aggregated) and
    /// the interest must *not* be forwarded again.
    Aggregated,
    /// Duplicate (name, nonce): a looping or replayed interest; drop it.
    DuplicateNonce,
}

/// Why an interest could not be recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PitError {
    /// The table is at capacity (§2.4 state budget).
    CapacityExhausted,
}

/// Classified result of consuming a PIT entry on a data packet.
///
/// `§3`'s "match miss" covers two situations a disruption-tolerance
/// audit must tell apart: the data was never requested here
/// ([`PitConsume::Miss`]) versus it *was* requested but the entry aged
/// out under virtual time before the data arrived
/// ([`PitConsume::Expired`] — the long-partition case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PitConsume {
    /// A live entry matched; forward the data to these faces.
    Hit(Vec<Port>),
    /// An entry existed but had lapsed; it was evicted (and counted).
    Expired,
    /// No entry for this name at all.
    Miss,
}

/// Faces and nonces an entry keeps inside its map slot before it spills
/// to the heap. An interest aggregated from up to four faces — the
/// ordinary case; the repo's workloads use one or two — then allocates
/// nothing, where it used to allocate a `Vec` and a `HashSet`. Four is
/// what the spill variants pay for anyway: four nonces fill exactly the
/// 48 bytes a `HashSet` header occupies, and four faces make the entry
/// 88 bytes against the 80 of the two headers alone.
const INLINE: usize = 4;

/// The faces waiting on one name, in arrival order, without duplicates.
#[derive(Debug, Clone)]
enum Faces {
    Inline { len: u8, buf: [Port; INLINE] },
    Spilled(Vec<Port>),
}

impl Faces {
    fn one(face: Port) -> Self {
        let mut buf = [0; INLINE];
        buf[0] = face;
        Faces::Inline { len: 1, buf }
    }

    fn as_slice(&self) -> &[Port] {
        match self {
            Faces::Inline { len, buf } => &buf[..usize::from(*len)],
            Faces::Spilled(v) => v,
        }
    }

    fn add(&mut self, face: Port) {
        if self.as_slice().contains(&face) {
            return;
        }
        match self {
            Faces::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = face;
                *len += 1;
            }
            Faces::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.push(face);
                *self = Faces::Spilled(v);
            }
            Faces::Spilled(v) => v.push(face),
        }
    }

    fn into_vec(self) -> Vec<Port> {
        match self {
            Faces::Inline { .. } => self.as_slice().to_vec(),
            Faces::Spilled(v) => v,
        }
    }
}

/// The interest nonces seen for one name. Past the inline width it is a
/// hash set, so an entry flooded with nonces still answers in O(1).
#[derive(Debug, Clone)]
enum Nonces {
    Inline { len: u8, buf: [u64; INLINE] },
    Spilled(HashSet<u64>),
}

impl Nonces {
    fn one(nonce: u64) -> Self {
        let mut buf = [0; INLINE];
        buf[0] = nonce;
        Nonces::Inline { len: 1, buf }
    }

    /// Adds `nonce`; `false` when it was already present.
    fn insert(&mut self, nonce: u64) -> bool {
        match self {
            Nonces::Inline { len, buf } => {
                let n = usize::from(*len);
                if buf[..n].contains(&nonce) {
                    return false;
                }
                if n < INLINE {
                    buf[n] = nonce;
                    *len += 1;
                } else {
                    let mut set: HashSet<u64> = buf.iter().copied().collect();
                    set.insert(nonce);
                    *self = Nonces::Spilled(set);
                }
                true
            }
            Nonces::Spilled(set) => set.insert(nonce),
        }
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = match self {
            Nonces::Inline { len, buf } => buf[..usize::from(*len)].to_vec(),
            Nonces::Spilled(set) => set.iter().copied().collect(),
        };
        v.sort_unstable();
        v
    }
}

#[derive(Debug, Clone)]
struct PitEntry {
    faces: Faces,
    nonces: Nonces,
    expires_at: Ticks,
}

impl PitEntry {
    fn fresh(face: Port, nonce: u64, expires_at: Ticks) -> Self {
        PitEntry { faces: Faces::one(face), nonces: Nonces::one(nonce), expires_at }
    }
}

/// A pending interest table keyed by `K` (full [`dip_wire::ndn::Name`]s in
/// the library API, compact `u32` names on the prototype dataplane).
#[derive(Debug, Clone)]
pub struct Pit<K: std::hash::Hash + Eq + Clone> {
    entries: HashMap<K, PitEntry>,
    capacity: usize,
    ttl: Ticks,
    /// Expired entries removed (on lookup, revival, capacity sweep, or
    /// explicit GC). Private by default; [`Pit::set_eviction_counter`]
    /// wires it into a telemetry registry.
    evictions: Arc<Counter>,
}

impl<K: std::hash::Hash + Eq + Clone> Pit<K> {
    /// Creates a PIT with a capacity bound and per-entry TTL (virtual
    /// ticks).
    pub fn new(capacity: usize, ttl: Ticks) -> Self {
        Pit { entries: HashMap::new(), capacity, ttl, evictions: Arc::new(Counter::new()) }
    }

    /// Routes expired-entry eviction counts into `counter` (typically a
    /// `dip_pit_expired_evictions_total` instance from a telemetry
    /// registry) instead of the private default counter.
    pub fn set_eviction_counter(&mut self, counter: Arc<Counter>) {
        self.evictions = counter;
    }

    /// The counter evictions go to, for handing to a replacement table.
    pub fn eviction_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.evictions)
    }

    /// Expired entries evicted so far (any path: lookup, revival,
    /// at-capacity sweep, explicit [`Pit::expire`]).
    pub fn expired_evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of live entries (including any not yet garbage-collected).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the PIT is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records an interest for `name` arriving on `face` with `nonce` at
    /// virtual time `now`.
    pub fn record_interest(
        &mut self,
        name: K,
        face: Port,
        nonce: u64,
        now: Ticks,
    ) -> Result<PitOutcome, PitError> {
        if let Some(entry) = self.entries.get_mut(&name) {
            if entry.expires_at <= now {
                // Stale entry: evict (counted) and treat as fresh.
                self.evictions.inc();
                *entry = PitEntry::fresh(face, nonce, now + self.ttl);
                return Ok(PitOutcome::Forward);
            }
            if !entry.nonces.insert(nonce) {
                return Ok(PitOutcome::DuplicateNonce);
            }
            entry.expires_at = now + self.ttl;
            entry.faces.add(face);
            return Ok(PitOutcome::Aggregated);
        }
        if self.entries.len() >= self.capacity {
            // At capacity: garbage-collect expired entries before
            // refusing — stale entries must not pin the §2.4 budget until
            // someone calls `expire()` by hand. Only *live* entries count
            // against an attacker's budget.
            if self.expire(now) == 0 {
                return Err(PitError::CapacityExhausted);
            }
        }
        self.entries.insert(name, PitEntry::fresh(face, nonce, now + self.ttl));
        Ok(PitOutcome::Forward)
    }

    /// Consumes the entry for `name` on a data packet, returning the faces
    /// to forward the data to, or `None` on a PIT miss (drop the data, §3).
    ///
    /// An expired entry is a miss; it is removed eagerly (and counted as
    /// an eviction) rather than left to consume capacity.
    pub fn consume(&mut self, name: &K, now: Ticks) -> Option<Vec<Port>> {
        match self.consume_classified(name, now) {
            PitConsume::Hit(faces) => Some(faces),
            PitConsume::Expired | PitConsume::Miss => None,
        }
    }

    /// Like [`Pit::consume`] but distinguishes an aged-out entry from one
    /// that never existed, so callers can account the drop as
    /// "pit_expired" rather than "pit_miss". An expired entry is still
    /// evicted eagerly and counted.
    pub fn consume_classified(&mut self, name: &K, now: Ticks) -> PitConsume {
        match self.entries.remove(name) {
            Some(e) if e.expires_at > now => PitConsume::Hit(e.faces.into_vec()),
            Some(_) => {
                // Expired: evicted on lookup, reported distinctly.
                self.evictions.inc();
                PitConsume::Expired
            }
            None => PitConsume::Miss,
        }
    }

    /// Whether a live entry exists (non-consuming peek).
    pub fn contains(&self, name: &K, now: Ticks) -> bool {
        self.entries.get(name).is_some_and(|e| e.expires_at > now)
    }

    /// Garbage-collects expired entries; returns how many were removed
    /// (each one counted as an eviction).
    pub fn expire(&mut self, now: Ticks) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_at > now);
        let removed = before - self.entries.len();
        self.evictions.add(removed as u64);
        removed
    }

    /// Read-only iteration over every entry (diagnostics and state
    /// comparison — e.g. checking that a flow-sharded dataplane's merged
    /// PITs equal a sequential reference's). Iteration order is
    /// unspecified; callers wanting a canonical view should sort.
    pub fn iter(&self) -> impl Iterator<Item = PitEntryView<'_, K>> {
        self.entries.iter().map(|(name, e)| PitEntryView {
            name,
            faces: e.faces.as_slice(),
            expires_at: e.expires_at,
            nonces: &e.nonces,
        })
    }
}

/// A read-only view of one PIT entry, yielded by [`Pit::iter`].
#[derive(Debug, Clone, Copy)]
pub struct PitEntryView<'a, K> {
    /// The pending content name.
    pub name: &'a K,
    /// Faces waiting for the data, in arrival order.
    pub faces: &'a [Port],
    /// Virtual time at which the entry lapses.
    pub expires_at: Ticks,
    nonces: &'a Nonces,
}

impl<K> PitEntryView<'_, K> {
    /// The entry's recorded interest nonces, sorted (canonical form).
    pub fn sorted_nonces(&self) -> Vec<u64> {
        self.nonces.sorted()
    }
}

// The capacity check sweeps expired entries before refusing an insert, so
// only *live* entries can pin the §2.4 budget: an attacker cannot bypass
// the limit (live entries are never evicted early), and a victim's fresh
// interests are never blocked by garbage a lazy collector hasn't visited.

#[cfg(test)]
mod tests {
    use super::*;

    fn pit() -> Pit<u32> {
        Pit::new(4, 100)
    }

    #[test]
    fn interest_then_data_roundtrip() {
        let mut p = pit();
        assert_eq!(p.record_interest(42, 3, 1, 0), Ok(PitOutcome::Forward));
        assert_eq!(p.consume(&42, 50), Some(vec![3]));
        // Consumed: a second data packet misses.
        assert_eq!(p.consume(&42, 51), None);
    }

    #[test]
    fn aggregation_collects_faces() {
        let mut p = pit();
        assert_eq!(p.record_interest(42, 3, 1, 0), Ok(PitOutcome::Forward));
        assert_eq!(p.record_interest(42, 7, 2, 10), Ok(PitOutcome::Aggregated));
        // Same face, new nonce: aggregated but face not duplicated.
        assert_eq!(p.record_interest(42, 3, 3, 20), Ok(PitOutcome::Aggregated));
        assert_eq!(p.consume(&42, 50), Some(vec![3, 7]));
    }

    #[test]
    fn duplicate_nonce_detected() {
        let mut p = pit();
        p.record_interest(42, 3, 99, 0).unwrap();
        assert_eq!(p.record_interest(42, 5, 99, 1), Ok(PitOutcome::DuplicateNonce));
        // The duplicate must not have added the face.
        assert_eq!(p.consume(&42, 50), Some(vec![3]));
    }

    #[test]
    fn expiry_makes_miss() {
        let mut p = pit();
        p.record_interest(42, 3, 1, 0).unwrap();
        assert!(p.contains(&42, 99));
        assert!(!p.contains(&42, 100));
        assert_eq!(p.consume(&42, 100), None);
    }

    #[test]
    fn fresh_interest_revives_expired_entry() {
        let mut p = pit();
        p.record_interest(42, 3, 1, 0).unwrap();
        // After expiry, the same nonce is acceptable again (fresh round).
        assert_eq!(p.record_interest(42, 9, 1, 200), Ok(PitOutcome::Forward));
        assert_eq!(p.consume(&42, 250), Some(vec![9]));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut p = pit();
        for name in 0..4 {
            assert_eq!(p.record_interest(name, 1, 1, 0), Ok(PitOutcome::Forward));
        }
        assert_eq!(p.record_interest(99, 1, 1, 0), Err(PitError::CapacityExhausted));
        // Aggregation on an existing entry still works at capacity.
        assert_eq!(p.record_interest(0, 2, 2, 1), Ok(PitOutcome::Aggregated));
        // Expiry frees room.
        p.expire(1000);
        assert_eq!(p.record_interest(99, 1, 1, 1000), Ok(PitOutcome::Forward));
    }

    #[test]
    fn expired_entries_do_not_block_inserts() {
        // Regression: expired-but-resident entries used to consume
        // capacity until an explicit expire() call.
        let mut p = pit();
        for name in 0..4 {
            p.record_interest(name, 1, 1, 0).unwrap();
        }
        // All four entries lapse at t=100. A fresh name at t=150 must
        // sweep them and succeed rather than err.
        assert_eq!(p.record_interest(99, 1, 1, 150), Ok(PitOutcome::Forward));
        assert_eq!(p.len(), 1, "expired entries swept at capacity");
        assert_eq!(p.expired_evictions(), 4);
    }

    #[test]
    fn live_entries_still_enforce_capacity() {
        let mut p = pit();
        for name in 0..4 {
            p.record_interest(name, 1, 1, 50).unwrap();
        }
        // All live at t=60: the budget holds and nothing is evicted.
        assert_eq!(p.record_interest(99, 1, 1, 60), Err(PitError::CapacityExhausted));
        assert_eq!(p.len(), 4);
        assert_eq!(p.expired_evictions(), 0);
    }

    #[test]
    fn consume_evicts_expired_entry_and_counts_it() {
        let mut p = pit();
        p.record_interest(42, 3, 1, 0).unwrap();
        assert_eq!(p.consume(&42, 100), None, "expired entry is a miss");
        assert_eq!(p.len(), 0, "miss evicted the entry");
        assert_eq!(p.expired_evictions(), 1);
        // Revival after expiry is also a counted eviction.
        p.record_interest(7, 1, 1, 0).unwrap();
        p.record_interest(7, 2, 2, 500).unwrap();
        assert_eq!(p.expired_evictions(), 2);
    }

    #[test]
    fn consume_classified_separates_expired_from_absent() {
        let mut p = pit();
        p.record_interest(42, 3, 1, 0).unwrap();
        // Live entry: a hit with the recorded face.
        assert_eq!(p.consume_classified(&42, 50), PitConsume::Hit(vec![3]));
        // Consumed already: a plain miss, not an expiry.
        assert_eq!(p.consume_classified(&42, 51), PitConsume::Miss);
        // Aged-out entry: reported as expired and counted as an eviction.
        p.record_interest(7, 4, 9, 0).unwrap();
        assert_eq!(p.consume_classified(&7, 100), PitConsume::Expired);
        assert_eq!(p.expired_evictions(), 1);
        // Never requested at all: a miss.
        assert_eq!(p.consume_classified(&99, 100), PitConsume::Miss);
    }

    #[test]
    fn eviction_counter_can_be_shared() {
        use dip_telemetry::Counter;
        use std::sync::Arc;
        let shared = Arc::new(Counter::new());
        let mut p = pit();
        p.set_eviction_counter(Arc::clone(&shared));
        p.record_interest(1, 1, 1, 0).unwrap();
        p.expire(1000);
        assert_eq!(shared.get(), 1);
    }

    #[test]
    fn expire_counts_removals() {
        let mut p = pit();
        p.record_interest(1, 1, 1, 0).unwrap();
        p.record_interest(2, 1, 1, 50).unwrap();
        assert_eq!(p.expire(120), 1);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&2, 120));
    }

    #[test]
    fn works_with_name_keys() {
        use dip_wire::ndn::Name;
        let mut p: Pit<Name> = Pit::new(16, 100);
        let n = Name::parse("/hotnets/org");
        p.record_interest(n.clone(), 4, 7, 0).unwrap();
        assert_eq!(p.consume(&n, 10), Some(vec![4]));
    }
}

/// The heap-backed PIT this module shipped before faces and nonces moved
/// inline — a `Vec` of faces and a `HashSet` of nonces per entry — kept as
/// the reference the differential test drives the real table against.
#[cfg(test)]
mod model {
    use super::*;
    use dip_crypto::DetRng;

    struct ModelEntry {
        faces: Vec<Port>,
        nonces: HashSet<u64>,
        expires_at: Ticks,
    }

    struct ModelPit {
        entries: HashMap<u32, ModelEntry>,
        capacity: usize,
        ttl: Ticks,
        evictions: u64,
    }

    impl ModelPit {
        fn fresh(&self, face: Port, nonce: u64, now: Ticks) -> ModelEntry {
            ModelEntry {
                faces: vec![face],
                nonces: HashSet::from([nonce]),
                expires_at: now + self.ttl,
            }
        }

        fn record_interest(
            &mut self,
            name: u32,
            face: Port,
            nonce: u64,
            now: Ticks,
        ) -> Result<PitOutcome, PitError> {
            let fresh = self.fresh(face, nonce, now);
            if let Some(entry) = self.entries.get_mut(&name) {
                if entry.expires_at <= now {
                    self.evictions += 1;
                    *entry = fresh;
                    return Ok(PitOutcome::Forward);
                }
                if !entry.nonces.insert(nonce) {
                    return Ok(PitOutcome::DuplicateNonce);
                }
                entry.expires_at = now + self.ttl;
                if !entry.faces.contains(&face) {
                    entry.faces.push(face);
                }
                return Ok(PitOutcome::Aggregated);
            }
            if self.entries.len() >= self.capacity && self.expire(now) == 0 {
                return Err(PitError::CapacityExhausted);
            }
            self.entries.insert(name, fresh);
            Ok(PitOutcome::Forward)
        }

        fn consume_classified(&mut self, name: &u32, now: Ticks) -> PitConsume {
            match self.entries.remove(name) {
                Some(e) if e.expires_at > now => PitConsume::Hit(e.faces),
                Some(_) => {
                    self.evictions += 1;
                    PitConsume::Expired
                }
                None => PitConsume::Miss,
            }
        }

        fn contains(&self, name: &u32, now: Ticks) -> bool {
            self.entries.get(name).is_some_and(|e| e.expires_at > now)
        }

        fn expire(&mut self, now: Ticks) -> usize {
            let before = self.entries.len();
            self.entries.retain(|_, e| e.expires_at > now);
            self.evictions += (before - self.entries.len()) as u64;
            before - self.entries.len()
        }

        fn view(&self) -> Vec<(u32, Vec<Port>, Ticks, Vec<u64>)> {
            let mut all: Vec<_> = self
                .entries
                .iter()
                .map(|(name, e)| {
                    let mut nonces: Vec<u64> = e.nonces.iter().copied().collect();
                    nonces.sort_unstable();
                    (*name, e.faces.clone(), e.expires_at, nonces)
                })
                .collect();
            all.sort_unstable();
            all
        }
    }

    fn view(pit: &Pit<u32>) -> Vec<(u32, Vec<Port>, Ticks, Vec<u64>)> {
        let mut all: Vec<_> = pit
            .iter()
            .map(|e| (*e.name, e.faces.to_vec(), e.expires_at, e.sorted_nonces()))
            .collect();
        all.sort_unstable();
        all
    }

    /// Returns how many hits carried more than [`INLINE`] faces, how many
    /// interests were replays, and how many the budget refused.
    fn drive(capacity: usize, steps: usize, seed: u64) -> [usize; 3] {
        let mut rng = DetRng::seed_from_u64(seed);
        // More names than slots (the budget refuses and sweeps), more faces
        // and nonces than the inline width (entries spill), few enough
        // nonces that replays occur, and a lifetime of a few visits per
        // name (some entries lapse, some aggregate first).
        let names = capacity + capacity / 2 + 2;
        let ttl = 4 * names as Ticks;
        let mut fast: Pit<u32> = Pit::new(capacity, ttl);
        let mut model = ModelPit { entries: HashMap::new(), capacity, ttl, evictions: 0 };
        let mut now: Ticks = 0;
        let (mut spilled, mut replays, mut refused) = (0, 0, 0);
        for step in 0..steps {
            now += rng.gen_index(6) as u64;
            let name = rng.gen_index(names) as u32;
            let ctx = || format!("capacity {capacity} seed {seed} step {step}");
            match rng.gen_index(100) {
                0..=64 => {
                    let face = rng.gen_index(2 * INLINE) as Port;
                    let nonce = rng.gen_index(3 * INLINE) as u64;
                    let got = fast.record_interest(name, face, nonce, now);
                    replays += usize::from(got == Ok(PitOutcome::DuplicateNonce));
                    refused += usize::from(got.is_err());
                    assert_eq!(got, model.record_interest(name, face, nonce, now), "{}", ctx());
                }
                65..=84 => {
                    let got = fast.consume_classified(&name, now);
                    if matches!(&got, PitConsume::Hit(faces) if faces.len() > INLINE) {
                        spilled += 1;
                    }
                    assert_eq!(got, model.consume_classified(&name, now), "{}", ctx());
                }
                85..=94 => {
                    assert_eq!(fast.contains(&name, now), model.contains(&name, now), "{}", ctx())
                }
                95..=96 => assert_eq!(fast.expire(now), model.expire(now), "{}", ctx()),
                // A clone carries the inline and the spilled entries alike.
                _ => fast = fast.clone(),
            }
            assert_eq!(fast.len(), model.entries.len(), "{}", ctx());
            assert_eq!(fast.expired_evictions(), model.evictions, "{}", ctx());
            assert_eq!(view(&fast), model.view(), "{}", ctx());
        }
        assert!(capacity == 0 || model.evictions > steps as u64 / 100, "the run exercised expiry");
        [spilled, replays, refused]
    }

    #[test]
    fn inline_pit_matches_the_heap_model_step_by_step() {
        // 100 000 operations; capacity 0 refuses everything, 1 and 2 live
        // at the budget, 16 holds a spread of inline and spilled entries.
        let mut seen = [0; 3];
        for (capacity, steps) in [(0, 2_000), (1, 30_000), (2, 38_000), (16, 30_000)] {
            let counts = drive(capacity, steps, 0x917 + capacity as u64);
            seen = [seen[0] + counts[0], seen[1] + counts[1], seen[2] + counts[2]];
        }
        let [spilled, replays, refused] = seen;
        assert!(
            spilled > 100 && replays > 1_000 && refused > 1_000,
            "spills {spilled}, replays {replays}, refusals {refused}: each must be exercised"
        );
    }
}
