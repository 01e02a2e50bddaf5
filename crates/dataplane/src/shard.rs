//! RSS-style flow sharding over FN target fields.
//!
//! Hardware RSS hashes the IP 5-tuple; DIP has no fixed 5-tuple — the
//! flow-identifying bytes are whatever field the protocol's first router
//! operation reads from the FN *locations area*: the IP destination, the
//! NDN content name, the OPT session id, the XIA DAG. Hashing that field
//! therefore gives flow affinity for every paper protocol with one
//! mechanism: packets whose stateful interactions must meet (an NDN
//! interest and its data share the name, whatever else the data carries;
//! an XIA flow shares its DAG) land on the same worker, so per-flow state
//! (PIT entries, content-store lines) never splits or races across shards.

use dip_wire::DipPacket;

/// How many bytes participate in the hash (covers every paper protocol's
/// flow key — an IPv6 destination is 16 bytes, an XIA DAG a few dozen).
const HASH_PREFIX: usize = 64;

/// FNV-1a over at most [`HASH_PREFIX`] bytes.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes
        .take(HASH_PREFIX)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The flow hash of `pkt`: FNV-1a over the target field of its first
/// router-tagged triple, with the bits outside the field masked off.
/// Packets without a router triple hash their locations prefix.
fn flow_hash(pkt: &DipPacket<&[u8]>) -> u64 {
    let locations = pkt.locations();
    let router =
        (0..usize::from(pkt.fn_num())).filter_map(|i| pkt.triple(i).ok()).find(|t| !t.host);
    let Some(t) = router else { return fnv1a(locations.iter().copied()) };
    let (start, end) = (usize::from(t.field_loc), t.field_end().min(locations.len() * 8));
    let field = locations.get(start / 8..end.div_ceil(8)).unwrap_or(&[]);
    let last = field.len().wrapping_sub(1);
    fnv1a(field.iter().enumerate().map(|(i, &b)| {
        let b = if i == 0 { b & (0xff >> (start % 8)) } else { b };
        if i == last && end % 8 != 0 {
            b & (0xff << (8 - end % 8))
        } else {
            b
        }
    }))
}

/// A fixed worker-count flow-shard function.
#[derive(Debug, Clone, Copy)]
pub struct FlowShard {
    shards: usize,
}

impl FlowShard {
    /// A sharder dispatching over `shards` workers (minimum 1).
    pub fn new(shards: usize) -> Self {
        FlowShard { shards: shards.max(1) }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The worker owning `packet`'s flow. Malformed packets all map to
    /// shard 0 (they will be dropped there, deterministically), and so
    /// does every packet when there is one shard, without reading it.
    pub fn shard_of(&self, packet: &[u8]) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let key = DipPacket::new_checked(packet).map(|p| flow_hash(&p)).unwrap_or(0);
        (key % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_wire::ipv4::Ipv4Addr;
    use dip_wire::ndn::Name;

    #[test]
    fn affinity_is_stable_and_spread_is_nontrivial() {
        let shard = FlowShard::new(8);
        let pkt = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        )
        .to_bytes(&[])
        .unwrap();
        let home = shard.shard_of(&pkt);
        for _ in 0..32 {
            assert_eq!(shard.shard_of(&pkt), home);
        }
        let spread: std::collections::HashSet<usize> = (0..64u8)
            .map(|i| {
                let p = dip_protocols::ip::dip32_packet(
                    Ipv4Addr::new(10, 0, 0, i),
                    Ipv4Addr::new(1, 1, 1, 1),
                    64,
                )
                .to_bytes(&[])
                .unwrap();
                shard.shard_of(&p)
            })
            .collect();
        assert!(spread.len() > 1, "dispatch degenerated to one shard");
    }

    #[test]
    fn interest_and_data_share_a_shard() {
        // The NDN flow invariant the PIT depends on: both packet kinds
        // route by the name, so they hash together — also when the data
        // carries an OPT block after the name (NDN+OPT), and at shard
        // counts that are not powers of two.
        let session = dip_protocols::opt::OptSession::establish([5; 16], &[6; 16], &[[7; 16]]);
        for shards in [3, 8, 16] {
            let shard = FlowShard::new(shards);
            for i in 0..64 {
                let name = Name::parse(&format!("/video/segment/{i}"));
                let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(b"rq").unwrap();
                let home = shard.shard_of(&interest);
                let data = dip_protocols::ndn::data(&name, 64).to_bytes(b"content").unwrap();
                assert_eq!(shard.shard_of(&data), home, "ndn {name:?} at {shards}");
                let secure = dip_protocols::ndn_opt::data(&session, &name, b"content", i, 64)
                    .to_bytes(b"content")
                    .unwrap();
                assert_eq!(shard.shard_of(&secure), home, "ndn+opt {name:?} at {shards}");
            }
        }
    }

    #[test]
    fn only_the_flow_key_bits_move_a_flow() {
        use dip_wire::packet::DipRepr;
        use dip_wire::triple::{FnKey, FnTriple};
        // The key is bits 4..12: it shares both its bytes with neighbouring
        // fields that may change hop by hop.
        let packet = |locations: Vec<u8>| {
            let fns = vec![FnTriple::router(4, 8, FnKey::Pit)];
            DipRepr { fns, locations, ..Default::default() }.to_bytes(&[]).unwrap()
        };
        let shard = FlowShard::new(16);
        let mut homes = std::collections::HashSet::new();
        for key in 0..=255u8 {
            let home = shard.shard_of(&packet(vec![key >> 4, key << 4, 0]));
            let noisy = packet(vec![0xf0 | key >> 4, key << 4 | 0x0f, 0xff]);
            assert_eq!(shard.shard_of(&noisy), home, "key {key:#04x}");
            homes.insert(home);
        }
        assert!(homes.len() > 1, "the key bits must still spread flows");
    }

    #[test]
    fn malformed_goes_to_shard_zero() {
        let shard = FlowShard::new(4);
        assert_eq!(shard.shard_of(&[1, 2, 3]), 0);
    }

    #[test]
    fn single_shard_accepts_everything() {
        let shard = FlowShard::new(1);
        assert_eq!(shard.shard_of(&[]), 0);
    }

    #[test]
    fn one_shard_maps_every_packet_to_zero() {
        // Well-formed packets of every kind, truncations of them and noise:
        // at one shard all of them belong to worker 0.
        let session = dip_protocols::opt::OptSession::establish([5; 16], &[6; 16], &[[7; 16]]);
        let name = Name::parse("/video/segment/1");
        let packets = [
            dip_protocols::ip::dip32_packet(
                Ipv4Addr::new(10, 0, 0, 7),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[])
            .unwrap(),
            dip_protocols::ndn::interest(&name, 64).to_bytes(b"rq").unwrap(),
            session.packet(b"payload", 1, 64).to_bytes(b"payload").unwrap(),
        ];
        for shards in [0, 1] {
            let shard = FlowShard::new(shards);
            for p in &packets {
                for cut in 0..=p.len() {
                    assert_eq!(shard.shard_of(&p[..cut]), 0, "{shards} shards, {cut} bytes");
                }
            }
            assert_eq!(shard.shard_of(&[0xff; 64]), 0);
        }
    }
}
