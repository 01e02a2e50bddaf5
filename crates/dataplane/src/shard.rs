//! RSS-style flow sharding over FN locations.
//!
//! Hardware RSS hashes the IP 5-tuple; DIP has no fixed 5-tuple — the
//! flow-identifying bytes are whatever the protocol put in the FN
//! *locations area* (an IPv4/IPv6 destination+source, an NDN content
//! name, an XIA DAG). Hashing the locations therefore gives flow affinity
//! for every paper protocol with one mechanism: packets whose stateful
//! interactions must meet (an NDN interest and its data share the name
//! bytes; an XIA flow shares its DAG) land on the same worker, so
//! per-flow state (PIT entries, content-store lines) never splits or
//! races across shards.

use dip_wire::DipPacket;

/// How many locations bytes participate in the hash (covers every paper
/// protocol's flow identity — an IPv6 destination + source is 32 bytes).
const HASH_PREFIX: usize = 64;

/// FNV-1a over the flow-identifying prefix of the FN locations area.
pub fn hash_locations(locations: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in locations.iter().take(HASH_PREFIX) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    /// shard 0 (they will be dropped there, deterministically).
    pub fn shard_of(&self, packet: &[u8]) -> usize {
        let key =
            DipPacket::new_checked(packet).map(|p| hash_locations(p.locations())).unwrap_or(0);
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
        // carry the name in the locations area, so they hash together.
        let shard = FlowShard::new(16);
        for raw in ["/a", "/video/segment/9", "/hotnets/org/deeply/nested/name"] {
            let name = Name::parse(raw);
            let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(b"rq").unwrap();
            let data = dip_protocols::ndn::data(&name, 64).to_bytes(b"content").unwrap();
            assert_eq!(shard.shard_of(&interest), shard.shard_of(&data), "name {raw}");
        }
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
}
