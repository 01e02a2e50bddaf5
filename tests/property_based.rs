//! Property-based tests over the core data structures and invariants.
//!
//! Rewritten from `proptest` to a deterministic in-repo generator
//! ([`dip_crypto::DetRng`]) so the suite runs fully offline. Each test
//! draws a fixed number of pseudo-random cases from a fixed seed, which
//! makes failures exactly reproducible (the case index is in the panic
//! message).

use dip::prelude::*;
use dip_crypto::DetRng;
use dip_wire::bits;

fn rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(seed)
}

fn arb_bytes(r: &mut DetRng, max_len: usize) -> Vec<u8> {
    let n = r.gen_index(max_len + 1);
    let mut v = vec![0u8; n];
    r.fill_bytes(&mut v);
    v
}

fn arb_triple(r: &mut DetRng) -> FnTriple {
    FnTriple {
        field_loc: (r.next_u32() % 2048) as u16,
        field_len: (r.next_u32() % 2048) as u16,
        key: FnKey::from_wire((r.next_u32() % 0x7fff) as u16),
        host: r.gen_bool(0.5),
    }
}

fn arb_repr(r: &mut DetRng) -> DipRepr {
    let next_header = r.next_u32() as u8;
    let hop_limit = 1 + (r.next_u32() % 255) as u8;
    let parallel = r.gen_bool(0.5);
    let mut fns: Vec<FnTriple> = (0..r.gen_index(8)).map(|_| arb_triple(r)).collect();
    let locations = arb_bytes(r, 299);
    // Clamp every triple inside the locations area so the repr is valid.
    let loc_bits = (locations.len() * 8) as u16;
    for t in fns.iter_mut() {
        if loc_bits == 0 {
            t.field_loc = 0;
            t.field_len = 0;
        } else {
            t.field_loc %= loc_bits;
            t.field_len = t.field_len.min(loc_bits - t.field_loc);
        }
    }
    DipRepr { next_header, hop_limit, parallel, fns, locations }
}

// ---------------------------------------------------------------------
// Wire layer
// ---------------------------------------------------------------------

#[test]
fn dip_header_roundtrips() {
    let mut r = rng(0x01);
    for case in 0..256 {
        let repr = arb_repr(&mut r);
        let payload = arb_bytes(&mut r, 63);
        let bytes = repr.to_bytes(&payload).unwrap();
        assert_eq!(bytes.len(), repr.header_len() + payload.len(), "case {case}");
        let pkt = DipPacket::new_checked(&bytes[..]).unwrap();
        let parsed = DipRepr::parse(&pkt).unwrap();
        assert_eq!(parsed, repr, "case {case}");
        assert_eq!(pkt.payload(), &payload[..], "case {case}");
    }
}

#[test]
fn header_len_formula_holds() {
    // §2.2: header length is derivable from FN_Num and FN_LocLen alone.
    let mut r = rng(0x02);
    for case in 0..256 {
        let repr = arb_repr(&mut r);
        assert_eq!(repr.header_len(), 6 + 6 * repr.fns.len() + repr.locations.len(), "case {case}");
    }
}

#[test]
fn truncated_packets_never_panic() {
    let mut r = rng(0x03);
    for _ in 0..256 {
        let repr = arb_repr(&mut r);
        let bytes = repr.to_bytes(b"xy").unwrap();
        let cut = r.gen_index(100).min(bytes.len());
        // Must return an error or a packet, never panic.
        let _ = DipPacket::new_checked(&bytes[..cut]);
    }
}

#[test]
fn bit_field_write_then_read() {
    let mut r = rng(0x04);
    for case in 0..512 {
        let mut buf = {
            let n = 1 + r.gen_index(63);
            let mut v = vec![0u8; n];
            r.fill_bytes(&mut v);
            v
        };
        let total_bits = buf.len() * 8;
        let off = r.gen_index(256) % total_bits;
        let len = r.gen_index(128).min(total_bits - off);
        let needed = bits::byte_len(len);
        let mut value = vec![0u8; needed.max(r.gen_index(20))];
        r.fill_bytes(&mut value);
        let before = buf.clone();
        bits::write_bits(&mut buf, off, len, &value).unwrap();
        let read = bits::read_bits(&buf, off, len).unwrap();
        // The read value equals the written value up to pad bits.
        let mut expected = value[..needed].to_vec();
        if !len.is_multiple_of(8) && needed > 0 {
            expected[needed - 1] &= 0xffu8 << (8 - len % 8);
        }
        assert_eq!(read, expected, "case {case}");
        // Bits outside the field are untouched.
        for i in 0..total_bits {
            if i < off || i >= off + len {
                assert_eq!(
                    bits::get_bit(&buf, i).unwrap(),
                    bits::get_bit(&before, i).unwrap(),
                    "case {case}: bit {i} changed"
                );
            }
        }
    }
}

#[test]
fn triple_wire_roundtrip() {
    let mut r = rng(0x05);
    for case in 0..512 {
        let t = arb_triple(&mut r);
        let mut buf = [0u8; 6];
        t.emit(&mut buf).unwrap();
        assert_eq!(FnTriple::parse(&buf).unwrap(), t, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Crypto invariants
// ---------------------------------------------------------------------

#[test]
fn aes_decrypt_inverts_encrypt() {
    let mut r = rng(0x08);
    for case in 0..256 {
        let mut key = [0u8; 16];
        let mut block = [0u8; 16];
        r.fill_bytes(&mut key);
        r.fill_bytes(&mut block);
        let aes = dip::crypto::Aes128::new(&key);
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        assert_eq!(b, block, "case {case}");
    }
}

#[test]
fn mac_distinguishes_messages() {
    use dip::crypto::{CbcMac, MacAlgorithm};
    let mut r = rng(0x09);
    for case in 0..256 {
        let mut key = [0u8; 16];
        r.fill_bytes(&mut key);
        let a = arb_bytes(&mut r, 79);
        let b = arb_bytes(&mut r, 79);
        if a == b {
            continue;
        }
        let mac = CbcMac::new_2em(&key);
        assert_ne!(mac.mac(&a), mac.mac(&b), "case {case}");
    }
}

#[test]
fn mmo_hash_is_injective_on_sample() {
    let mut r = rng(0x0a);
    for case in 0..256 {
        let a = arb_bytes(&mut r, 63);
        let b = arb_bytes(&mut r, 63);
        if a == b {
            continue;
        }
        assert_ne!(dip::crypto::mmo_hash(&a), dip::crypto::mmo_hash(&b), "case {case}");
    }
}

// ---------------------------------------------------------------------
// XIA DAGs
// ---------------------------------------------------------------------

#[test]
fn acyclic_dags_roundtrip() {
    // Build random DAGs with forward-only edges (guaranteed acyclic).
    use dip_wire::xia::{Dag, DagNode, Xid, XidType, NO_EDGE};
    let mut r = rng(0x0b);
    for case in 0..256 {
        let n = 1 + r.gen_index(5);
        let seed = r.next_u64();
        let mut x = seed | 1;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let nodes: Vec<DagNode> = (0..n)
            .map(|i| {
                let mut edges = [NO_EDGE; 4];
                for e in edges.iter_mut() {
                    let candidates = (n - i - 1) as u64;
                    if candidates > 0 && rand() % 2 == 0 {
                        *e = (i + 1 + (rand() % candidates) as usize) as u8;
                    }
                }
                DagNode {
                    ty: XidType::from_wire((rand() % 5) as u32 + 0x10),
                    xid: Xid::derive(&rand().to_be_bytes()),
                    edges,
                }
            })
            .collect();
        let dag = Dag::new(&[0], nodes).unwrap();
        let enc = dag.encode();
        let (dec, used) = Dag::decode(&enc).unwrap();
        assert_eq!(dec, dag, "case {case}");
        assert_eq!(used, enc.len(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// PIT model
// ---------------------------------------------------------------------

#[test]
fn pit_never_exceeds_capacity() {
    let mut r = rng(0x0c);
    for case in 0..64 {
        let cap = 1 + r.gen_index(15);
        let n_ops = 1 + r.gen_index(199);
        let mut pit: Pit<u32> = Pit::new(cap, 100);
        let mut now = 0;
        for _ in 0..n_ops {
            let name = r.next_u32() % 20;
            let face = r.next_u32() % 4;
            let nonce = r.next_u64();
            now += 1;
            let _ = pit.record_interest(name, face, nonce, now);
            assert!(pit.len() <= cap, "case {case}");
        }
    }
}

#[test]
fn pit_consume_returns_recorded_faces_once() {
    let mut r = rng(0x0d);
    for case in 0..256 {
        let faces: Vec<u32> = (0..1 + r.gen_index(5)).map(|_| r.next_u32() % 8).collect();
        let mut pit: Pit<u32> = Pit::new(64, 1000);
        for (i, f) in faces.iter().enumerate() {
            let _ = pit.record_interest(1, *f, i as u64, 0);
        }
        let got = pit.consume(&1, 10).unwrap();
        // Every recorded face present exactly once, in first-seen order.
        let mut unique: Vec<u32> = Vec::new();
        for f in faces {
            if !unique.contains(&f) {
                unique.push(f);
            }
        }
        assert_eq!(got.as_slice(), unique.as_slice(), "case {case}");
        assert!(pit.consume(&1, 11).is_none(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// End-to-end property: OPT verification accepts iff untampered
// ---------------------------------------------------------------------

#[test]
fn opt_verifies_iff_untampered() {
    let mut r = rng(0x0e);
    for case in 0..32 {
        let payload = {
            let mut v = vec![0u8; 1 + r.gen_index(127)];
            r.fill_bytes(&mut v);
            v
        };
        let tamper_at = if r.gen_bool(0.5) { Some(r.gen_index(68)) } else { None };
        let secret = [3u8; 16];
        let session = OptSession::establish([1; 16], &[2; 16], &[secret]);
        let mut router = DipRouter::new(0, secret);
        router.config_mut().default_port = Some(1);
        let mut buf = session.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        router.process(&mut buf, 0, 0);
        if let Some(at) = tamper_at {
            let loc_start = 6 + 4 * 6;
            buf[loc_start + at] ^= 0x01;
        }
        let mut host_state = RouterState::new(99, [0; 16]);
        let result =
            deliver(&mut buf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 0);
        match tamper_at {
            None => assert_eq!(result.map(|d| d.verified), Ok(true), "case {case}"),
            Some(_) => assert_ne!(result.map(|d| d.verified), Ok(true), "case {case}"),
        }
    }
}
