//! A 128-bit unkeyed hash for OPT's DataHash field.
//!
//! Matyas–Meyer–Oseas construction over AES-128 with a fixed IV:
//!
//! ```text
//! H_0 = IV;   H_i = E_{H_{i-1}}(m_i) ⊕ m_i
//! ```
//!
//! with Merkle–Damgård strengthening (length in the final block). 128-bit
//! MMO is what resource-constrained packet processors (e.g. Zigbee/802.15.4
//! hardware) actually deploy; for this reproduction it binds the OPT OPV/PVF
//! tags to the payload exactly as the paper's DataHash does.

use crate::aes::Kernel;
use crate::{Aes128, Block};

const IV: Block = *b"DIP MMO hash IV!";

/// Hashes `data` to 128 bits.
pub fn mmo_hash(data: &[u8]) -> Block {
    mmo_hash_with(Kernel::selected(), data)
}

/// [`mmo_hash`] on `kernel`.
pub(crate) fn mmo_hash_with(kernel: Kernel, data: &[u8]) -> Block {
    let mut state = IV;
    let mut compress = |block: &Block| {
        let mut out = Aes128::with_kernel(kernel, &state).cbc([*block]);
        for (o, m) in out.iter_mut().zip(block.iter()) {
            *o ^= m;
        }
        state = out;
    };

    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut b = [0u8; 16];
        b.copy_from_slice(chunk);
        compress(&b);
    }
    let rem = chunks.remainder();
    // Final block: 10* padding, then a strengthening block with the bit
    // length (merged into the pad block when it fits).
    let mut last = [0u8; 16];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] = 0x80;
    let bitlen = (data.len() as u64).wrapping_mul(8).to_be_bytes();
    if rem.len() < 8 {
        last[8..16].copy_from_slice(&bitlen);
        compress(&last);
    } else {
        compress(&last);
        let mut strengthening = [0u8; 16];
        strengthening[8..16].copy_from_slice(&bitlen);
        compress(&strengthening);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(mmo_hash(b"content"), mmo_hash(b"content"));
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(mmo_hash(b"a"), mmo_hash(b"b"));
        assert_ne!(mmo_hash(b""), mmo_hash(b"\0"));
        // Padding must not collide a message with its padded form.
        let mut padded = b"hello".to_vec();
        padded.push(0x80);
        assert_ne!(mmo_hash(b"hello"), mmo_hash(&padded));
    }

    #[test]
    fn length_extension_blocked_by_strengthening() {
        // Same 16-byte prefix, different total lengths.
        let a = mmo_hash(&[7u8; 16]);
        let b = mmo_hash(&[7u8; 17]);
        let c = mmo_hash(&[7u8; 32]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn no_collisions_over_small_corpus() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..2000 {
            assert!(seen.insert(mmo_hash(&i.to_be_bytes())), "collision at {i}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise both padding paths: rem <= 7 (merged) and rem >= 8
        // (separate strengthening block), plus exact block multiples.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 52] {
            let data = vec![0x5au8; len];
            let h = mmo_hash(&data);
            assert_eq!(h, mmo_hash(&data), "len {len}");
        }
    }
}
