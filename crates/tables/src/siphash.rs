//! SipHash, the keyed hash behind the router's flow-state maps.
//!
//! `std`'s `RandomState` is SipHash-1-3 under a key drawn per process, so
//! two runs of one router lay their maps out differently — and whether a
//! map rehashes at a given insert differs from run to run. A router's
//! tables instead hash under a key derived from its secret
//! ([`TableHasher`](crate::TableHasher)): the layout repeats, and a sender
//! who does not know the secret still cannot aim keys at one bucket.
//!
//! [`SipHasher`] is generic over its rounds: SipHash-1-3 (`SipHasher13`)
//! is what the maps use, SipHash-2-4 (`SipHasher24`) is the variant the
//! published test vectors pin.

use std::hash::Hasher;

/// SipHash with `C` compression and `D` finalization rounds, keyed by
/// two 64-bit words.
#[derive(Debug, Clone)]
pub struct SipHasher<const C: usize, const D: usize> {
    v: [u64; 4],
    /// Bytes written so far (only the low byte enters the result).
    len: u64,
    /// Up to seven bytes not yet compressed, little-endian.
    tail: u64,
    ntail: usize,
}

/// SipHash-1-3, as `std`'s `RandomState` uses.
pub type SipHasher13 = SipHasher<1, 3>;
/// SipHash-2-4, the original parameters.
pub type SipHasher24 = SipHasher<2, 4>;

impl<const C: usize, const D: usize> SipHasher<C, D> {
    /// A hasher under the key `(k0, k1)`.
    pub fn new_with_keys(k0: u64, k1: u64) -> Self {
        SipHasher {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            len: 0,
            tail: 0,
            ntail: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        for _ in 0..C {
            self.round();
        }
        self.v[0] ^= m;
    }

    /// Writes the `size` (≤ 8) low bytes of `x`, least significant first
    /// (what `write` of its little-endian bytes does), without the byte
    /// loop: the maps' `u32` keys and length prefixes hash in a word's
    /// worth of shifts.
    #[inline]
    fn write_word(&mut self, x: u64, size: usize) {
        self.len = self.len.wrapping_add(size as u64);
        self.tail |= x << (8 * self.ntail);
        if self.ntail + size < 8 {
            self.ntail += size;
            return;
        }
        let m = self.tail;
        self.compress(m);
        // The bytes of `x` that did not fit in the word just compressed.
        let used = 8 - self.ntail;
        self.tail = if used < 8 { x >> (8 * used) } else { 0 };
        self.ntail = size - used;
    }
}

impl<const C: usize, const D: usize> Hasher for SipHasher<C, D> {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        // Top the tail up to a word first.
        while self.ntail != 0 {
            let Some((&b, rest)) = bytes.split_first() else { return };
            self.tail |= u64::from(b) << (8 * self.ntail);
            self.ntail = (self.ntail + 1) % 8;
            bytes = rest;
            if self.ntail == 0 {
                let m = std::mem::take(&mut self.tail);
                self.compress(m);
            }
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.compress(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = words.remainder().len();
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_word(u64::from(i), 4);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_word(i as u64, size_of::<usize>());
    }

    fn finish(&self) -> u64 {
        let mut s = self.clone();
        s.compress(s.tail | (self.len & 0xff) << 56);
        s.v[2] ^= 0xff;
        for _ in 0..D {
            s.round();
        }
        s.v.iter().fold(0, |acc, v| acc ^ v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_crypto::DetRng;

    fn digest<const C: usize, const D: usize>(key: [u64; 2], pieces: &[&[u8]]) -> u64 {
        let mut h = SipHasher::<C, D>::new_with_keys(key[0], key[1]);
        for piece in pieces {
            h.write(piece);
        }
        h.finish()
    }

    /// The reference key `00 01 .. 0f`.
    const KEY: [u64; 2] = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];

    #[test]
    fn siphash24_matches_the_published_vectors() {
        let message: Vec<u8> = (0..64u8).collect();
        // From the SipHash paper (appendix A) and its reference vectors.
        assert_eq!(digest::<2, 4>(KEY, &[&message[..15]]), 0xa129_ca61_49be_45e5);
        assert_eq!(digest::<2, 4>(KEY, &[]), 0x726f_db47_dd0e_0e31);
        assert_eq!(digest::<2, 4>(KEY, &[&message[..1]]), 0x74f8_39c5_93dc_67fd);
        assert_eq!(digest::<2, 4>(KEY, &[&message[..8]]), 0x93f5_f579_9a93_2462);
    }

    #[test]
    fn split_writes_hash_like_one_write() {
        let mut rng = DetRng::seed_from_u64(0x51b);
        let message: Vec<u8> = (0..40).map(|_| rng.next_u32() as u8).collect();
        for len in 0..message.len() {
            let whole = digest::<1, 3>(KEY, &[&message[..len]]);
            for cut in 0..=len {
                let split = digest::<1, 3>(KEY, &[&message[..cut], &message[cut..len]]);
                assert_eq!(split, whole, "len {len} cut {cut}");
            }
        }
        // Integer writes hash like their little-endian bytes, at any tail.
        for lead in 0..8 {
            let mut words = SipHasher13::new_with_keys(KEY[0], KEY[1]);
            let mut bytes = words.clone();
            words.write(&message[..lead]);
            bytes.write(&message[..lead]);
            words.write_u32(0x0403_0201);
            words.write_usize(0x0c0b_0a09_0807_0605);
            bytes.write(&(1..13).collect::<Vec<u8>>());
            assert_eq!(words.finish(), bytes.finish(), "after {lead} bytes");
        }
        assert_ne!(digest::<1, 3>(KEY, &[b"a"]), digest::<1, 3>([KEY[1], KEY[0]], &[b"a"]));
        assert_ne!(digest::<1, 3>(KEY, &[b"a"]), digest::<2, 4>(KEY, &[b"a"]));
    }
}
