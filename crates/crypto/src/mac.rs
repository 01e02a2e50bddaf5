//! Length-prefixed CBC-MAC over a 128-bit block cipher.
//!
//! OPT's `F_MAC` and `F_mark` operations are keyed MACs over packet fields.
//! The classic CBC-MAC is only secure for fixed-length messages; prefixing
//! the message length in the first block restores security for variable
//! lengths (the standard "prepend length" fix), which is what routers need
//! since FN triples select variable-width target fields.

use crate::{Aes128, Block, TwoRoundEm};

/// Anything that can encrypt a 128-bit block with an already-scheduled key.
pub trait BlockCipher {
    /// Encrypts one block in place.
    fn encrypt_block(&self, block: &mut Block);

    /// CBC-chains `blocks` from an all-zero IV and returns the last
    /// ciphertext: the form CBC-MAC and the session KDF chain in, with one
    /// kernel dispatch per call rather than per block.
    fn cbc<I: IntoIterator<Item = Block>>(&self, blocks: I) -> Block;
}

impl BlockCipher for Aes128 {
    fn encrypt_block(&self, block: &mut Block) {
        Aes128::encrypt_block(self, block)
    }

    #[inline]
    fn cbc<I: IntoIterator<Item = Block>>(&self, blocks: I) -> Block {
        Aes128::cbc(self, blocks)
    }
}

impl BlockCipher for TwoRoundEm {
    fn encrypt_block(&self, block: &mut Block) {
        TwoRoundEm::encrypt_block(self, block)
    }

    #[inline]
    fn cbc<I: IntoIterator<Item = Block>>(&self, blocks: I) -> Block {
        TwoRoundEm::cbc(self, blocks)
    }
}

/// A MAC algorithm producing 128-bit tags.
pub trait MacAlgorithm {
    /// Computes the tag of `data`.
    fn mac(&self, data: &[u8]) -> Block;

    /// Verifies a tag in constant time.
    fn verify(&self, data: &[u8], tag: &Block) -> bool {
        crate::ct_eq(&self.mac(data), tag)
    }
}

/// Length-prefixed CBC-MAC over any [`BlockCipher`].
///
/// ```
/// use dip_crypto::{CbcMac, MacAlgorithm};
///
/// let mac = CbcMac::new_2em(&[7u8; 16]); // the paper's 2EM choice (§4.1)
/// let tag = mac.mac(b"field bytes");
/// assert!(mac.verify(b"field bytes", &tag));
/// assert!(!mac.verify(b"tampered bytes", &tag));
/// ```
pub struct CbcMac<C: BlockCipher> {
    cipher: C,
}

impl<C: BlockCipher> CbcMac<C> {
    /// Wraps a scheduled cipher.
    pub fn new(cipher: C) -> Self {
        CbcMac { cipher }
    }
}

impl CbcMac<TwoRoundEm> {
    /// Convenience constructor: 2EM CBC-MAC from a 128-bit key. This is the
    /// MAC the DIP prototype runs on routers (§4.1).
    pub fn new_2em(key: &Block) -> Self {
        CbcMac::new(TwoRoundEm::new(key))
    }
}

impl CbcMac<Aes128> {
    /// Convenience constructor: AES CBC-MAC from a 128-bit key (the
    /// comparison baseline that would require packet resubmission on
    /// Tofino).
    pub fn new_aes(key: &Block) -> Self {
        CbcMac::new(Aes128::new(key))
    }
}

impl<C: BlockCipher> MacAlgorithm for CbcMac<C> {
    fn mac(&self, data: &[u8]) -> Block {
        // First block: the message length in bits, big-endian, padded.
        let mut length = [0u8; 16];
        length[8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let chunks = data.chunks_exact(16);
        let rem = chunks.remainder();
        // 10* padding on the final partial block.
        let last = (!rem.is_empty()).then(|| {
            let mut last = [0u8; 16];
            last[..rem.len()].copy_from_slice(rem);
            last[rem.len()] = 0x80;
            last
        });
        let full = chunks.map(|chunk| -> Block { chunk.try_into().expect("16-byte chunk") });
        self.cipher.cbc(core::iter::once(length).chain(full).chain(last))
    }
}

/// Number of block-cipher invocations a CBC-MAC over `len` bytes performs —
/// used by the PISA timing model to cost `F_MAC` by field width.
pub fn cbc_mac_blocks(len: usize) -> usize {
    1 + len / 16 + usize::from(!len.is_multiple_of(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_deterministic_and_key_dependent() {
        let m1 = CbcMac::new_2em(&[1u8; 16]);
        let m2 = CbcMac::new_2em(&[2u8; 16]);
        let data = b"hotnets.org";
        assert_eq!(m1.mac(data), m1.mac(data));
        assert_ne!(m1.mac(data), m2.mac(data));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let m = CbcMac::new_2em(&[3u8; 16]);
        let tag = m.mac(b"payload");
        assert!(m.verify(b"payload", &tag));
        assert!(!m.verify(b"payloae", &tag));
        let mut bad = tag;
        bad[15] ^= 1;
        assert!(!m.verify(b"payload", &bad));
    }

    #[test]
    fn length_prefix_separates_lengths() {
        // Without the length prefix, mac(m) and mac(m || pad-looking-bytes)
        // could relate; with it, messages of different lengths that share a
        // padded form must differ.
        let m = CbcMac::new_2em(&[4u8; 16]);
        let a = m.mac(&[0x80]);
        let b = m.mac(&[]);
        assert_ne!(a, b);
        let c = m.mac(&[1, 0x80]);
        let d = m.mac(&[1]);
        assert_ne!(c, d);
    }

    #[test]
    fn aes_and_2em_variants_differ() {
        let key = [5u8; 16];
        let a = CbcMac::new_aes(&key).mac(b"same input");
        let b = CbcMac::new_2em(&key).mac(b"same input");
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_messages() {
        let m = CbcMac::new_aes(&[6u8; 16]);
        let long = vec![0xabu8; 52]; // OPT's F_MAC coverage is 52 bytes
        let tag = m.mac(&long);
        assert!(m.verify(&long, &tag));
        let mut tampered = long.clone();
        tampered[20] ^= 1;
        assert!(!m.verify(&tampered, &tag));
        // Exactly 3 message blocks + length block.
        assert_eq!(cbc_mac_blocks(52), 1 + 4);
    }

    #[test]
    fn block_count_formula() {
        assert_eq!(cbc_mac_blocks(0), 1);
        assert_eq!(cbc_mac_blocks(1), 2);
        assert_eq!(cbc_mac_blocks(16), 2);
        assert_eq!(cbc_mac_blocks(17), 3);
        assert_eq!(cbc_mac_blocks(32), 3);
    }

    #[test]
    fn exact_block_boundary_no_padding_confusion() {
        let m = CbcMac::new_2em(&[7u8; 16]);
        let sixteen = [9u8; 16];
        let mut seventeen = [9u8; 17];
        seventeen[16] = 0x80;
        // m(16 bytes) must differ from m(17 bytes whose last byte is the pad
        // byte) — guaranteed by the length prefix.
        assert_ne!(m.mac(&sixteen), m.mac(&seventeen));
    }
}
