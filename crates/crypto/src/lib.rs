//! # dip-crypto — self-contained crypto substrate for DIP/OPT
//!
//! OPT \[16\] requires every on-path router to compute keyed MACs over packet
//! fields, and the DIP prototype (§4.1) chose **2EM** — a two-round
//! key-alternating (Even–Mansour) cipher \[2\] — because it completes in one
//! pass through a Tofino pipeline, whereas AES needs a packet resubmission.
//!
//! This crate implements, from scratch:
//!
//! * [`aes::Aes128`] — FIPS-197 AES-128 (the comparison baseline, and the
//!   source of the fixed public permutations used by 2EM), on one of two
//!   kernels chosen at run time: the CPU's AES round instruction where it
//!   has one (x86-64 reporting `aes`), a word-oriented T-table round
//!   everywhere else;
//! * [`even_mansour::TwoRoundEm`] — the 2EM cipher: `E(x) = P2(P1(x ⊕ k0) ⊕ k1) ⊕ k2`
//!   with fixed, publicly known AES permutations `P1`, `P2`;
//! * [`mac`] — length-prefixed CBC-MAC over either block cipher;
//! * [`kdf`] — the PRF/key-derivation used for OPT's per-session router keys
//!   (DRKey style: `K_i = PRF(secret_i, session_id)`);
//! * [`hash`] — a 128-bit Matyas–Meyer–Oseas hash for OPT's DataHash field;
//! * [`ct_eq`] — constant-time comparison for verifying authentication tags.
//!
//! The only `unsafe` is the AES-NI kernel's (`ni.rs`), where each call into
//! an AES-instruction function rests on the run-time CPU check. Both
//! kernels produce byte-identical output.
//!
//! These primitives are faithful algorithmic reproductions suitable for a
//! research prototype; they are **not** hardened against side channels
//! beyond tag comparison and must not guard real traffic. In particular the
//! portable T-table round indexes 4 KiB of tables by secret-dependent
//! bytes, so on hosts without AES instructions its timing varies with the
//! cache, as any table-driven AES (byte S-box included) does.

#![deny(unsafe_code)] // `ni` opts back in locally, with safety comments.
#![deny(missing_docs)]

pub mod aes;
pub mod even_mansour;
pub mod hash;
pub mod kdf;
pub mod mac;
#[cfg(target_arch = "x86_64")]
mod ni;
pub mod rng;

pub use aes::Aes128;
pub use even_mansour::TwoRoundEm;
pub use hash::mmo_hash;
pub use kdf::{derive_session_key, prf, SessionKdf};
pub use mac::{BlockCipher, CbcMac, MacAlgorithm};
pub use rng::DetRng;

/// A 128-bit block / key / tag.
pub type Block = [u8; 16];

/// Constant-time equality of two byte strings. Returns `false` for length
/// mismatch without early exit on content.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }
}
