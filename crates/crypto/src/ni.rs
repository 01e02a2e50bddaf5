//! The AES-NI kernel: AES-128 and 2EM on the CPU's own AES round.
//!
//! `aesenc` computes one full AES round — SubBytes, ShiftRows, MixColumns,
//! then the round-key XOR — in one instruction with no memory access, where
//! the T-table kernel spends sixteen dependent loads. It reads a block in
//! FIPS-197 byte order, so blocks load and store as they are. 2EM's
//! permutations are unkeyed rounds whose constants and subkeys fold into
//! three `aesenc` round keys (`k0 ⊕ P1_CONST`, `k1 ⊕ P2_CONST`, `k2`): a
//! block is one XOR and eight `aesenc`.
//!
//! This file is the crate's only `unsafe`. The intrinsics run only inside
//! `#[target_feature(enable = "aes")]` functions, and calling one of those
//! is sound only on a CPU that has the instructions. [`Ni`] is the proof:
//! it is built in one place, after `is_x86_feature_detected!("aes")`
//! held. Every key schedule here takes one to be built, and every call
//! into a feature function is made by a method that holds an `Ni` or a
//! schedule built with one.

#![allow(unsafe_code)]

use crate::even_mansour::{P1_CONST, P2_CONST};
use crate::Block;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_or_si128, _mm_set1_epi32,
    _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_epi32, _mm_slli_si128,
    _mm_srli_epi32, _mm_storeu_si128, _mm_xor_si128,
};

/// Proof that this CPU runs the AES instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ni(());

impl Ni {
    /// `Some` exactly when the CPU reports `aes`. std caches the CPUID
    /// probe, so only the first call asks the CPU.
    pub(crate) fn detect() -> Option<Ni> {
        std::arch::is_x86_feature_detected!("aes").then_some(Ni(()))
    }
}

#[inline(always)]
fn load(block: &Block) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, `loadu` needs no alignment, and
    // SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(x: __m128i) -> Block {
    let mut block = [0u8; 16];
    // SAFETY: `block` is 16 writable bytes, `storeu` needs no alignment, and
    // SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), x) };
    block
}

/// An expanded AES-128 key, one `__m128i` per round.
#[derive(Clone, Copy)]
pub(crate) struct Aes128([__m128i; 11]);

impl Aes128 {
    /// Expands `key` with `aeskeygenassist`.
    pub(crate) fn new(_: Ni, key: &Block) -> Self {
        // SAFETY: the `Ni` argument proves the CPU reported `aes`.
        Aes128(unsafe { expand(load(key)) })
    }

    /// The round keys in FIPS-197 byte order.
    pub(crate) fn round_keys(&self) -> [Block; 11] {
        self.0.map(store)
    }

    /// CBC-chains `blocks` from a zero IV; returns the last ciphertext.
    pub(crate) fn cbc(&self, blocks: impl IntoIterator<Item = Block>) -> Block {
        // SAFETY: an `Aes128` is built only by `new`, whose `Ni` argument
        // proves the CPU reported `aes`.
        unsafe { cbc_aes(&self.0, blocks) }
    }
}

/// 2EM with its subkeys and permutation constants folded into the round
/// keys of its first, fifth and last `aesenc`: `k0 ⊕ P1_CONST`,
/// `k1 ⊕ P2_CONST`, `k2`.
#[derive(Clone, Copy)]
pub(crate) struct TwoRoundEm([__m128i; 3]);

impl TwoRoundEm {
    /// Expands `master` and encrypts the three subkey constants under it,
    /// interleaved.
    pub(crate) fn new(_: Ni, master: &Block) -> Self {
        // SAFETY: the `Ni` argument proves the CPU reported `aes`.
        unsafe { em_schedule(load(master)) }
    }

    /// Folds explicit subkeys.
    pub(crate) fn from_subkeys(_: Ni, [k0, k1, k2]: [Block; 3]) -> Self {
        // SAFETY: the `Ni` argument proves the CPU reported `aes`.
        unsafe { fold(load(&k0), load(&k1), load(&k2)) }
    }

    /// CBC-chains `blocks` from a zero IV; returns the last ciphertext.
    pub(crate) fn cbc(&self, blocks: impl IntoIterator<Item = Block>) -> Block {
        // SAFETY: a `TwoRoundEm` is built only by `new` or `from_subkeys`,
        // whose `Ni` argument proves the CPU reported `aes`.
        unsafe { cbc_em(&self.0, blocks) }
    }
}

#[target_feature(enable = "aes")]
#[inline]
fn fold(k0: __m128i, k1: __m128i, k2: __m128i) -> TwoRoundEm {
    TwoRoundEm([_mm_xor_si128(k0, load(&P1_CONST)), _mm_xor_si128(k1, load(&P2_CONST)), k2])
}

/// The AES-128 key schedule. `aeskeygenassist` is slow on some cores and
/// wants its round constant as an immediate, so `SubWord` comes from
/// `aesenclast` instead: with word 3 broadcast to all four columns,
/// ShiftRows is the identity and the round is SubBytes alone.
#[target_feature(enable = "aes")]
fn expand(key: __m128i) -> [__m128i; 11] {
    const RCON: [i32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
    let mut rk = [key; 11];
    for (r, rcon) in (1..11).zip(RCON) {
        let prev = rk[r - 1];
        let sub = _mm_aesenclast_si128(_mm_shuffle_epi32::<0xff>(prev), _mm_setzero_si128());
        // RotWord: each little-endian column word one byte down.
        let rot = _mm_or_si128(_mm_srli_epi32::<8>(sub), _mm_slli_epi32::<24>(sub));
        // Each word XORs all the words before it.
        let mut k = prev;
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        rk[r] = _mm_xor_si128(k, _mm_xor_si128(rot, _mm_set1_epi32(rcon)));
    }
    rk
}

#[target_feature(enable = "aes")]
#[inline]
fn aes(rk: &[__m128i; 11], x: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(x, rk[0]);
    for k in &rk[1..10] {
        s = _mm_aesenc_si128(s, *k);
    }
    _mm_aesenclast_si128(s, rk[10])
}

/// `k2 ⊕ P2(k1 ⊕ P1(k0 ⊕ x))`, each permutation four unkeyed rounds.
#[target_feature(enable = "aes")]
#[inline]
fn em(&[k0, k1, k2]: &[__m128i; 3], x: __m128i) -> __m128i {
    let zero = _mm_setzero_si128();
    let mut s = _mm_xor_si128(x, k0);
    for k in [zero, zero, zero, k1, zero, zero, zero, k2] {
        s = _mm_aesenc_si128(s, k);
    }
    s
}

/// The subkeys are AES encryptions of `0^16`, `1^16` and `2^16` under
/// `master`; the three chains are independent, so they overlap.
#[target_feature(enable = "aes")]
fn em_schedule(master: __m128i) -> TwoRoundEm {
    let rk = expand(master);
    let mut a = _mm_xor_si128(_mm_set1_epi8(0), rk[0]);
    let mut b = _mm_xor_si128(_mm_set1_epi8(1), rk[0]);
    let mut c = _mm_xor_si128(_mm_set1_epi8(2), rk[0]);
    for k in &rk[1..10] {
        a = _mm_aesenc_si128(a, *k);
        b = _mm_aesenc_si128(b, *k);
        c = _mm_aesenc_si128(c, *k);
    }
    fold(
        _mm_aesenclast_si128(a, rk[10]),
        _mm_aesenclast_si128(b, rk[10]),
        _mm_aesenclast_si128(c, rk[10]),
    )
}

#[target_feature(enable = "aes")]
fn cbc_aes(rk: &[__m128i; 11], blocks: impl IntoIterator<Item = Block>) -> Block {
    let chained =
        blocks.into_iter().fold(_mm_setzero_si128(), |s, b| aes(rk, _mm_xor_si128(s, load(&b))));
    store(chained)
}

#[target_feature(enable = "aes")]
fn cbc_em(keys: &[__m128i; 3], blocks: impl IntoIterator<Item = Block>) -> Block {
    let chained =
        blocks.into_iter().fold(_mm_setzero_si128(), |s, b| em(keys, _mm_xor_si128(s, load(&b))));
    store(chained)
}
