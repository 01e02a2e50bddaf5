//! AES-128, straight from FIPS-197, and the choice of kernel.
//!
//! Two kernels run the rounds. Where the CPU has the AES instructions
//! (x86-64 reporting `aes`), the kernel in `ni.rs` runs each round as one
//! `aesenc`. Everywhere else the portable T-table kernel here runs it: the
//! state is four big-endian column words ([`State`]), and one round is
//! sixteen loads from four 1 KiB tables that fold SubBytes, ShiftRows and
//! MixColumns together — the table lookup a match-action stage performs
//! for a fixed permutation. `Kernel::selected` picks one at run time, a
//! key schedule records the kernel that built it, and the outputs are
//! byte-identical. AES plays two roles here: it is the MAC baseline the
//! paper compares 2EM against (§4.1: AES needs a resubmission on Tofino),
//! and its round function — with fixed, public round keys — supplies the
//! public permutations of the 2EM construction. Decryption, which only
//! tests use, stays byte-oriented on either kernel's schedule.

#[cfg(target_arch = "x86_64")]
use crate::ni;
use crate::Block;

#[cfg(test)]
pub(crate) mod model;

/// The AES state as four column words: word `c` holds block bytes
/// `4c..4c + 4`, row 0 in the most significant byte.
pub type State = [u32; 4];

/// The AES S-box.
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Multiplication by x in GF(2^8) mod x^8 + x^4 + x^3 + x + 1.
#[inline]
pub(crate) const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General GF(2^8) multiplication (only small constants are ever used).
#[inline]
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// The round table for the state byte in row `row` of its column:
/// `S[x]` times MixColumns' column `(2, 1, 1, 3)`, rotated down `row` rows.
const fn t_table(row: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]).rotate_right(8 * row);
        i += 1;
    }
    t
}

static T0: [u32; 256] = t_table(0);
static T1: [u32; 256] = t_table(1);
static T2: [u32; 256] = t_table(2);
static T3: [u32; 256] = t_table(3);

/// The block as column words.
#[inline(always)]
pub(crate) fn load(block: &Block) -> State {
    core::array::from_fn(|c| {
        u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
    })
}

/// The column words as a block.
#[inline(always)]
pub(crate) fn store(state: State) -> Block {
    let mut block = [0u8; 16];
    for (out, word) in block.chunks_exact_mut(4).zip(state) {
        out.copy_from_slice(&word.to_be_bytes());
    }
    block
}

/// Word-wise XOR.
#[inline(always)]
pub(crate) fn xor(a: State, b: State) -> State {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// SubBytes + ShiftRows + MixColumns: output column `c` takes row `r` from
/// input column `c + r`.
#[inline(always)]
pub(crate) fn round(s: State) -> State {
    let col = |c: usize| {
        T0[(s[c] >> 24) as u8 as usize]
            ^ T1[(s[(c + 1) & 3] >> 16) as u8 as usize]
            ^ T2[(s[(c + 2) & 3] >> 8) as u8 as usize]
            ^ T3[s[(c + 3) & 3] as u8 as usize]
    };
    [col(0), col(1), col(2), col(3)]
}

/// SubBytes + ShiftRows: the last AES round has no MixColumns.
#[inline(always)]
fn final_round(s: State) -> State {
    let sub = |word: u32, shift: u32| u32::from(SBOX[(word >> shift) as u8 as usize]) << shift;
    let col = |c: usize| {
        sub(s[c], 24) | sub(s[(c + 1) & 3], 16) | sub(s[(c + 2) & 3], 8) | sub(s[(c + 3) & 3], 0)
    };
    [col(0), col(1), col(2), col(3)]
}

/// SubWord: the S-box on each byte of a key-schedule word.
#[inline(always)]
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

#[inline]
fn inv_sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// Byte layout: column-major as in FIPS-197 — with the flat `[u8;16]`
// representation in block order, row r of column c is byte 4c + r.
#[inline]
fn inv_shift_rows(state: &mut Block) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn inv_mix_columns(state: &mut Block) {
    for c in 0..4 {
        let i = 4 * c;
        let (a0, a1, a2, a3) = (state[i], state[i + 1], state[i + 2], state[i + 3]);
        state[i] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        state[i + 1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        state[i + 2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        state[i + 3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

#[inline]
fn add_round_key(state: &mut Block, rk: &Block) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

/// Which implementation runs a key schedule's rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// T-table rounds: every host.
    Table,
    /// `aesenc` rounds: x86-64 hosts whose CPU reports `aes`.
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Ni),
}

impl Kernel {
    /// The kernel this host runs: AES-NI where the CPU has it, the T-table
    /// kernel otherwise. Every public constructor asks this once.
    pub(crate) fn selected() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::Ni::detect() {
            return Kernel::Ni(ni);
        }
        Kernel::Table
    }

    /// Every kernel this host can run, the portable one first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Table];
        kernels.extend(Some(Kernel::selected()).filter(|k| *k != Kernel::Table));
        kernels
    }
}

/// CBC-chains `blocks` from a zero IV through `encrypt` on column words;
/// returns the last ciphertext.
#[inline(always)]
pub(crate) fn cbc_words(
    blocks: impl IntoIterator<Item = Block>,
    mut encrypt: impl FnMut(State) -> State,
) -> Block {
    store(blocks.into_iter().fold([0; 4], |s, b| encrypt(xor(s, load(&b)))))
}

/// The T-table key schedule.
fn expand(key: &Block) -> [State; 11] {
    const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
    let mut round_keys = [[0u32; 4]; 11];
    round_keys[0] = load(key);
    for r in 1..11 {
        let prev = round_keys[r - 1];
        // RotWord is a one-byte left rotation of the big-endian word.
        let w0 = prev[0] ^ sub_word(prev[3].rotate_left(8)) ^ (u32::from(RCON[r - 1]) << 24);
        let w1 = prev[1] ^ w0;
        let w2 = prev[2] ^ w1;
        round_keys[r] = [w0, w1, w2, prev[3] ^ w2];
    }
    round_keys
}

/// Encrypts one block held as column words on the T-table kernel.
#[inline(always)]
fn encrypt_words(round_keys: &[State; 11], state: State) -> State {
    let mut s = xor(state, round_keys[0]);
    for rk in &round_keys[1..10] {
        s = xor(round(s), *rk);
    }
    xor(final_round(s), round_keys[10])
}

/// An expanded AES-128 key (11 round keys), in the form its kernel runs.
#[derive(Clone)]
pub struct Aes128 {
    keys: AesKeys,
}

#[derive(Clone)]
enum AesKeys {
    Table([State; 11]),
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Aes128),
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &Block) -> Self {
        Aes128::with_kernel(Kernel::selected(), key)
    }

    /// Expands a 128-bit key for `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel, key: &Block) -> Self {
        let keys = match kernel {
            Kernel::Table => AesKeys::Table(expand(key)),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ni(ni) => AesKeys::Ni(ni::Aes128::new(ni, key)),
        };
        Aes128 { keys }
    }

    /// Whether this schedule runs on the AES-NI kernel.
    #[cfg(test)]
    pub(crate) fn runs_on_ni(&self) -> bool {
        !matches!(self.keys, AesKeys::Table(_))
    }

    /// The 11 round keys in FIPS-197 byte order.
    pub(crate) fn round_keys(&self) -> [Block; 11] {
        match &self.keys {
            AesKeys::Table(rk) => rk.map(store),
            #[cfg(target_arch = "x86_64")]
            AesKeys::Ni(k) => k.round_keys(),
        }
    }

    /// CBC-chains `blocks` from a zero IV; returns the last ciphertext.
    pub(crate) fn cbc(&self, blocks: impl IntoIterator<Item = Block>) -> Block {
        match &self.keys {
            AesKeys::Table(rk) => cbc_words(blocks, |s| encrypt_words(rk, s)),
            #[cfg(target_arch = "x86_64")]
            AesKeys::Ni(k) => k.cbc(blocks),
        }
    }

    /// Encrypts one block in place.
    pub fn encrypt_block(&self, block: &mut Block) {
        *block = self.cbc([*block]);
    }

    /// Decrypts one block in place.
    pub fn decrypt_block(&self, block: &mut Block) {
        let rk = self.round_keys();
        add_round_key(block, &rk[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            add_round_key(block, &rk[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &rk[0]);
    }

    /// Encrypts and returns a copy.
    pub fn encrypt(&self, block: &Block) -> Block {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

/// One unkeyed AES round (SubBytes + ShiftRows + MixColumns) — the public
/// permutation building block used by [`crate::even_mansour`].
pub fn aes_round(block: &mut Block) {
    *block = store(round(load(block)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = block("3243f6a8885a308d313198a2e0370734");
        let ct = block("3925841d02dc09fbdc118597196a0b32");
        for kernel in Kernel::available() {
            assert_eq!(Aes128::with_kernel(kernel, &key).encrypt(&pt), ct, "{kernel:?}");
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1.
        let key = block("000102030405060708090a0b0c0d0e0f");
        let pt = block("00112233445566778899aabbccddeeff");
        let ct = block("69c4e0d86a7b0430d8cdb78070b4c55a");
        for kernel in Kernel::available() {
            assert_eq!(Aes128::with_kernel(kernel, &key).encrypt(&pt), ct, "{kernel:?}");
        }
    }

    #[test]
    fn the_cpu_aes_round_is_the_selected_kernel() {
        // What the benchmark measures on an AES-NI host is the NI kernel:
        // every public constructor picks it when the CPU reports `aes`.
        let key = [7u8; 16];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            assert!(matches!(Kernel::selected(), Kernel::Ni(_)));
            assert_eq!(Kernel::available().len(), 2);
            assert!(Aes128::new(&key).runs_on_ni());
            assert!(crate::TwoRoundEm::new(&key).runs_on_ni());
            assert!(crate::TwoRoundEm::from_subkeys(key, key, key).runs_on_ni());
            assert!(crate::SessionKdf::new(&key).runs_on_ni());
            return;
        }
        assert_eq!(Kernel::selected(), Kernel::Table);
        assert!(!Aes128::new(&key).runs_on_ni());
    }

    #[test]
    fn fips197_appendix_a1_last_round_key() {
        // FIPS-197 Appendix A.1: w[40..44] for the Appendix B key.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        for kernel in Kernel::available() {
            let last = Aes128::with_kernel(kernel, &key).round_keys()[10];
            assert_eq!(load(&last), [0xd014f9a8, 0xc9ee2589, 0xe13f0cc8, 0xb6630ca6], "{kernel:?}");
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        for seed in 0u8..16 {
            let mut b: Block =
                core::array::from_fn(|i| seed.wrapping_mul(31).wrapping_add(i as u8));
            let orig = b;
            aes.encrypt_block(&mut b);
            assert_ne!(b, orig);
            aes.decrypt_block(&mut b);
            assert_eq!(b, orig);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [42u8; 16];
        assert_ne!(a.encrypt(&pt), b.encrypt(&pt));
    }

    #[test]
    fn gf_multiplication_identities() {
        assert_eq!(gmul(0x57, 0x01), 0x57);
        assert_eq!(gmul(0x57, 0x02), xtime(0x57));
        // FIPS-197 §4.2 example: {57} . {13} = {fe}
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn t_tables_are_rotations_of_one_column() {
        for x in 0..256 {
            assert_eq!(T1[x], T0[x].rotate_right(8));
            assert_eq!(T2[x], T0[x].rotate_right(16));
            assert_eq!(T3[x], T0[x].rotate_right(24));
        }
        // S(0x00) = 0x63: the column (2, 1, 1, 3) * 0x63.
        assert_eq!(T0[0], 0xc663_63a5);
    }

    #[test]
    fn words_round_trip_blocks() {
        let b: Block = core::array::from_fn(|i| i as u8);
        assert_eq!(load(&b), [0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f]);
        assert_eq!(store(load(&b)), b);
    }

    #[test]
    fn shift_rows_inverse() {
        let mut s: Block = core::array::from_fn(|i| i as u8);
        let orig = s;
        model::shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_inverse() {
        let mut s: Block = core::array::from_fn(|i| (i * 7 + 3) as u8);
        let orig = s;
        model::mix_columns(&mut s);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn aes_round_is_a_permutation_fragment() {
        // Not a full test of bijectivity, but the round must be
        // deterministic and change the input.
        let mut a = [7u8; 16];
        let mut b = [7u8; 16];
        aes_round(&mut a);
        aes_round(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, [7u8; 16]);
    }
}
