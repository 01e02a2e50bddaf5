//! A byte-oriented AES kernel, the test oracle of the T-table and AES-NI
//! ones:
//! SubBytes, ShiftRows and MixColumns one byte at a time, the key schedule
//! over `[u8; 4]` words, and the 2EM, CBC-MAC, PRF and MMO constructions
//! rebuilt on top of it from their definitions. Nothing here shares code
//! with the kernel except the S-box and the inverse round steps, which
//! decryption uses in both.

use super::{inv_mix_columns, inv_shift_rows, inv_sub_bytes, xtime, SBOX};
use crate::Block;

pub(crate) fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// Row r of column c is byte 4c + r.
pub(crate) fn shift_rows(state: &mut Block) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

pub(crate) fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let i = 4 * c;
        let (a0, a1, a2, a3) = (state[i], state[i + 1], state[i + 2], state[i + 3]);
        state[i] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        state[i + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        state[i + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        state[i + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

fn xor_into(dst: &mut Block, src: &Block) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

/// One unkeyed round.
pub(crate) fn aes_round(block: &mut Block) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
}

/// Byte-oriented AES-128.
pub(crate) struct Aes128 {
    pub(crate) round_keys: [Block; 11],
}

impl Aes128 {
    pub(crate) fn new(key: &Block) -> Self {
        const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    pub(crate) fn encrypt_block(&self, block: &mut Block) {
        xor_into(block, &self.round_keys[0]);
        for round in 1..10 {
            aes_round(block);
            xor_into(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        xor_into(block, &self.round_keys[10]);
    }

    pub(crate) fn decrypt_block(&self, block: &mut Block) {
        xor_into(block, &self.round_keys[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            xor_into(block, &self.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        xor_into(block, &self.round_keys[0]);
    }

    fn encrypt(&self, block: &Block) -> Block {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

/// A 2EM public permutation: XOR the constant, four unkeyed rounds.
pub(crate) fn permute(block: &mut Block, constant: &Block) {
    xor_into(block, constant);
    for _ in 0..4 {
        aes_round(block);
    }
}

pub(crate) const P1_CONST: Block = *b"DIP 2EM perm #1\x01";
pub(crate) const P2_CONST: Block = *b"DIP 2EM perm #2\x02";

/// 2EM from explicit subkeys.
pub(crate) struct TwoRoundEm([Block; 3]);

impl TwoRoundEm {
    pub(crate) fn new(master: &Block) -> Self {
        let aes = Aes128::new(master);
        TwoRoundEm([aes.encrypt(&[0; 16]), aes.encrypt(&[1; 16]), aes.encrypt(&[2; 16])])
    }

    pub(crate) fn from_subkeys(k: [Block; 3]) -> Self {
        TwoRoundEm(k)
    }

    pub(crate) fn encrypt_block(&self, block: &mut Block) {
        xor_into(block, &self.0[0]);
        permute(block, &P1_CONST);
        xor_into(block, &self.0[1]);
        permute(block, &P2_CONST);
        xor_into(block, &self.0[2]);
    }
}

/// Length-prefixed CBC-MAC with 10* padding under `encrypt`.
pub(crate) fn cbc_mac(encrypt: impl Fn(&mut Block), data: &[u8]) -> Block {
    let mut state: Block = [0u8; 16];
    state[8..16].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    encrypt(&mut state);
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        xor_into(&mut state, chunk.try_into().unwrap());
        encrypt(&mut state);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 16];
        last[..rem.len()].copy_from_slice(rem);
        last[rem.len()] = 0x80;
        xor_into(&mut state, &last);
        encrypt(&mut state);
    }
    state
}

/// 2EM-CBC-MAC of `len(label) || label || data`.
pub(crate) fn prf(key: &Block, label: &str, data: &[u8]) -> Block {
    let em = TwoRoundEm::new(key);
    let mut msg = vec![label.len() as u8];
    msg.extend_from_slice(label.as_bytes());
    msg.extend_from_slice(data);
    cbc_mac(|b| em.encrypt_block(b), &msg)
}

/// Matyas–Meyer–Oseas over AES with Merkle–Damgård strengthening.
pub(crate) fn mmo_hash(data: &[u8]) -> Block {
    let mut state = *b"DIP MMO hash IV!";
    let mut compress = |block: &Block| {
        let mut out = Aes128::new(&state).encrypt(block);
        xor_into(&mut out, block);
        state = out;
    };
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        compress(chunk.try_into().unwrap());
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 16];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] = 0x80;
    let bitlen = (data.len() as u64 * 8).to_be_bytes();
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
    use crate::aes::Kernel;
    use crate::even_mansour::{p1, p2};
    use crate::{aes, CbcMac, DetRng, MacAlgorithm, SessionKdf};

    /// Cases in the differential, spread round-robin over the primitives.
    const CASES: usize = 100_000;
    /// Every CBC-MAC length from empty to five full blocks.
    const MAX_LEN: usize = 80;

    fn block(rng: &mut DetRng) -> Block {
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut b);
        b
    }

    /// The seeded inputs of one differential case.
    struct Case {
        primitive: usize,
        x: Block,
        keys: [Block; 3],
        data: Vec<u8>,
        label: &'static str,
    }

    impl Case {
        fn new(case: usize, rng: &mut DetRng) -> Self {
            let x = block(rng);
            let keys = [block(rng), block(rng), block(rng)];
            let mut data = vec![0u8; (case / 12) % (MAX_LEN + 1)];
            rng.fill_bytes(&mut data);
            let label = ["opt-session", "pass-label", "", "a longer label"][case / 12 % 4];
            Case { primitive: case % 12, x, keys, data, label }
        }

        /// The byte model's output.
        fn model(&self) -> Block {
            let (key, data, mut out) = (&self.keys[0], &self.data[..], self.x);
            match self.primitive {
                0 => aes_round(&mut out),
                1 => permute(&mut out, &P1_CONST),
                2 => permute(&mut out, &P2_CONST),
                3 => Aes128::new(key).encrypt_block(&mut out),
                4 => Aes128::new(key).decrypt_block(&mut out),
                5 => TwoRoundEm::new(key).encrypt_block(&mut out),
                6 => TwoRoundEm::from_subkeys(self.keys).encrypt_block(&mut out),
                7 => {
                    let em = TwoRoundEm::new(key);
                    out = cbc_mac(|b| em.encrypt_block(b), data);
                }
                8 => {
                    let aes = Aes128::new(key);
                    out = cbc_mac(|b| aes.encrypt_block(b), data);
                }
                9 => out = prf(key, "opt-session", &self.x),
                10 => out = prf(key, self.label, data),
                _ => out = mmo_hash(data),
            }
            out
        }

        /// The same primitive on `kernel` (the unkeyed round and
        /// permutations have only the T-table form).
        fn on(&self, kernel: Kernel) -> Block {
            let (key, data, mut out) = (&self.keys[0], &self.data[..], self.x);
            match self.primitive {
                0 => aes::aes_round(&mut out),
                1 => p1(&mut out),
                2 => p2(&mut out),
                3 => {
                    let aes = aes::Aes128::with_kernel(kernel, key);
                    assert_eq!(aes.round_keys(), Aes128::new(key).round_keys, "{kernel:?}");
                    aes.encrypt_block(&mut out);
                }
                4 => aes::Aes128::with_kernel(kernel, key).decrypt_block(&mut out),
                5 => crate::TwoRoundEm::with_kernel(kernel, key).encrypt_block(&mut out),
                6 => {
                    crate::TwoRoundEm::from_subkeys_with(kernel, self.keys).encrypt_block(&mut out)
                }
                7 => out = CbcMac::new(crate::TwoRoundEm::with_kernel(kernel, key)).mac(data),
                8 => out = CbcMac::new(aes::Aes128::with_kernel(kernel, key)).mac(data),
                9 => out = SessionKdf::with_kernel(kernel, key).derive(&self.x),
                10 => out = crate::kdf::prf_with(kernel, key, self.label, data),
                _ => out = crate::hash::mmo_hash_with(kernel, data),
            }
            out
        }
    }

    #[test]
    fn every_kernel_matches_the_byte_model() {
        // On an AES-NI host the public constructors only ever reach the NI
        // kernel, so each kernel this host can run is named explicitly and
        // checked against the model on every case.
        let kernels = Kernel::available();
        let mut rng = DetRng::seed_from_u64(0x7ab1e);
        for case in 0..CASES {
            let c = Case::new(case, &mut rng);
            let expected = c.model();
            for &kernel in &kernels {
                let ctx = || format!("keys {:02x?} x {:02x?} len {}", c.keys, c.x, c.data.len());
                assert_eq!(
                    c.on(kernel),
                    expected,
                    "{kernel:?} primitive {} {}",
                    c.primitive,
                    ctx()
                );
            }
        }
    }
}
