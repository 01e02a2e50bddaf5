//! 2EM — the two-round key-alternating (iterated Even–Mansour) cipher.
//!
//! Bogdanov et al. \[2\] prove security bounds for ciphers of the form
//!
//! ```text
//! E(x) = k2 ⊕ P2( k1 ⊕ P1( k0 ⊕ x ) )
//! ```
//!
//! where `P1`, `P2` are *fixed, public* permutations. The DIP prototype uses
//! 2EM for `F_MAC` because, unlike AES (ten data-dependent keyed rounds),
//! 2EM's two public permutations can be baked into match-action stages and
//! the whole cipher finishes in a single pass through a Tofino pipeline —
//! no packet resubmission (§4.1). We reproduce that trade-off in
//! `dip-sim`'s pipeline timing model.
//!
//! We instantiate `P1` and `P2` as four unkeyed AES rounds each with
//! distinct round constants mixed in — fixed, public, and cheap. (Any fixed
//! permutation satisfies the 2EM contract; AES rounds are the standard
//! choice in the literature.)

use crate::aes::{cbc_words, load, round, store, xor, Kernel, State};
#[cfg(target_arch = "x86_64")]
use crate::ni;
use crate::{Aes128, Block};

/// Number of unkeyed AES rounds in each public permutation.
const ROUNDS_PER_PERM: usize = 4;

/// Round constants mixed into the public permutations so P1 ≠ P2 and
/// neither has the all-zero fixed point of raw AES rounds.
pub(crate) const P1_CONST: Block = *b"DIP 2EM perm #1\x01";
pub(crate) const P2_CONST: Block = *b"DIP 2EM perm #2\x02";

/// A public permutation on column words: XOR in its constant, then
/// [`ROUNDS_PER_PERM`] unkeyed AES rounds.
#[inline(always)]
fn permute(state: State, constant: &Block) -> State {
    let mut s = xor(state, load(constant));
    for _ in 0..ROUNDS_PER_PERM {
        s = round(s);
    }
    s
}

/// The first public permutation (on the T-table kernel).
pub fn p1(block: &mut Block) {
    *block = store(permute(load(block), &P1_CONST));
}

/// The second public permutation (on the T-table kernel).
pub fn p2(block: &mut Block) {
    *block = store(permute(load(block), &P2_CONST));
}

/// A 2EM instance with its three subkeys, in the form its kernel runs.
#[derive(Clone)]
pub struct TwoRoundEm {
    keys: EmKeys,
}

#[derive(Clone)]
enum EmKeys {
    /// `k0`, `k1`, `k2` as column words.
    Table([State; 3]),
    #[cfg(target_arch = "x86_64")]
    Ni(ni::TwoRoundEm),
}

/// `k2 ⊕ P2(k1 ⊕ P1(k0 ⊕ x))` on column words.
#[inline(always)]
fn encrypt_words([k0, k1, k2]: &[State; 3], state: State) -> State {
    let s = permute(xor(state, *k0), &P1_CONST);
    xor(permute(xor(s, *k1), &P2_CONST), *k2)
}

impl TwoRoundEm {
    /// Derives the three subkeys from a single 128-bit master key.
    ///
    /// Subkeys are produced by encrypting distinct constants under the master
    /// key with AES — a standard KDF-by-PRP construction, so related master
    /// keys do not yield related subkeys.
    pub fn new(master: &Block) -> Self {
        TwoRoundEm::with_kernel(Kernel::selected(), master)
    }

    /// [`TwoRoundEm::new`] on `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel, master: &Block) -> Self {
        let keys = match kernel {
            Kernel::Table => {
                let aes = Aes128::with_kernel(kernel, master);
                EmKeys::Table([0u8, 1, 2].map(|c| load(&aes.cbc([[c; 16]]))))
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ni(ni) => EmKeys::Ni(ni::TwoRoundEm::new(ni, master)),
        };
        TwoRoundEm { keys }
    }

    /// Builds an instance from explicit subkeys (used by tests and by the
    /// known-answer fixtures).
    pub fn from_subkeys(k0: Block, k1: Block, k2: Block) -> Self {
        TwoRoundEm::from_subkeys_with(Kernel::selected(), [k0, k1, k2])
    }

    /// [`TwoRoundEm::from_subkeys`] on `kernel`.
    pub(crate) fn from_subkeys_with(kernel: Kernel, subkeys: [Block; 3]) -> Self {
        let keys = match kernel {
            Kernel::Table => EmKeys::Table(subkeys.map(|k| load(&k))),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ni(ni) => EmKeys::Ni(ni::TwoRoundEm::from_subkeys(ni, subkeys)),
        };
        TwoRoundEm { keys }
    }

    /// Whether this instance runs on the AES-NI kernel.
    #[cfg(test)]
    pub(crate) fn runs_on_ni(&self) -> bool {
        !matches!(self.keys, EmKeys::Table(_))
    }

    /// CBC-chains `blocks` from a zero IV; returns the last ciphertext.
    pub(crate) fn cbc(&self, blocks: impl IntoIterator<Item = Block>) -> Block {
        match &self.keys {
            EmKeys::Table(k) => cbc_words(blocks, |s| encrypt_words(k, s)),
            #[cfg(target_arch = "x86_64")]
            EmKeys::Ni(k) => k.cbc(blocks),
        }
    }

    /// Encrypts one block in place: `k2 ⊕ P2(k1 ⊕ P1(k0 ⊕ x))`.
    pub fn encrypt_block(&self, block: &mut Block) {
        *block = self.cbc([*block]);
    }

    /// Encrypts and returns a copy.
    pub fn encrypt(&self, block: &Block) -> Block {
        self.cbc([*block])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_key_dependent() {
        let a = TwoRoundEm::new(&[7u8; 16]);
        let b = TwoRoundEm::new(&[8u8; 16]);
        let pt = [3u8; 16];
        assert_eq!(a.encrypt(&pt), a.encrypt(&pt));
        assert_ne!(a.encrypt(&pt), b.encrypt(&pt));
        assert_ne!(a.encrypt(&pt), pt);
    }

    #[test]
    fn public_permutations_differ() {
        let mut x = [0u8; 16];
        let mut y = [0u8; 16];
        p1(&mut x);
        p2(&mut y);
        assert_ne!(x, y);
        assert_ne!(x, [0u8; 16]);
        assert_ne!(y, [0u8; 16]);
    }

    #[test]
    fn zero_subkeys_reduce_to_public_permutation() {
        // With all-zero keys 2EM is P2∘P1 — still a fixed permutation, and
        // our construction must match composing the parts manually.
        let em = TwoRoundEm::from_subkeys([0; 16], [0; 16], [0; 16]);
        let pt = [0x5au8; 16];
        let mut manual = pt;
        p1(&mut manual);
        p2(&mut manual);
        assert_eq!(em.encrypt(&pt), manual);
    }

    #[test]
    fn input_sensitivity() {
        // Flipping one input bit must change the output (trivially true for
        // a permutation, but guards against state-handling bugs).
        let em = TwoRoundEm::new(&[9u8; 16]);
        let a = em.encrypt(&[0u8; 16]);
        let mut flipped = [0u8; 16];
        flipped[0] = 1;
        let b = em.encrypt(&flipped);
        assert_ne!(a, b);
        // Diffusion: a 1-bit flip should change many output bytes.
        let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
        assert!(differing >= 8, "weak diffusion: only {differing} bytes differ");
    }

    #[test]
    fn no_trivial_collisions_over_counter_inputs() {
        let em = TwoRoundEm::new(&[1u8; 16]);
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..512 {
            let mut pt = [0u8; 16];
            pt[..8].copy_from_slice(&i.to_be_bytes());
            assert!(seen.insert(em.encrypt(&pt)), "collision at {i}");
        }
    }
}
