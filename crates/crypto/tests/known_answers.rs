//! Known answers for every primitive of the crate.
//!
//! Each primitive runs on 4,096 seeded inputs and its outputs are folded
//! into one FNV-1a 64-bit digest. The expected digests were computed with
//! the byte-oriented AES kernel (16 S-box loads, a byte ShiftRows and an
//! `xtime` MixColumns per round) that the word-oriented T-table kernel
//! replaced, so byte identity with it is a number in the tree rather than
//! only agreement with the in-crate model. A digest that moves means every
//! OPT tag on the wire moved with it.

use dip_crypto::aes::aes_round;
use dip_crypto::even_mansour::{p1, p2};
use dip_crypto::{
    mmo_hash, prf, Aes128, Block, CbcMac, DetRng, MacAlgorithm, SessionKdf, TwoRoundEm,
};

/// Outputs folded into each digest.
const OUTPUTS: usize = 4096;

/// The digests of the byte-oriented kernel, one per primitive.
const EXPECTED: [(&str, u64); 12] = [
    ("aes_round", 0x5b34_8137_d752_9002),
    ("p1", 0x542d_ba56_32f1_bbcf),
    ("p2", 0x85b3_8c51_5857_e495),
    ("aes128_encrypt", 0x2bef_e490_f82d_f277),
    ("aes128_decrypt", 0x4cea_402a_45cc_5415),
    ("two_round_em_new", 0x5bbc_7d78_d07e_892c),
    ("two_round_em_from_subkeys", 0xcb07_8d8f_c442_fca2),
    ("cbc_mac_2em", 0x47c1_7c9f_e8a5_5583),
    ("cbc_mac_aes", 0x1a08_4c5d_f281_0c1f),
    ("session_kdf_derive", 0x1288_f9e9_f353_05cf),
    ("prf", 0x8575_b688_a920_c6af),
    ("mmo_hash", 0xfcb1_75ac_b2e9_ef69),
];

fn block(rng: &mut DetRng) -> Block {
    let mut b = [0u8; 16];
    rng.fill_bytes(&mut b);
    b
}

fn message(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut m = vec![0u8; len];
    rng.fill_bytes(&mut m);
    m
}

/// FNV-1a over the `OUTPUTS` outputs of `f`; `f` gets the case index and
/// a generator seeded with `seed`.
fn digest(seed: u64, mut f: impl FnMut(&mut DetRng, usize) -> Block) -> u64 {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..OUTPUTS {
        for b in f(&mut rng, i) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_primitive_matches_its_known_answer_digest() {
    let permuted = |permute: fn(&mut Block)| {
        move |r: &mut DetRng, _: usize| {
            let mut b = block(r);
            permute(&mut b);
            b
        }
    };
    let actual = [
        ("aes_round", digest(1, permuted(aes_round))),
        ("p1", digest(2, permuted(p1))),
        ("p2", digest(3, permuted(p2))),
        (
            "aes128_encrypt",
            digest(4, |r, _| {
                let aes = Aes128::new(&block(r));
                let mut b = block(r);
                aes.encrypt_block(&mut b);
                b
            }),
        ),
        (
            "aes128_decrypt",
            digest(5, |r, _| {
                let aes = Aes128::new(&block(r));
                let mut b = block(r);
                aes.decrypt_block(&mut b);
                b
            }),
        ),
        (
            "two_round_em_new",
            digest(6, |r, _| {
                let em = TwoRoundEm::new(&block(r));
                em.encrypt(&block(r))
            }),
        ),
        (
            "two_round_em_from_subkeys",
            digest(7, |r, _| {
                let em = TwoRoundEm::from_subkeys(block(r), block(r), block(r));
                em.encrypt(&block(r))
            }),
        ),
        (
            "cbc_mac_2em",
            digest(8, |r, i| {
                let mac = CbcMac::new_2em(&block(r));
                mac.mac(&message(r, i % 81))
            }),
        ),
        (
            "cbc_mac_aes",
            digest(9, |r, i| {
                let mac = CbcMac::new_aes(&block(r));
                mac.mac(&message(r, i % 81))
            }),
        ),
        (
            "session_kdf_derive",
            digest(10, |r, _| {
                let kdf = SessionKdf::new(&block(r));
                kdf.derive(&block(r))
            }),
        ),
        (
            "prf",
            digest(11, |r, i| {
                let key = block(r);
                let label = ["opt-session", "pass-label", "", "x"][i % 4];
                prf(&key, label, &message(r, i % 49))
            }),
        ),
        ("mmo_hash", digest(12, |r, i| mmo_hash(&message(r, i % 81)))),
    ];
    assert_eq!(actual, EXPECTED);
}
