//! Key derivation for OPT sessions.
//!
//! OPT's key model (following DRKey): every router `i` owns a local secret
//! `S_i`; for a session identified by `session_id` it derives the *dynamic
//! key* `K_i = PRF(S_i, session_id)` **on the fly** — no per-flow state.
//! The source and destination learn every `K_i` during session setup
//! (§3: "the router will derive a dynamic key from session ID in the packet
//! header with its local key ... the dynamic key ... is shared with the
//! host"), so they can predict and verify the PVF/OPV chains.
//!
//! `F_parm` (key 6) is exactly this derivation performed per packet.

use crate::aes::Kernel;
use crate::mac::{CbcMac, MacAlgorithm};
use crate::{Block, TwoRoundEm};

/// A PRF with 128-bit output: 2EM-CBC-MAC of `label || data` under `key`.
///
/// The label provides domain separation between the different uses of a
/// router secret (session keys, source labels, bootstrap cookies, ...).
pub fn prf(key: &Block, label: &str, data: &[u8]) -> Block {
    prf_with(Kernel::selected(), key, label, data)
}

/// [`prf`] on `kernel`.
pub(crate) fn prf_with(kernel: Kernel, key: &Block, label: &str, data: &[u8]) -> Block {
    let mac = CbcMac::new(TwoRoundEm::with_kernel(kernel, key));
    let mut msg = Vec::with_capacity(1 + label.len() + data.len());
    msg.push(label.len() as u8);
    msg.extend_from_slice(label.as_bytes());
    msg.extend_from_slice(data);
    mac.mac(&msg)
}

/// Derives router `i`'s dynamic key for a session:
/// `K_i = PRF(local_secret, "opt-session", session_id)`, through a
/// one-shot [`SessionKdf`] (the same three block encryptions, no message
/// buffer).
pub fn derive_session_key(local_secret: &Block, session_id: &Block) -> Block {
    SessionKdf::new(local_secret).derive(session_id)
}

/// A precomputed schedule for [`derive_session_key`].
///
/// The per-packet work of `F_parm` is `PRF(S_i, "opt-session", sid)` — a
/// CBC-MAC over the 28-byte message `len(label) || label || sid`. Everything
/// except the 16 session-id bytes is a program constant, so the length-prefix
/// block and the label prefix of the first message block can be folded into a
/// single chaining value once per router. A schedule built here performs two
/// block encryptions per derivation instead of three, and is what `dipopt`
/// hoists to once-per-`ProgramCache`-entry setup.
#[derive(Clone)]
pub struct SessionKdf {
    cipher: TwoRoundEm,
    /// `E(len_block)` with the constant first 12 message bytes
    /// (`0x0b || "opt-session"`) already XOR-folded in.
    prefix: Block,
}

impl SessionKdf {
    /// Folds the session-independent CBC-MAC state for `local_secret`.
    pub fn new(local_secret: &Block) -> Self {
        SessionKdf::with_kernel(Kernel::selected(), local_secret)
    }

    /// [`SessionKdf::new`] on `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel, local_secret: &Block) -> Self {
        let cipher = TwoRoundEm::with_kernel(kernel, local_secret);
        let label = b"opt-session";
        // Message layout: 1 length byte + 11 label bytes + 16 sid bytes.
        let msg_len = 1 + label.len() + 16;
        let mut prefix: Block = [0u8; 16];
        prefix[8..16].copy_from_slice(&(msg_len as u64 * 8).to_be_bytes());
        cipher.encrypt_block(&mut prefix);
        prefix[0] ^= label.len() as u8;
        for (p, l) in prefix[1..12].iter_mut().zip(label.iter()) {
            *p ^= l;
        }
        SessionKdf { cipher, prefix }
    }

    /// Whether this schedule runs on the AES-NI kernel.
    #[cfg(test)]
    pub(crate) fn runs_on_ni(&self) -> bool {
        self.cipher.runs_on_ni()
    }

    /// Derives the dynamic key for `session_id`; byte-identical to
    /// [`derive_session_key`] with the secret this schedule was built from.
    pub fn derive(&self, session_id: &Block) -> Block {
        // First message block: constant prefix (already folded) + sid[0..4].
        let mut first = self.prefix;
        for (p, s) in first[12..].iter_mut().zip(&session_id[..4]) {
            *p ^= s;
        }
        // Final partial block: sid[4..16] with 10* padding.
        let mut last = [0u8; 16];
        last[..12].copy_from_slice(&session_id[4..]);
        last[12] = 0x80;
        self.cipher.cbc([first, last])
    }
}

impl core::fmt::Debug for SessionKdf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SessionKdf").finish_non_exhaustive()
    }
}

/// Derives the AS-level key used by `F_pass` source labels (§2.4):
/// `K_pass = PRF(as_secret, "pass-label", source_id)`.
pub fn derive_pass_key(as_secret: &Block, source_id: &[u8]) -> Block {
    prf(as_secret, "pass-label", source_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_is_deterministic() {
        let k = [1u8; 16];
        assert_eq!(prf(&k, "a", b"x"), prf(&k, "a", b"x"));
    }

    #[test]
    fn labels_are_domain_separating() {
        let k = [1u8; 16];
        assert_ne!(prf(&k, "a", b"x"), prf(&k, "b", b"x"));
        // Label/data boundary matters: ("ab", "c") != ("a", "bc").
        assert_ne!(prf(&k, "ab", b"c"), prf(&k, "a", b"bc"));
    }

    #[test]
    fn session_keys_differ_per_router_and_session() {
        let s1 = [1u8; 16];
        let s2 = [2u8; 16];
        let sid_a = [0xaau8; 16];
        let sid_b = [0xbbu8; 16];
        assert_ne!(derive_session_key(&s1, &sid_a), derive_session_key(&s2, &sid_a));
        assert_ne!(derive_session_key(&s1, &sid_a), derive_session_key(&s1, &sid_b));
        // Host-side recomputation matches (the property OPT relies on).
        assert_eq!(derive_session_key(&s1, &sid_a), derive_session_key(&s1, &sid_a));
    }

    #[test]
    fn session_kdf_matches_per_packet_derivation() {
        // The hoisted schedule must be byte-identical to the interpreted
        // path for every (secret, sid) pair — this is the property the
        // dipopt equivalence gate leans on.
        for secret_byte in [0u8, 1, 0x42, 0xff] {
            let secret = [secret_byte; 16];
            let kdf = SessionKdf::new(&secret);
            for sid_seed in 0u8..8 {
                let mut sid = [0u8; 16];
                for (i, b) in sid.iter_mut().enumerate() {
                    *b = sid_seed.wrapping_mul(31).wrapping_add(i as u8);
                }
                assert_eq!(kdf.derive(&sid), prf(&secret, "opt-session", &sid));
            }
        }
    }

    #[test]
    fn pass_key_distinct_from_session_key() {
        let secret = [3u8; 16];
        let id = [4u8; 16];
        assert_ne!(derive_pass_key(&secret, &id), derive_session_key(&secret, &id));
    }
}
