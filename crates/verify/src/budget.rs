//! Resource budgets: the one budget type of the workspace.
//!
//! §2.4 asks for "a hard limit for packet processing time and per-packet
//! state consumption"; §4.1's prototype runs on a Tofino, whose PISA
//! pipeline has a fixed number of match-action stages and charges a full
//! extra pipeline pass per resubmission. Both are limits on the same
//! architecture units the operation modules report (FNs, stages, lookups,
//! cipher blocks, resubmits), so one type carries them: the resource pass
//! checks a program against it before deployment, and a router computes
//! from it, once per compiled chain, where a packet's processing stops.
//!
//! The budget lives here (in `dip-verify`) rather than in `dip-sim` so the
//! dependency order stays acyclic: the sim's `TofinoModel` *bridges to* a
//! budget, not the other way around.

/// Capacity limits of a deployment target's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Router-executed FNs per packet. Only routers enforce it; the
    /// resource pass leaves chain length to the other four limits.
    pub max_fns: u32,
    /// Match-action stages available to the FN chain.
    pub max_stages: u32,
    /// Table lookups (SRAM exact / TCAM LPM) available per packet.
    pub max_table_lookups: u32,
    /// 128-bit cipher-block operations the arithmetic stages can absorb
    /// per packet.
    pub max_cipher_blocks: u32,
    /// Packet resubmissions (extra full pipeline passes) allowed.
    pub max_resubmits: u32,
}

impl ResourceBudget {
    /// A router's per-packet processing limits (§2.4): every paper
    /// protocol fits comfortably, an adversarial 255-FN chain of MACs
    /// does not.
    pub fn router() -> Self {
        ResourceBudget {
            max_fns: 32,
            max_stages: 64,
            max_table_lookups: 64,
            max_cipher_blocks: 64,
            max_resubmits: 4,
        }
    }

    /// A Tofino-class PISA pipeline (§4.1): 12 stages, one resubmission.
    ///
    /// The cipher budget is sized so the heaviest paper composition
    /// (NDN+OPT: ≈10 blocks per packet) fits with headroom while a chain
    /// of stacked MACs does not.
    pub fn tofino() -> Self {
        ResourceBudget {
            max_fns: u32::MAX,
            max_stages: 12,
            max_table_lookups: 8,
            max_cipher_blocks: 24,
            max_resubmits: 1,
        }
    }

    /// A software dataplane: no hard stage fabric, generous limits that
    /// only catch runaway chains.
    pub fn software() -> Self {
        ResourceBudget {
            max_fns: u32::MAX,
            max_stages: 256,
            max_table_lookups: 256,
            max_cipher_blocks: 4096,
            max_resubmits: 64,
        }
    }

    /// No limits at all: disables the resource pass and never stops a
    /// router's walk (for baselines and ablations).
    pub fn unconstrained() -> Self {
        ResourceBudget {
            max_fns: u32::MAX,
            max_stages: u32::MAX,
            max_table_lookups: u32::MAX,
            max_cipher_blocks: u32::MAX,
            max_resubmits: u32::MAX,
        }
    }
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::tofino()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_tofino_profile() {
        assert_eq!(ResourceBudget::default(), ResourceBudget::tofino());
        assert_eq!(ResourceBudget::tofino().max_stages, 12);
    }

    #[test]
    fn profiles_are_ordered_by_generosity() {
        let t = ResourceBudget::tofino();
        let s = ResourceBudget::software();
        let u = ResourceBudget::unconstrained();
        assert!(t.max_stages < s.max_stages && s.max_stages < u.max_stages);
        assert!(t.max_cipher_blocks < s.max_cipher_blocks);
    }
}
