//! The PISA / Tofino pipeline timing model (§4.1, Figure 2 substitute).
//!
//! §4.1 describes how the prototype maps DIP onto a Tofino: the FN loop is
//! unrolled into an if-else chain selected by `FN_Num`, preset field slices
//! feed per-key match-action tables, and the MAC uses 2EM because "AES
//! needs to resubmit the packet" while 2EM "can be completed without
//! resubmitting".
//!
//! This model converts the architecture costs a router reports
//! ([`dip_core::ProcessStats`]) into nanoseconds:
//!
//! ```text
//! t = base
//!   + stages·t_stage·(plan_depth/fns)   (modular parallelism, §2.2)
//!   + lookups·t_lookup
//!   + cipher_blocks·t_block
//!   + resubmits·t_pipeline              (AES penalty)
//!   + wire_bytes·8 / line_rate          (serialization)
//! ```
//!
//! Constants are calibrated to commodity Tofino figures from the public
//! literature (≈400 ns pipeline traversal, ~1 ns/stage at 12+ stages,
//! SRAM/TCAM lookups folded into their stage). Absolute values are *not*
//! claimed to match the paper's testbed — the reproduction target is the
//! relative shape of Figure 2 (DIP ≈ IP; OPT/NDN+OPT pay for MACs; size
//! affects all protocols equally through serialization).

use dip_core::ProcessStats;
use dip_fnops::context::MacChoice;

/// A calibrated pipeline timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TofinoModel {
    /// Fixed traversal cost of the ingress+egress pipeline (ns).
    pub base_ns: f64,
    /// Per-occupied-stage cost (ns).
    pub stage_ns: f64,
    /// Per table lookup (ns) — SRAM exact/TCAM LPM access.
    pub lookup_ns: f64,
    /// Per 128-bit cipher-block operation (ns) — one 2EM/AES-equivalent
    /// block pass through the arithmetic stages.
    pub cipher_block_ns: f64,
    /// Cost of a full packet resubmission (ns) — what AES pays (§4.1).
    pub resubmit_ns: f64,
    /// Line rate in bits per nanosecond (100 Gbps = 100 bits/ns).
    pub line_rate_bits_per_ns: f64,
}

impl TofinoModel {
    /// Calibrated defaults for a Tofino-class switch port at 100 Gbps.
    pub fn tofino() -> Self {
        TofinoModel {
            base_ns: 400.0,
            stage_ns: 15.0,
            lookup_ns: 25.0,
            cipher_block_ns: 40.0,
            resubmit_ns: 450.0,
            line_rate_bits_per_ns: 100.0,
        }
    }

    /// The static-verification budget matching this timing profile: the
    /// bridge from the sim's deployment target to [`dip_verify`]'s
    /// resource pass. A profile with no resubmission concept (a software
    /// target) maps to the generous software budget; every hardware-shaped
    /// profile gets the Tofino pipeline limits.
    pub fn resource_budget(&self) -> dip_verify::ResourceBudget {
        if self.resubmit_ns == 0.0 {
            dip_verify::ResourceBudget::software()
        } else {
            dip_verify::ResourceBudget::tofino()
        }
    }

    /// Processing time for one packet given the router's reported stats,
    /// the wire size, and the cipher backing `F_MAC`.
    pub fn process_ns(&self, stats: &ProcessStats, wire_bytes: usize, mac: MacChoice) -> f64 {
        // Modular parallelism: stage occupancy shrinks by the plan's
        // depth/width ratio (§2.2); lookups and cipher math are
        // resource-bound and do not shrink.
        let depth_ratio = if stats.fns_executed > 0 {
            stats.plan_depth as f64 / stats.fns_executed as f64
        } else {
            1.0
        };
        let resubmits = stats.cost.resubmits
            + match mac {
                // §4.1: AES cannot finish in one pass.
                MacChoice::Aes if stats.cost.cipher_blocks > 0 => 1,
                _ => 0,
            };
        self.base_ns
            + f64::from(stats.cost.stages) * self.stage_ns * depth_ratio
            + f64::from(stats.cost.table_lookups) * self.lookup_ns
            + f64::from(stats.cost.cipher_blocks) * self.cipher_block_ns
            + f64::from(resubmits) * self.resubmit_ns
            + (wire_bytes as f64 * 8.0) / self.line_rate_bits_per_ns
    }
}

impl Default for TofinoModel {
    fn default() -> Self {
        TofinoModel::tofino()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::DipRouter;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;
    use dip_wire::ndn::Name;

    fn stats_for(repr: dip_wire::packet::DipRepr, payload: &[u8]) -> (ProcessStats, usize) {
        let mut r = DipRouter::new(0, [1; 16]);
        r.config_mut().default_port = Some(1);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(0, 0, 0, 0), 0, NextHop::port(1));
        routes.insert_name(&Name::parse("hotnets.org"), NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        let mut buf = repr.to_bytes(payload).unwrap();
        let len = buf.len();
        let (_, stats) = r.process(&mut buf, 0, 0);
        (stats, len)
    }

    #[test]
    fn opt_costs_more_than_ip() {
        let m = TofinoModel::tofino();
        let ip = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            64,
        );
        let (ip_stats, ip_len) = stats_for(ip, &[0u8; 64]);
        let session = dip_protocols::opt::OptSession::establish([1; 16], &[2; 16], &[[1; 16]]);
        let (opt_stats, opt_len) = stats_for(session.packet(&[0u8; 64], 1, 64), &[0u8; 64]);
        let t_ip = m.process_ns(&ip_stats, ip_len, MacChoice::TwoRoundEm);
        let t_opt = m.process_ns(&opt_stats, opt_len, MacChoice::TwoRoundEm);
        assert!(t_opt > t_ip, "OPT {t_opt} must exceed IP {t_ip}");
    }

    #[test]
    fn aes_pays_a_resubmission_2em_does_not() {
        let m = TofinoModel::tofino();
        let session = dip_protocols::opt::OptSession::establish([1; 16], &[2; 16], &[[1; 16]]);
        let (stats, len) = stats_for(session.packet(b"x", 1, 64), b"x");
        let t_em = m.process_ns(&stats, len, MacChoice::TwoRoundEm);
        let t_aes = m.process_ns(&stats, len, MacChoice::Aes);
        assert!((t_aes - t_em - m.resubmit_ns).abs() < 1e-9);
    }

    #[test]
    fn serialization_scales_with_packet_size() {
        let m = TofinoModel::tofino();
        let stats = ProcessStats::default();
        let t128 = m.process_ns(&stats, 128, MacChoice::TwoRoundEm);
        let t1500 = m.process_ns(&stats, 1500, MacChoice::TwoRoundEm);
        let delta = t1500 - t128;
        assert!((delta - (1500.0 - 128.0) * 8.0 / 100.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_plan_reduces_stage_time_only() {
        let m = TofinoModel::tofino();
        let mut stats = ProcessStats {
            fns_executed: 4,
            cost: dip_fnops::OpCost { stages: 8, table_lookups: 2, cipher_blocks: 4, resubmits: 0 },
            plan_depth: 4,
            ..Default::default()
        };
        let t_seq = m.process_ns(&stats, 128, MacChoice::TwoRoundEm);
        stats.plan_depth = 2;
        let t_par = m.process_ns(&stats, 128, MacChoice::TwoRoundEm);
        assert!(t_par < t_seq);
        // Only the stage component halves.
        assert!((t_seq - t_par - 8.0 * m.stage_ns * 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_fns_means_baseline_plus_serialization() {
        let m = TofinoModel::tofino();
        let stats = ProcessStats::default();
        let t = m.process_ns(&stats, 0, MacChoice::TwoRoundEm);
        assert!((t - m.base_ns).abs() < 1e-9);
    }

    #[test]
    fn dip_overhead_vs_native_ip_is_small() {
        // Figure 2's headline: DIP processing ≈ IP baseline. Model a native
        // IP hop as one lookup + one stage, DIP-32 as two ops.
        let m = TofinoModel::tofino();
        let native = ProcessStats {
            fns_executed: 1,
            plan_depth: 1,
            cost: dip_fnops::OpCost::lookup(1, 1),
            ..Default::default()
        };
        let t_native = m.process_ns(&native, 128, MacChoice::TwoRoundEm);

        let ip = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            64,
        );
        let (dip_stats, _) = stats_for(ip, &[0u8; 102]);
        let t_dip = m.process_ns(&dip_stats, 128, MacChoice::TwoRoundEm);
        let overhead = (t_dip - t_native) / t_native;
        assert!(overhead < 0.15, "DIP overhead {overhead:.2} too large for Figure 2's claim");
    }
}
