//! Interconnect energy accounting (§6.2 of the paper).
//!
//! "The data transfer via the inter-GPM links also leads to higher power
//! dissipation (e.g. 10pJ/bit for board or 250pJ/bit for nodes based on
//! different integration technologies). By reducing inter-GPM memory
//! traffic, OO-VR also achieves significant energy and cost saving."
//!
//! This module turns a frame's traffic ledger into link-transfer energy for
//! both integration technologies, so the energy claim of §6.2 is
//! reproducible alongside the traffic claim of Fig. 16.

use oovr_mem::Traffic;

/// Energy per transferred bit for on-board (package-level, GRS-class)
/// integration.
pub const BOARD_PJ_PER_BIT: f64 = 10.0;

/// Energy per transferred bit for node-level (system-level) integration.
pub const NODE_PJ_PER_BIT: f64 = 250.0;

/// Energy per *local* DRAM bit, for completeness of the comparison
/// (HBM-class local access, roughly 4 pJ/bit).
pub const LOCAL_DRAM_PJ_PER_BIT: f64 = 4.0;

/// Inter-GPM link energy of a traffic ledger in microjoules.
pub fn link_energy_uj(traffic: &Traffic, pj_per_bit: f64) -> f64 {
    traffic.inter_gpm_bytes() as f64 * 8.0 * pj_per_bit * 1e-6
}

/// Local DRAM energy of a traffic ledger in microjoules.
pub fn local_energy_uj(traffic: &Traffic) -> f64 {
    traffic.local_bytes() as f64 * 8.0 * LOCAL_DRAM_PJ_PER_BIT * 1e-6
}

/// A frame's memory-system energy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySummary {
    /// Link energy at board-level integration (µJ).
    pub link_board_uj: f64,
    /// Link energy at node-level integration (µJ).
    pub link_node_uj: f64,
    /// Local DRAM energy (µJ).
    pub local_uj: f64,
}

impl EnergySummary {
    /// Computes the summary for a traffic ledger.
    pub fn of(traffic: &Traffic) -> Self {
        EnergySummary {
            link_board_uj: link_energy_uj(traffic, BOARD_PJ_PER_BIT),
            link_node_uj: link_energy_uj(traffic, NODE_PJ_PER_BIT),
            local_uj: local_energy_uj(traffic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_mem::{GpmId, TrafficClass};

    fn traffic() -> Traffic {
        let mut t = Traffic::new(2);
        t.add_remote(GpmId(0), GpmId(1), TrafficClass::Texture, 1_000_000);
        t.add_local(GpmId(0), TrafficClass::Texture, 1_000_000);
        t
    }

    #[test]
    fn link_energy_scales_with_technology() {
        let t = traffic();
        let board = link_energy_uj(&t, BOARD_PJ_PER_BIT);
        let node = link_energy_uj(&t, NODE_PJ_PER_BIT);
        assert!((node / board - 25.0).abs() < 1e-9, "250/10 pJ ratio");
        // 1 MB over the link at 10 pJ/bit = 80 µJ.
        assert!((board - 80.0).abs() < 1e-9);
    }

    #[test]
    fn remote_bits_cost_more_than_local() {
        let t = traffic();
        let s = EnergySummary::of(&t);
        // Equal local and remote byte counts, but remote dominates energy.
        // (local_bytes includes the DRAM read backing the remote transfer.)
        assert!(s.link_board_uj > s.local_uj / 2.0);
        assert!(s.link_node_uj > s.link_board_uj);
    }

    #[test]
    fn zero_traffic_zero_energy() {
        let t = Traffic::new(4);
        let s = EnergySummary::of(&t);
        assert_eq!((s.link_board_uj, s.link_node_uj, s.local_uj), (0.0, 0.0, 0.0));
    }
}
