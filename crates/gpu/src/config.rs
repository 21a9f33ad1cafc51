//! Simulator configuration: the Table 2 machine and the pipeline model's
//! constants, plus the few values the paper's experiments vary.

use oovr_mem::timing::FabricParams;
use oovr_mem::Cycle;

/// Gigabytes-per-second to bytes-per-cycle at the 1 GHz clock of Table 2.
pub fn gbps_to_bytes_per_cycle(gbps: f64) -> f64 {
    gbps * 1e9 / 1e9
}

/// One 90 Hz vsync interval in cycles at the 1 GHz clock of Table 2
/// (`1e9 / 90`, truncated). This is the per-frame refresh budget a stereo VR
/// HMD imposes on every serving session; the related
/// [`VR_DEADLINE_CYCLES`](crate::fault::VR_DEADLINE_CYCLES) is the slightly
/// tighter 11.1 ms budget the resilience deadline monitor uses.
pub const VSYNC_90HZ_CYCLES: Cycle = 11_111_111;

/// Most texel samples a quad may take: Table 2's 16× anisotropic
/// filtering. The fragment kernel gathers a quad's texel lines in a stack
/// array of this size.
pub const MAX_TEXEL_SAMPLES: usize = 16;

/// SMs per GPM (Table 2: 8).
pub const SMS_PER_GPM: u32 = 8;

/// Shader cores per SM (Table 2: 64).
pub const CORES_PER_SM: u32 = 64;

/// ROPs per GPM (Table 2: 8), each outputting 4 pixels/cycle (§3).
pub const ROPS_PER_GPM: u32 = 8;

/// NVLink ports per GPM (§3: 6; each pair of ports connects two GPMs, so a
/// 4-GPM system dedicates 2 ports to each of the 3 peers). With other GPM
/// counts the ports are divided among the peers, scaling the per-pair
/// bandwidth accordingly.
const PORTS_PER_GPM: u32 = 6;

/// Local DRAM bandwidth, GB/s (Table 2: 1000).
pub const DRAM_GBPS: f64 = 1000.0;

// Throughput and byte-cost constants of the pipeline model. One set drives
// every figure (no per-experiment tuning); the values are anchored to
// Table 2 and standard GPU ratios, then calibrated once against the
// paper's Fig. 4 bandwidth-sensitivity curve (see `EXPERIMENTS.md`).

/// Vertices shaded per cycle per GPM.
pub(crate) const VERTEX_RATE: f64 = 4.0;
/// Triangles set up per cycle per GPM (PME).
pub(crate) const TRIANGLE_RATE: f64 = 2.5;
/// Triangles re-projected per cycle by the SMP engine.
pub(crate) const SMP_RATE: f64 = 6.0;
/// 2×2 quads rasterized per cycle per GPM (raster engine).
pub(crate) const RASTER_QUAD_RATE: f64 = 32.0;
/// Shader cycles per fragment.
const CYCLES_PER_FRAGMENT: f64 = 16.0;
/// Bytes fetched per vertex (position + attributes).
pub(crate) const BYTES_PER_VERTEX: u64 = 32;
/// Texel sample points evaluated per 2×2 quad. Bilinear filtering at quad
/// granularity needs ~4; Table 2's 16× anisotropic filtering widens
/// footprints, which we model with extra spread-out samples.
pub const TEXEL_SAMPLES_PER_QUAD: u32 = 8;
const _: () = assert!(TEXEL_SAMPLES_PER_QUAD as usize <= MAX_TEXEL_SAMPLES);
/// Extra anisotropic spread in texels between sample points.
pub(crate) const ANISO_SPREAD: f32 = 12.0;
/// Texture sample points filtered per cycle per GPM (4 TXUs per SM, each
/// filtering a bilinear footprint per cycle).
pub(crate) const TXU_SAMPLES_PER_CYCLE: f64 = 64.0;
/// Bytes of draw-command stream per draw call sent to a GPM.
pub(crate) const CMD_BYTES_PER_DRAW: u64 = 512;
/// Work quantum for the event loop, in quads.
pub(crate) const QUANTUM_QUADS: u64 = 4096;
/// Work quantum for geometry, in vertices.
pub(crate) const QUANTUM_VERTICES: u64 = 8192;

/// Fragment-shading throughput per GPM in 2×2 quads per cycle.
pub(crate) const QUAD_RATE: f64 = (SMS_PER_GPM * CORES_PER_SM) as f64 / CYCLES_PER_FRAGMENT / 4.0;

/// ROP pixel throughput per GPM in pixels per cycle (4 px/cycle/ROP).
pub(crate) const ROP_RATE: f64 = ROPS_PER_GPM as f64 * 4.0;

/// The settable part of the multi-GPM system: what the paper's sweeps vary
/// (Table 2 defaults). The rest of the Table 2 machine is the constants of
/// this module.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of GPU modules (Table 2: 4; the Fig. 18 sweep varies it).
    pub n_gpms: usize,
    /// Inter-GPM link bandwidth, GB/s per direction of a 2-port pair link
    /// (Table 2: 64; the Fig. 4 and Fig. 17 sweeps vary it).
    pub link_gbps: f64,
    /// Optional deterministic fault plan injected at executor construction.
    /// `None` (the default) keeps the exact fixed-rate arithmetic.
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig { n_gpms: 4, link_gbps: 64.0, fault: None }
    }
}

impl GpuConfig {
    /// Returns a copy with a different inter-GPM link bandwidth (the Fig. 4
    /// and Fig. 17 sweeps).
    pub fn with_link_gbps(mut self, gbps: f64) -> Self {
        self.link_gbps = gbps;
        self
    }

    /// Returns a copy with a different GPM count (the Fig. 18 sweep). Each
    /// GPM keeps its per-module resources; the L2 slice per GPM is fixed.
    pub fn with_n_gpms(mut self, n: usize) -> Self {
        assert!((1..=16).contains(&n), "supported GPM counts are 1..=16");
        self.n_gpms = n;
        self
    }

    /// Returns a copy with a fault plan installed (resilience experiments).
    pub fn with_fault(mut self, fault: crate::fault::FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Validates the configuration, reporting the first violated constraint
    /// as a typed error (the panic-free entry used by experiment harnesses).
    pub fn validate(&self) -> Result<(), crate::error::GpuError> {
        use crate::error::GpuError;
        if !(1..=16).contains(&self.n_gpms) {
            return Err(GpuError::Mem(oovr_mem::MemError::TooManyGpms { requested: self.n_gpms }));
        }
        if !self.link_gbps.is_finite() || self.link_gbps < MIN_LINK_GBPS {
            return Err(GpuError::InvalidConfig(format!(
                "link_gbps must be finite and at least {MIN_LINK_GBPS}, got {}",
                self.link_gbps
            )));
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        Ok(())
    }

    /// Per-directed-pair link bandwidth in GB/s after dividing this GPM's
    /// ports among its peers (2 ports per peer yields the nominal rate).
    pub fn pair_link_gbps(&self) -> f64 {
        if self.n_gpms <= 1 {
            return self.link_gbps;
        }
        // Spare ports concentrate bandwidth on the remaining peers (a
        // 2-GPM system aims all 6 ports at one peer). Systems with more
        // peers than port pairs are assumed to grow ports rather than
        // share links (§3: pair traffic "will not be interfered by other
        // GPMs"; §6.4 targets future scenarios with increasing bandwidth).
        let ports_per_peer = f64::from(PORTS_PER_GPM) / (self.n_gpms - 1) as f64;
        self.link_gbps * (ports_per_peer / 2.0).max(1.0)
    }

    /// Fabric timing parameters derived from the bandwidth settings.
    pub fn fabric_params(&self) -> FabricParams {
        FabricParams {
            dram_bytes_per_cycle: gbps_to_bytes_per_cycle(DRAM_GBPS),
            link_bytes_per_cycle: gbps_to_bytes_per_cycle(self.pair_link_gbps()),
        }
    }
}

/// Cycle budget guard: a frame longer than this aborts the simulation (a
/// runaway usually indicates a configuration error, not a slow frame).
/// [`GpuConfig::validate`] rejects the configurations that cannot finish
/// a frame inside it: links below [`MIN_LINK_GBPS`] and fault plans whose
/// outage windows reach it.
pub const MAX_FRAME_CYCLES: Cycle = 50_000_000_000;

/// Slowest inter-GPM link [`GpuConfig::validate`] accepts, in GB/s: 1/64
/// of Table 2's link and 1/32 of the slowest one the paper sweeps (Fig. 4,
/// Fig. 17). A frame's inter-GPM traffic — tens of MB at the Table 3
/// resolutions — crosses it well inside [`MAX_FRAME_CYCLES`], even at a
/// fault plan's 2% rate floor.
pub const MIN_LINK_GBPS: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = GpuConfig::default();
        assert_eq!(c.n_gpms, 4);
        assert_eq!(c.link_gbps, 64.0);
        assert_eq!(c.fabric_params().dram_bytes_per_cycle, 1000.0);
        // 8 ROPs × 4 px/cycle.
        assert_eq!(ROP_RATE, 32.0);
        // 512 cores / 16 cycles / 4 px per quad.
        assert_eq!(QUAD_RATE, 8.0);
    }

    #[test]
    fn bandwidth_conversion() {
        assert_eq!(gbps_to_bytes_per_cycle(64.0), 64.0);
        assert_eq!(gbps_to_bytes_per_cycle(1000.0), 1000.0);
    }

    #[test]
    fn sweep_helpers() {
        let c = GpuConfig::default().with_link_gbps(256.0);
        assert_eq!(c.link_gbps, 256.0);
        assert_eq!(c.fabric_params().link_bytes_per_cycle, 256.0);
    }

    #[test]
    fn port_division_scales_pair_bandwidth() {
        // 4 GPMs: 6 ports / 3 peers = 2 ports per pair → nominal 64.
        assert_eq!(GpuConfig::default().pair_link_gbps(), 64.0);
        // 2 GPMs: all 6 ports face one peer → 3× bandwidth.
        assert_eq!(GpuConfig::default().with_n_gpms(2).pair_link_gbps(), 192.0);
        // 8 GPMs: assumed to keep nominal per-pair bandwidth (future
        // systems grow ports; pair links are never shared).
        assert_eq!(GpuConfig::default().with_n_gpms(8).pair_link_gbps(), 64.0);
        // 1 GPM: links unused.
        assert_eq!(GpuConfig::default().with_n_gpms(1).pair_link_gbps(), 64.0);
    }

    #[test]
    #[should_panic(expected = "GPM counts")]
    fn gpm_count_bounds() {
        let _ = GpuConfig::default().with_n_gpms(0);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_fields() {
        use crate::error::GpuError;
        use crate::fault::{FaultPlan, FaultScenario};
        assert!(GpuConfig::default().validate().is_ok());
        let c = GpuConfig { n_gpms: 17, ..GpuConfig::default() };
        assert!(matches!(c.validate(), Err(GpuError::Mem(_))));
        let c = GpuConfig { link_gbps: 0.0, ..GpuConfig::default() };
        assert!(matches!(c.validate(), Err(GpuError::InvalidConfig(_))));
        let c = GpuConfig { link_gbps: MIN_LINK_GBPS * 0.999, ..GpuConfig::default() };
        assert!(matches!(c.validate(), Err(GpuError::InvalidConfig(_))));
        assert!(GpuConfig::default().with_link_gbps(MIN_LINK_GBPS).validate().is_ok());
        let c = GpuConfig::default().with_fault(FaultPlan::new(FaultScenario::LinkDegrade, 2.0, 0));
        assert!(matches!(c.validate(), Err(GpuError::InvalidFault(_))));
        let c = GpuConfig::default().with_fault(FaultPlan::new(FaultScenario::Mixed, 0.5, 9));
        assert!(c.validate().is_ok());
    }
}
