//! Simulator configuration: Table 2 of the paper plus model parameters.

use oovr_mem::timing::FabricParams;
use oovr_mem::{Cycle, MemConfig};

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

/// Top-level configuration of the multi-GPM system (Table 2 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of GPU modules (Table 2: 4).
    pub n_gpms: usize,
    /// SMs per GPM (Table 2: 8).
    pub sms_per_gpm: u32,
    /// Shader cores per SM (Table 2: 64).
    pub cores_per_sm: u32,
    /// ROPs per GPM (Table 2: 8), each outputting 4 pixels/cycle (§3).
    pub rops_per_gpm: u32,
    /// Inter-GPM link bandwidth, GB/s per direction of a 2-port pair link
    /// (Table 2: 64).
    pub link_gbps: f64,
    /// NVLink ports per GPM (§3: 6; each pair of ports connects two GPMs,
    /// so a 4-GPM system dedicates 2 ports to each of the 3 peers). With
    /// other GPM counts the ports are divided among the peers, scaling the
    /// per-pair bandwidth accordingly.
    pub ports_per_gpm: u32,
    /// Local DRAM bandwidth, GB/s (Table 2: 1000).
    pub dram_gbps: f64,
    /// Cache configuration (Table 2: 128 KiB unified L1 per SM; 4 MiB
    /// 16-way L2 total across the 4-GPM system).
    pub mem: MemConfig,
    /// Throughput/byte-cost model parameters.
    pub model: ModelParams,
    /// Optional deterministic fault plan injected at executor construction.
    /// `None` (the default) keeps the exact fixed-rate arithmetic.
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_gpms: 4,
            sms_per_gpm: 8,
            cores_per_sm: 64,
            rops_per_gpm: 8,
            link_gbps: 64.0,
            ports_per_gpm: 6,
            dram_gbps: 1000.0,
            mem: MemConfig::default(),
            model: ModelParams::default(),
            fault: None,
        }
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
        for (name, v) in [
            ("link_gbps", self.link_gbps),
            ("dram_gbps", self.dram_gbps),
            ("vertex_rate", self.model.vertex_rate),
            ("triangle_rate", self.model.triangle_rate),
            ("smp_rate", self.model.smp_rate),
            ("raster_quad_rate", self.model.raster_quad_rate),
            ("cycles_per_fragment", self.model.cycles_per_fragment),
            ("txu_samples_per_cycle", self.model.txu_samples_per_cycle),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(GpuError::InvalidConfig(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if self.sms_per_gpm == 0 || self.cores_per_sm == 0 || self.rops_per_gpm == 0 {
            return Err(GpuError::InvalidConfig(
                "sms_per_gpm, cores_per_sm and rops_per_gpm must be nonzero".to_string(),
            ));
        }
        if self.model.quantum_quads == 0 || self.model.quantum_vertices == 0 {
            return Err(GpuError::InvalidConfig("work quanta must be nonzero".to_string()));
        }
        if self.model.texel_samples_per_quad as usize > MAX_TEXEL_SAMPLES {
            return Err(GpuError::InvalidConfig(format!(
                "texel_samples_per_quad must be at most {MAX_TEXEL_SAMPLES}, got {}",
                self.model.texel_samples_per_quad
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
        let ports_per_peer = f64::from(self.ports_per_gpm) / (self.n_gpms - 1) as f64;
        self.link_gbps * (ports_per_peer / 2.0).max(1.0)
    }

    /// Fabric timing parameters derived from the bandwidth settings.
    pub fn fabric_params(&self) -> FabricParams {
        FabricParams {
            dram_bytes_per_cycle: gbps_to_bytes_per_cycle(self.dram_gbps),
            link_bytes_per_cycle: gbps_to_bytes_per_cycle(self.pair_link_gbps()),
            ..FabricParams::default()
        }
    }

    /// Fragment-shading throughput per GPM in 2×2 quads per cycle.
    pub fn quad_rate(&self) -> f64 {
        let cores = f64::from(self.sms_per_gpm * self.cores_per_sm);
        cores / self.model.cycles_per_fragment / 4.0
    }

    /// ROP pixel throughput per GPM in pixels per cycle (4 px/cycle/ROP).
    pub fn rop_rate(&self) -> f64 {
        f64::from(self.rops_per_gpm) * 4.0
    }
}

/// Throughput and byte-cost constants of the pipeline model.
///
/// One set of constants drives every figure (no per-experiment tuning);
/// values are anchored to Table 2 and standard GPU ratios, then calibrated
/// once against the paper's Fig. 4 bandwidth-sensitivity curve (see
/// `EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Vertices shaded per cycle per GPM.
    pub vertex_rate: f64,
    /// Triangles set up per cycle per GPM (PME).
    pub triangle_rate: f64,
    /// Triangles re-projected per cycle by the SMP engine.
    pub smp_rate: f64,
    /// 2×2 quads rasterized per cycle per GPM (raster engine).
    pub raster_quad_rate: f64,
    /// Shader cycles per fragment (drives `GpuConfig::quad_rate`).
    pub cycles_per_fragment: f64,
    /// Bytes fetched per vertex (position + attributes).
    pub bytes_per_vertex: u64,
    /// Texel sample points evaluated per 2×2 quad, at most
    /// [`MAX_TEXEL_SAMPLES`]. Bilinear filtering at quad granularity needs
    /// ~4; Table 2's 16× anisotropic filtering widens footprints, which we
    /// model with extra spread-out samples.
    pub texel_samples_per_quad: u32,
    /// Extra anisotropic spread in texels between sample points.
    pub aniso_spread: f32,
    /// Texture sample points filtered per cycle per GPM (4 TXUs per SM,
    /// each filtering a bilinear footprint per cycle).
    pub txu_samples_per_cycle: f64,
    /// Bytes of draw-command stream per draw call sent to a GPM.
    pub cmd_bytes_per_draw: u64,
    /// Work quantum for the event loop, in quads.
    pub quantum_quads: u64,
    /// Work quantum for geometry, in vertices.
    pub quantum_vertices: u64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            vertex_rate: 4.0,
            triangle_rate: 2.5,
            smp_rate: 6.0,
            raster_quad_rate: 32.0,
            cycles_per_fragment: 16.0,
            bytes_per_vertex: 32,
            texel_samples_per_quad: 8,
            aniso_spread: 12.0,
            txu_samples_per_cycle: 64.0,
            cmd_bytes_per_draw: 512,
            quantum_quads: 4096,
            quantum_vertices: 8192,
        }
    }
}

/// Cycle budget guard: a frame longer than this aborts the simulation (a
/// runaway usually indicates a configuration error, not a slow frame).
pub const MAX_FRAME_CYCLES: Cycle = 50_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = GpuConfig::default();
        assert_eq!(c.n_gpms, 4);
        assert_eq!(c.sms_per_gpm, 8);
        assert_eq!(c.rops_per_gpm, 8);
        assert_eq!(c.link_gbps, 64.0);
        assert_eq!(c.dram_gbps, 1000.0);
        // 8 ROPs × 4 px/cycle.
        assert_eq!(c.rop_rate(), 32.0);
        // 512 cores / 16 cycles / 4 px per quad.
        assert_eq!(c.quad_rate(), 8.0);
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
        let mut c = GpuConfig::default();
        c.model.quantum_quads = 0;
        assert!(matches!(c.validate(), Err(GpuError::InvalidConfig(_))));
        let mut c = GpuConfig::default();
        c.model.texel_samples_per_quad = MAX_TEXEL_SAMPLES as u32 + 1;
        assert!(matches!(c.validate(), Err(GpuError::InvalidConfig(_))));
        let c = GpuConfig::default().with_fault(FaultPlan::new(FaultScenario::LinkDegrade, 2.0, 0));
        assert!(matches!(c.validate(), Err(GpuError::InvalidFault(_))));
        let c = GpuConfig::default().with_fault(FaultPlan::new(FaultScenario::Mixed, 0.5, 9));
        assert!(c.validate().is_ok());
    }
}
