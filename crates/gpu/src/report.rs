//! Frame-level simulation results.

use std::fmt;

use oovr_mem::{Cycle, Traffic, TrafficClass};

/// Ceiling on [`FrameReport::imbalance_ratio`]: extreme busy-time skews clamp
/// here instead of overflowing toward `inf`, which would poison CSV exports
/// (a non-finite value round-trips as text the figure validator rejects).
pub const IMBALANCE_SENTINEL: f64 = 1e6;

/// Work volume counters accumulated over a frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Vertices fetched and shaded.
    pub vertices: u64,
    /// Triangles emitted toward rasterization (post-SMP).
    pub triangles: u64,
    /// Covered 2×2 quads rasterized.
    pub quads: u64,
    /// Covered fragments shaded.
    pub fragments: u64,
    /// Pixels surviving the depth test (color outputs).
    pub pixels_out: u64,
}

/// The result of simulating one frame under one scheme.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Scheme label.
    pub scheme: String,
    /// Workload label.
    pub workload: String,
    /// Total cycles from frame start to the last composition output.
    pub frame_cycles: Cycle,
    /// Cycles spent composing (included in `frame_cycles`).
    pub composition_cycles: Cycle,
    /// Busy cycles per GPM.
    pub gpm_busy: Vec<Cycle>,
    /// Full traffic ledger of the frame.
    pub traffic: Traffic,
    /// Work volumes.
    pub counts: WorkCounts,
    /// Aggregate L1 hit rate across GPMs.
    pub l1_hit_rate: f64,
    /// Aggregate L2 hit rate across GPMs.
    pub l2_hit_rate: f64,
    /// DRAM-resident bytes per GPM at end of frame (capacity accounting;
    /// AFR's replicated footprint shows up here).
    pub resident_bytes: Vec<u64>,
}

impl FrameReport {
    /// Total inter-GPM link bytes (the paper's traffic metric).
    pub fn inter_gpm_bytes(&self) -> u64 {
        self.traffic.inter_gpm_bytes()
    }

    /// Inter-GPM bytes excluding one-time PA warm-up copies (steady-state
    /// per-frame traffic; see [`oovr_mem::Traffic::steady_inter_gpm_bytes`]).
    pub fn steady_inter_gpm_bytes(&self) -> u64 {
        self.traffic.steady_inter_gpm_bytes()
    }

    /// Frames per second at the 1 GHz clock.
    pub fn fps(&self) -> f64 {
        1e9 / self.frame_cycles.max(1) as f64
    }

    /// Best-to-worst busy-time ratio across GPMs that did any work
    /// (Fig. 10's load-balance metric; 1.0 is perfectly balanced). Clamped
    /// to [`IMBALANCE_SENTINEL`] so the ratio is always finite — `u64` busy
    /// counts near the top of the range lose precision as `f64` and a
    /// pathological skew could otherwise emit `inf` into CSVs.
    pub fn imbalance_ratio(&self) -> f64 {
        let busy: Vec<u64> = self.gpm_busy.iter().copied().filter(|&b| b > 0).collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("nonempty") as f64;
        let min = *busy.iter().min().expect("nonempty") as f64;
        let ratio = max / min;
        if ratio.is_finite() {
            ratio.min(IMBALANCE_SENTINEL)
        } else {
            IMBALANCE_SENTINEL
        }
    }

    /// Mean GPM utilization: busy cycles over frame cycles.
    pub fn mean_utilization(&self) -> f64 {
        if self.frame_cycles == 0 || self.gpm_busy.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.gpm_busy.iter().sum();
        sum as f64 / (self.frame_cycles as f64 * self.gpm_busy.len() as f64)
    }
}

impl fmt::Display for FrameReport {
    /// Multi-line human-readable summary (used by examples and debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {} cycles ({:.2} ms @1GHz), composition {} cycles",
            self.scheme,
            self.workload,
            self.frame_cycles,
            self.frame_cycles as f64 / 1e6,
            self.composition_cycles
        )?;
        writeln!(
            f,
            "  work: {} verts, {} tris, {} quads, {} frags, {} px out",
            self.counts.vertices,
            self.counts.triangles,
            self.counts.quads,
            self.counts.fragments,
            self.counts.pixels_out
        )?;
        writeln!(
            f,
            "  memory: {} B local, {} B inter-GPM ({} B steady), L1 {:.0}%, L2 {:.0}%",
            self.traffic.local_bytes(),
            self.inter_gpm_bytes(),
            self.steady_inter_gpm_bytes(),
            self.l1_hit_rate * 100.0,
            self.l2_hit_rate * 100.0
        )?;
        write!(f, "  remote by class:")?;
        for c in TrafficClass::ALL {
            let b = self.traffic.remote_of(c);
            if b > 0 {
                write!(f, " {c}={b}")?;
            }
        }
        writeln!(f)?;
        write!(f, "  busy: {:?} (imbalance {:.2})", self.gpm_busy, self.imbalance_ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(frame_cycles: Cycle, busy: Vec<Cycle>) -> FrameReport {
        FrameReport {
            scheme: "test".into(),
            workload: "w".into(),
            frame_cycles,
            composition_cycles: 0,
            gpm_busy: busy,
            traffic: Traffic::new(4),
            counts: WorkCounts::default(),
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            resident_bytes: vec![0; 4],
        }
    }

    #[test]
    fn fps_counts_frames_per_second_at_one_ghz() {
        let fast = report(1_000_000, vec![1; 4]);
        assert!((fast.fps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_ignores_idle_gpms() {
        let r = report(100, vec![100, 50, 0, 0]);
        assert_eq!(r.imbalance_ratio(), 2.0);
        let balanced = report(100, vec![70, 70, 70, 70]);
        assert_eq!(balanced.imbalance_ratio(), 1.0);
    }

    #[test]
    fn imbalance_is_clamped_to_finite_sentinel() {
        // A pathological skew (one GPM at u64::MAX busy cycles, one at 1)
        // would emit inf/1.8e19 into CSVs without the clamp.
        let r = report(100, vec![u64::MAX, 1]);
        let ratio = r.imbalance_ratio();
        assert!(ratio.is_finite());
        assert_eq!(ratio, IMBALANCE_SENTINEL);
    }

    #[test]
    fn imbalance_survives_csv_round_trip() {
        // Figure tables serialize values with `{:.4}`; the ratio must come
        // back from that text finite and unchanged.
        for r in [
            report(100, vec![u64::MAX, 1]),
            report(100, vec![100, 50, 0, 0]),
            report(100, vec![70, 70, 70, 70]),
        ] {
            let ratio = r.imbalance_ratio();
            let csv_cell = format!("{ratio:.4}");
            let parsed: f64 = csv_cell.parse().expect("CSV cell must parse back");
            assert!(parsed.is_finite(), "non-finite CSV cell {csv_cell}");
            assert!((parsed - ratio).abs() <= 1e-4, "round-trip drift: {parsed} vs {ratio}");
        }
    }

    #[test]
    fn utilization() {
        let r = report(100, vec![100, 100, 0, 0]);
        assert!((r.mean_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty_and_mentions_scheme() {
        let r = report(1000, vec![10, 20, 30, 40]);
        let text = r.to_string();
        assert!(text.contains("test"));
        assert!(text.contains("imbalance"));
    }

    #[test]
    fn steady_bytes_never_exceed_total() {
        let r = report(1, vec![1]);
        assert!(r.steady_inter_gpm_bytes() <= r.inter_gpm_bytes());
    }
}
