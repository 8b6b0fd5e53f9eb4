//! Per-launch statistics.

use dpvk_vm::ExecStats;

/// Statistics of one launch: VM counters plus the warp-size histogram
/// (the paper's Figure 7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Cycle/instruction counters.
    pub exec: ExecStats,
    /// `warp_hist[w]` = number of kernel entries with warp size `w`.
    pub warp_hist: Vec<u64>,
}

impl LaunchStats {
    pub(crate) fn new(max_warp: u32) -> Self {
        LaunchStats { exec: ExecStats::default(), warp_hist: vec![0; max_warp as usize + 1] }
    }

    /// Zero every count in place: the state [`LaunchStats::new`] builds,
    /// in the allocation `warp_hist` already has.
    pub(crate) fn reset(&mut self, max_warp: u32) {
        self.exec = ExecStats::default();
        self.warp_hist.clear();
        self.warp_hist.resize(max_warp as usize + 1, 0);
    }

    /// Merge another stats block into this one. Every field is a
    /// monotonic sum, so merging is commutative — chunk completion order
    /// (which varies with pool scheduling) cannot change launch totals.
    pub fn merge(&mut self, other: &LaunchStats) {
        self.exec.merge(&other.exec);
        if self.warp_hist.len() < other.warp_hist.len() {
            self.warp_hist.resize(other.warp_hist.len(), 0);
        }
        for (i, v) in other.warp_hist.iter().enumerate() {
            self.warp_hist[i] += v;
        }
    }

    /// Fraction of kernel entries at each warp size (index = warp size).
    pub fn warp_size_fractions(&self) -> Vec<f64> {
        let total: u64 = self.warp_hist.iter().sum();
        if total == 0 {
            return vec![0.0; self.warp_hist.len()];
        }
        self.warp_hist.iter().map(|&c| c as f64 / total as f64).collect()
    }
}
