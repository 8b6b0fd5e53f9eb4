//! Machine models: the parameters of the simulated vector processor.

/// Parameters of a simulated CPU with SIMD functional units.
///
/// The default model approximates the paper's evaluation platform — an
/// Intel Sandybridge i7-2600 with SSE 4.2: four cores at 3.4 GHz, 128-bit
/// vector datapath (four f32 lanes), sixteen architectural vector
/// registers. The estimated peak of ~108 single-precision GFLOP/s quoted
/// in the paper corresponds to one 4-wide FMA-pair issue per core per
/// cycle: `4 cores × 3.4 GHz × 8 flops`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Model name for reports.
    pub name: String,
    /// SIMD width in 32-bit lanes (4 for SSE, 8 for AVX).
    pub simd_width: u32,
    /// Architectural vector registers (16 for x86-64 SSE/AVX).
    pub vector_registers: u32,
    /// Core clock in GHz, used only to convert modeled cycles to seconds
    /// for GFLOP/s reports.
    pub clock_ghz: f64,
    /// Modeled core count: the default number of chunks a launch is
    /// split into (one per core), not the number of host threads.
    pub cores: u32,
    /// Extra cycles charged to every vector instruction for each spilled
    /// vector register when live vector state exceeds the register file.
    pub spill_penalty: u32,
}

impl MachineModel {
    /// The paper's evaluation platform: Sandybridge with SSE (4-wide).
    pub fn sandybridge_sse() -> Self {
        MachineModel {
            name: "Sandybridge (SSE 4.2)".into(),
            simd_width: 4,
            vector_registers: 16,
            clock_ghz: 3.4,
            cores: 4,
            spill_penalty: 2,
        }
    }

    /// An AVX-class variant (8-wide f32), for the scalability discussion
    /// in the paper's Section 6 ("expected to scale ... to arbitrary-width
    /// vector units").
    pub fn sandybridge_avx() -> Self {
        MachineModel {
            name: "Sandybridge (AVX)".into(),
            simd_width: 8,
            vector_registers: 16,
            clock_ghz: 3.4,
            cores: 4,
            spill_penalty: 2,
        }
    }

    /// A 16-wide model in the spirit of Knights Ferry / wide vector
    /// accelerators referenced by the paper.
    pub fn wide16() -> Self {
        MachineModel {
            name: "Wide-16 research model".into(),
            simd_width: 16,
            vector_registers: 32,
            clock_ghz: 1.2,
            cores: 32,
            spill_penalty: 2,
        }
    }

    /// Peak single-precision GFLOP/s of the whole chip under the model's
    /// one-FMA-pair-per-cycle assumption.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * (self.simd_width as f64) * 2.0
    }

    /// Peak single-precision GFLOP/s of one core.
    pub fn peak_gflops_per_core(&self) -> f64 {
        self.clock_ghz * (self.simd_width as f64) * 2.0
    }

    /// Number of machine vector operations needed for one IR vector
    /// operation of `width` lanes of `elem_bytes`-byte elements.
    pub fn chunks(&self, width: u32, elem_bytes: usize) -> u64 {
        if width <= 1 {
            return 1;
        }
        let lane_bytes = elem_bytes.max(4) as u64;
        let vector_bytes = width as u64 * lane_bytes;
        let chunk_bytes = self.simd_width as u64 * 4;
        vector_bytes.div_ceil(chunk_bytes).max(1)
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::sandybridge_sse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse_peak_matches_paper_estimate() {
        let m = MachineModel::sandybridge_sse();
        // The paper estimates ~108 GFLOP/s.
        assert!((m.peak_gflops() - 108.8).abs() < 0.5, "{}", m.peak_gflops());
    }

    #[test]
    fn chunking() {
        let m = MachineModel::sandybridge_sse();
        assert_eq!(m.chunks(1, 4), 1);
        assert_eq!(m.chunks(4, 4), 1); // 4 x f32 fits one SSE op
        assert_eq!(m.chunks(8, 4), 2); // 8 x f32 needs two
        assert_eq!(m.chunks(4, 8), 2); // 4 x f64 needs two
        assert_eq!(m.chunks(2, 4), 1);
        // Sub-word elements still occupy full lanes in this model.
        assert_eq!(m.chunks(4, 1), 1);
    }

    #[test]
    fn avx_halves_chunks() {
        let m = MachineModel::sandybridge_avx();
        assert_eq!(m.chunks(8, 4), 1);
        assert_eq!(m.chunks(16, 4), 2);
    }
}
