//! # dpvk-bench
//!
//! Reproduction harness for the paper's evaluation: the `figures` binary
//! prints each table and figure (see DESIGN.md §4) in modeled cycles over
//! the helpers here, which run the workload suite under the three
//! execution policies and format report tables. The wall-clock benchmark
//! is the separate `dpvk-bench` binary (`BENCHMARK.json`).

#![warn(missing_docs)]

use dpvk_core::{Device, ExecConfig, LaunchStats};
use dpvk_vm::MachineModel;
use dpvk_workloads::{all_workloads, Workload, WorkloadError};

/// Results of one workload under the three policies of the evaluation.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Workload name.
    pub name: &'static str,
    /// Which paper application it stands in for.
    pub stands_for: &'static str,
    /// Serialized scalar baseline (the paper's comparison baseline).
    pub baseline: LaunchStats,
    /// Dynamic warp formation, max warp = 4.
    pub dynamic: LaunchStats,
    /// Static warp formation with thread-invariant elimination.
    pub static_tie: LaunchStats,
    /// Optimized static instruction counts of the width-4 specializations
    /// `(dynamic, static+TIE)` summed over the workload's kernels.
    pub insts_w4: (usize, usize),
    /// Same at width 2.
    pub insts_w2: (usize, usize),
}

impl AppResult {
    /// Speedup of dynamic warp formation over the scalar baseline
    /// (Figure 6).
    pub fn dynamic_speedup(&self) -> f64 {
        self.baseline.exec.total_cycles() as f64 / self.dynamic.exec.total_cycles() as f64
    }

    /// Speedup of static formation + TIE over dynamic formation
    /// (Figure 10).
    pub fn static_over_dynamic(&self) -> f64 {
        self.dynamic.exec.total_cycles() as f64 / self.static_tie.exec.total_cycles() as f64
    }

    /// Fraction of instructions removed by thread-invariant elimination at
    /// the given width (Section 6.2's 9.5% / 11.5% metric).
    pub fn tie_reduction(&self, w: u32) -> f64 {
        let (dynamic, tie) = match w {
            2 => self.insts_w2,
            _ => self.insts_w4,
        };
        if dynamic == 0 {
            return 0.0;
        }
        1.0 - tie as f64 / dynamic as f64
    }
}

/// Run one workload under one policy on a fresh device, returning launch
/// statistics (the run validates its own output).
///
/// # Errors
///
/// Propagates workload and runtime errors.
pub fn run_one(
    workload: &dyn Workload,
    config: &ExecConfig,
) -> Result<(LaunchStats, Device), WorkloadError> {
    let dev = Device::new(MachineModel::sandybridge_sse(), 256 << 20);
    dev.register_source(&workload.source())?;
    let outcome = workload.run(&dev, config)?;
    Ok((outcome.stats, dev))
}

/// Run the full suite under all three policies with `workers` worker
/// threads (1 gives deterministic modeled cycles).
///
/// # Errors
///
/// Propagates the first workload failure.
pub fn run_suite(workers: usize) -> Result<Vec<AppResult>, WorkloadError> {
    let mut out = Vec::new();
    for w in all_workloads() {
        let (baseline, _) = run_one(w.as_ref(), &ExecConfig::baseline().with_workers(workers))?;
        let (dynamic, dev) = run_one(w.as_ref(), &ExecConfig::dynamic(4).with_workers(workers))?;
        let (static_tie, _) =
            run_one(w.as_ref(), &ExecConfig::static_tie(4).with_workers(workers))?;
        let insts_w4 = instruction_counts(&dev, w.as_ref(), 4)?;
        let insts_w2 = instruction_counts(&dev, w.as_ref(), 2)?;
        out.push(AppResult {
            name: w.name(),
            stands_for: w.stands_for(),
            baseline,
            dynamic,
            static_tie,
            insts_w4,
            insts_w2,
        });
    }
    Ok(out)
}

/// Optimized instruction counts (dynamic vs static+TIE) of a workload's
/// kernels at warp width `w`.
///
/// Both specializations are built *without* the uniform-value analysis so
/// the measurement isolates thread-invariant expression elimination, the
/// way the paper's Section 6.2 measures it (their compiler has no uniform
/// hoisting pass — TIE via CSE is the only mechanism removing replicated
/// thread-invariant work).
fn instruction_counts(
    dev: &Device,
    workload: &dyn Workload,
    w: u32,
) -> Result<(usize, usize), WorkloadError> {
    use dpvk_core::{specialize, translate, SpecializeOptions};
    let _ = dev;
    let module =
        dpvk_ptx::parse_module(&workload.source()).map_err(|e| WorkloadError::Core(e.into()))?;
    let mut dynamic = 0;
    let mut tie = 0;
    for k in &module.kernels {
        let tk = translate(k).map_err(WorkloadError::Core)?;
        let d = specialize(&tk, &SpecializeOptions::dynamic(w).without_uniform_analysis())
            .map_err(WorkloadError::Core)?;
        let s = specialize(&tk, &SpecializeOptions::static_tie(w).without_uniform_analysis())
            .map_err(WorkloadError::Core)?;
        dynamic += d.post_opt_instructions;
        tie += s.post_opt_instructions;
    }
    Ok((dynamic, tie))
}

/// GFLOP/s of a launch on the whole modeled chip, assuming CTAs spread
/// evenly over the cores.
pub fn gflops(stats: &LaunchStats, model: &MachineModel) -> f64 {
    let cycles = stats.exec.total_cycles();
    if cycles == 0 {
        return 0.0;
    }
    stats.exec.flops as f64 * model.clock_ghz * model.cores as f64 / cycles as f64
}

/// Render an aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut s = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    s.push_str(&fmt_row(&headers, &widths));
    s.push('\n');
    s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    s.push('\n');
    for row in rows {
        s.push_str(&fmt_row(row, &widths));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            &["app", "speedup"],
            &[vec!["cp".into(), "3.9x".into()], vec!["blackscholes".into(), "1.8x".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[3].starts_with("blackscholes"));
    }

    #[test]
    fn gflops_scaling() {
        let model = MachineModel::sandybridge_sse();
        let mut stats = LaunchStats::default();
        stats.exec.flops = 1000;
        stats.exec.cycles_body = 1000;
        // 1 flop/cycle * 3.4 GHz * 4 cores = 13.6 GFLOP/s.
        assert!((gflops(&stats, &model) - 13.6).abs() < 1e-9);
    }
}
