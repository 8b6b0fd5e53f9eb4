//! Execution statistics: the raw material of the paper's Figures 7–9.

/// Cycle and event counters accumulated while executing kernels.
///
/// Cycles are split into the three phases of the paper's Figure 9:
/// subkernel execution (`cycles_body`), yield save/restore overhead
/// (`cycles_yield`, cycles spent in compiler-inserted scheduler, entry and
/// exit handler blocks), and execution-manager overhead (`cycles_manager`,
/// charged by `dpvk-core`'s execution manager for warp formation, barrier
/// bookkeeping and translation-cache queries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Modeled cycles in kernel body blocks.
    pub cycles_body: u64,
    /// Modeled cycles in scheduler/entry/exit handler blocks.
    pub cycles_yield: u64,
    /// Modeled cycles charged by the execution manager.
    pub cycles_manager: u64,
    /// Dynamic instructions executed (terminators included).
    pub instructions: u64,
    /// Single-precision-equivalent floating-point operations.
    pub flops: u64,
    /// Scalar loads executed.
    pub loads: u64,
    /// Scalar stores executed.
    pub stores: u64,
    /// Loads from spill slots (live-state restores; a live-in an entry
    /// handler recomputes is not one); divided by thread-entries this
    /// gives the paper's Figure 8 metric.
    pub restore_loads: u64,
    /// Stores to spill slots (live-state spills), in exit handlers or
    /// right after a home-slot register's definition.
    pub spill_stores: u64,
    /// Warp executions, i.e. kernel entries from the execution manager.
    pub warp_entries: u64,
    /// Sum of warp sizes over all entries (thread-entries).
    pub thread_entries: u64,
    /// Bytes stored by live-state spills.
    pub spill_bytes: u64,
    /// Bytes loaded by live-state restores.
    pub restore_bytes: u64,
    /// Warp entries that ran a scalar-baseline fallback because the
    /// requested vectorized specialization failed to compile.
    pub downgraded_warps: u64,
    /// Warp entries aborted by cooperative cancellation or a launch
    /// deadline before completing.
    pub cancelled_warps: u64,
}

impl ExecStats {
    /// Total modeled cycles across all phases.
    pub fn total_cycles(&self) -> u64 {
        self.cycles_body + self.cycles_yield + self.cycles_manager
    }

    /// Add another stats block into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.cycles_body += other.cycles_body;
        self.cycles_yield += other.cycles_yield;
        self.cycles_manager += other.cycles_manager;
        self.instructions += other.instructions;
        self.flops += other.flops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.restore_loads += other.restore_loads;
        self.spill_stores += other.spill_stores;
        self.warp_entries += other.warp_entries;
        self.thread_entries += other.thread_entries;
        self.spill_bytes += other.spill_bytes;
        self.restore_bytes += other.restore_bytes;
        self.downgraded_warps += other.downgraded_warps;
        self.cancelled_warps += other.cancelled_warps;
    }

    /// Fraction of modeled cycles spent in kernel body blocks.
    pub fn body_fraction(&self) -> f64 {
        self.fraction(self.cycles_body)
    }

    /// Fraction of modeled cycles spent in yield save/restore blocks.
    pub fn yield_fraction(&self) -> f64 {
        self.fraction(self.cycles_yield)
    }

    /// Fraction of modeled cycles charged by the execution manager.
    pub fn manager_fraction(&self) -> f64 {
        self.fraction(self.cycles_manager)
    }

    fn fraction(&self, part: u64) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        part as f64 / total as f64
    }

    /// Average warp size over all kernel entries.
    pub fn average_warp_size(&self) -> f64 {
        if self.warp_entries == 0 {
            return 0.0;
        }
        self.thread_entries as f64 / self.warp_entries as f64
    }

    /// Average values restored per thread at entry points (Figure 8).
    pub fn average_values_restored(&self) -> f64 {
        if self.thread_entries == 0 {
            return 0.0;
        }
        self.restore_loads as f64 / self.thread_entries as f64
    }

    /// GFLOP/s at the given clock, from modeled cycles on one core.
    pub fn gflops(&self, clock_ghz: f64) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.flops as f64 * clock_ghz / cycles as f64
    }
}

impl std::fmt::Display for ExecStats {
    /// Figure-9-style cycle breakdown plus the aggregate event counters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles: {:>12} total = body {:>5.1}% + yield {:>5.1}% + manager {:>5.1}%",
            self.total_cycles(),
            100.0 * self.body_fraction(),
            100.0 * self.yield_fraction(),
            100.0 * self.manager_fraction(),
        )?;
        writeln!(
            f,
            "phase cycles: body {:>12}   yield {:>12}   manager {:>12}",
            self.cycles_body, self.cycles_yield, self.cycles_manager
        )?;
        writeln!(
            f,
            "instructions: {:>10}   flops: {:>10}   loads: {:>10}   stores: {:>10}",
            self.instructions, self.flops, self.loads, self.stores
        )?;
        writeln!(
            f,
            "warp entries: {:>10}   avg warp size: {:.2}   avg restores/thread: {:.2}",
            self.warp_entries,
            self.average_warp_size(),
            self.average_values_restored()
        )?;
        write!(
            f,
            "spill bytes: {:>11}   restore bytes: {:>10}",
            self.spill_bytes, self.restore_bytes
        )?;
        if self.downgraded_warps != 0 || self.cancelled_warps != 0 {
            write!(
                f,
                "\ndegradation: {:>10} warps downgraded to scalar, {} warps cancelled",
                self.downgraded_warps, self.cancelled_warps
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = ExecStats {
            cycles_body: 10,
            flops: 4,
            warp_entries: 1,
            thread_entries: 4,
            ..Default::default()
        };
        let b = ExecStats {
            cycles_body: 5,
            cycles_manager: 2,
            flops: 2,
            warp_entries: 1,
            thread_entries: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles_body, 15);
        assert_eq!(a.cycles_manager, 2);
        assert_eq!(a.flops, 6);
        assert_eq!(a.average_warp_size(), 3.0);
    }

    #[test]
    fn gflops_uses_total_cycles() {
        let s = ExecStats {
            cycles_body: 50,
            cycles_yield: 25,
            cycles_manager: 25,
            flops: 200,
            ..Default::default()
        };
        // 200 flops / 100 cycles * 1 GHz = 2 GFLOP/s.
        assert!((s.gflops(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_divide_safely() {
        let s = ExecStats::default();
        assert_eq!(s.average_warp_size(), 0.0);
        assert_eq!(s.average_values_restored(), 0.0);
        assert_eq!(s.gflops(3.4), 0.0);
        assert_eq!(s.body_fraction(), 0.0);
    }

    #[test]
    fn fractions_partition_total_cycles() {
        let s = ExecStats {
            cycles_body: 60,
            cycles_yield: 30,
            cycles_manager: 10,
            ..Default::default()
        };
        assert!((s.body_fraction() - 0.6).abs() < 1e-12);
        assert!((s.yield_fraction() - 0.3).abs() < 1e-12);
        assert!((s.manager_fraction() - 0.1).abs() < 1e-12);
        let sum = s.body_fraction() + s.yield_fraction() + s.manager_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_reports_breakdown_and_bytes() {
        let s = ExecStats {
            cycles_body: 50,
            cycles_yield: 25,
            cycles_manager: 25,
            spill_bytes: 128,
            restore_bytes: 64,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("body  50.0%"), "{text}");
        assert!(text.contains("spill bytes"), "{text}");
        assert!(text.contains("128"), "{text}");
        assert!(text.contains("phase cycles:"), "{text}");
        assert!(text.contains("yield           25"), "{text}");
    }
}
