//! Optimization passes over IR functions.
//!
//! The dynamic translation cache runs [`standard_pipeline`] after
//! vectorization, mirroring the paper's use of LLVM's optimizer
//! ("traditional compiler optimizations such as basic block fusion and
//! common subexpression elimination", Section 5.1).

mod constfold;
mod cse;
mod dce;
mod fusion;

#[cfg(test)]
mod tests;

pub use constfold::const_fold;
pub use cse::local_cse;
pub use dce::dead_code_elimination;
pub use fusion::{fuse_blocks, remove_unreachable_blocks};

use dpvk_trace::timeline::{span, SpanKind};

use crate::function::Function;

/// Statistics from one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
    /// Instructions replaced by common-subexpression elimination.
    pub cse_replaced: usize,
    /// Instructions folded to constants.
    pub folded: usize,
    /// Blocks merged by fusion.
    pub blocks_fused: usize,
    /// Unreachable blocks removed.
    pub blocks_removed: usize,
}

impl OptStats {
    /// Sum of all instruction-level simplifications.
    pub fn total_simplifications(&self) -> usize {
        self.dce_removed + self.cse_replaced + self.folded
    }
}

/// Run the standard pipeline to a fixpoint (bounded):
/// constant folding → local CSE → DCE → block fusion.
///
/// With tracing on, every pass is a timeline span of the function's
/// kernel (the vectorizer names a specialization `<kernel>::<variant>`).
pub fn standard_pipeline(f: &mut Function) -> OptStats {
    fn kernel(f: &Function) -> &str {
        f.name.split("::").next().unwrap_or_default()
    }
    let mut stats = OptStats::default();
    // The passes interact (folding exposes CSE, CSE exposes DCE); iterate a
    // few rounds, stopping early when a round changes nothing.
    for _ in 0..4 {
        let folded = {
            let _s = span(SpanKind::ConstFold, kernel(f));
            const_fold(f)
        };
        let replaced = {
            let _s = span(SpanKind::Cse, kernel(f));
            local_cse(f)
        };
        let removed = {
            let _s = span(SpanKind::Dce, kernel(f));
            dead_code_elimination(f)
        };
        stats.folded += folded;
        stats.cse_replaced += replaced;
        stats.dce_removed += removed;
        if folded + replaced + removed == 0 {
            break;
        }
    }
    {
        let _s = span(SpanKind::Fusion, kernel(f));
        stats.blocks_fused = fuse_blocks(f);
        stats.blocks_removed = remove_unreachable_blocks(f);
    }
    stats
}
