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

/// Run the standard pipeline once: constant folding → local CSE → DCE
/// → block fusion.
///
/// One sweep is already the fixpoint of the first three passes, so
/// nothing iterates. All three are block-local and walk each block
/// once, forward (the folder, CSE) or to their own fixpoint (DCE), and
/// none exposes work for an earlier one: the folder folds only
/// all-constant operands and binds the result before the next
/// instruction reads it; CSE never keys a `Mov`, so the copies it
/// leaves neither fold nor merge; and DCE removes only definitions of
/// registers nothing reads, which no fold or CSE key can mention.
/// `tests/properties.rs` (`one_optimizer_sweep_is_a_fixpoint`) holds a
/// second sweep to changing nothing on every suite and generated kernel.
///
/// With tracing on, every pass is a timeline span of the function's
/// kernel (the vectorizer names a specialization `<kernel>::<variant>`).
pub fn standard_pipeline(f: &mut Function) -> OptStats {
    fn kernel(f: &Function) -> &str {
        f.name.split("::").next().unwrap_or_default()
    }
    let folded = {
        let _s = span(SpanKind::ConstFold, kernel(f));
        const_fold(f)
    };
    let cse_replaced = {
        let _s = span(SpanKind::Cse, kernel(f));
        local_cse(f)
    };
    let dce_removed = {
        let _s = span(SpanKind::Dce, kernel(f));
        dead_code_elimination(f)
    };
    let _s = span(SpanKind::Fusion, kernel(f));
    let blocks_fused = fuse_blocks(f);
    let blocks_removed = remove_unreachable_blocks(f);
    OptStats { dce_removed, cse_replaced, folded, blocks_fused, blocks_removed }
}
