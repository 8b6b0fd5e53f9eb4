//! Control-flow analyses over kernels: reverse postorder and the
//! dominator tree. (Liveness is computed once, on the IR:
//! `dpvk_ir::Liveness`.)

use crate::kernel::{BlockId, Kernel};

/// Blocks of `kernel` in reverse postorder from the entry block.
///
/// Unreachable blocks are appended after the reachable ones in kernel
/// order, so every block appears exactly once.
pub fn reverse_postorder(kernel: &Kernel) -> Vec<BlockId> {
    let n = kernel.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    if n > 0 {
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = kernel.successors(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    for (i, seen) in visited.iter().enumerate() {
        if !seen {
            post.push(BlockId(i as u32));
        }
    }
    post
}

/// Immediate-dominator tree computed with the Cooper–Harvey–Kennedy
/// iterative algorithm.
#[derive(Debug, Clone)]
pub struct DominatorTree {
    /// `idom[b]` is the immediate dominator of block `b`; the entry block
    /// is its own idom; unreachable blocks have `None`.
    pub idom: Vec<Option<BlockId>>,
}

impl DominatorTree {
    /// Compute the dominator tree of `kernel`.
    pub fn compute(kernel: &Kernel) -> Self {
        let n = kernel.blocks.len();
        let rpo = reverse_postorder(kernel);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let preds = kernel.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return DominatorTree { idom };
        }
        idom[0] = Some(BlockId(0));
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DominatorTree { idom }
    }

    /// Whether block `a` dominates block `b`.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(parent) if parent != cur => cur = parent,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::parser::parse_kernel;

    const DIAMOND: &str = r#"
.kernel diamond (.param .u32 n) {
  .reg .u32 %r<6>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra left;
  add.u32 %r3, %r1, 1;
  bra join;
left:
  add.u32 %r3, %r1, 2;
join:
  add.u32 %r4, %r3, %r1;
  ret;
}
"#;

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let k = parse_kernel(DIAMOND).unwrap();
        let rpo = reverse_postorder(&k);
        assert_eq!(rpo.len(), k.blocks.len());
        assert_eq!(rpo[0], BlockId(0));
        let set: HashSet<_> = rpo.iter().collect();
        assert_eq!(set.len(), rpo.len());
    }

    #[test]
    fn dominators_of_diamond() {
        let k = parse_kernel(DIAMOND).unwrap();
        let dt = DominatorTree::compute(&k);
        let entry = BlockId(0);
        let join = k.block_by_label("join").unwrap();
        let left = k.block_by_label("left").unwrap();
        assert!(dt.dominates(entry, join));
        assert!(dt.dominates(entry, left));
        assert!(!dt.dominates(left, join));
        assert_eq!(dt.idom[join.index()], Some(entry));
    }
}
