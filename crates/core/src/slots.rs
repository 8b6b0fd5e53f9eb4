//! The slot plan: what each yield moves, decided once per kernel.
//!
//! The paper's handlers move a thread's whole live-in set at every
//! yield: the exit handler stores all of it and the entry handler
//! reloads all of it (Algorithms 3–4). The plan sorts the live-ins of
//! every entry point into three kinds:
//!
//! 1. **Home-slot registers**, stored where they are defined. A register
//!    live into some barrier continuation (and not rematerialized there)
//!    whose every definition lies outside every cycle of the scalar CFG
//!    has its spill slot written right after its definitions (the last
//!    one in each block: a block yields only at its terminator), in every
//!    specialization. No exit handler stores it. Only barrier live-ins
//!    qualify: a barrier yield is certain, a divergent branch may never
//!    diverge, and then the store at the definition is pure cost.
//! 2. **Rematerialized live-ins**, recomputed at entry. At entry `E`, a
//!    live-in whose unique reaching definition is a thread-invariant
//!    expression — `%tid`/`%ntid`/`%ctaid`/`%nctaid` reads, `ld.param`,
//!    immediates and pure operators other than `div`/`rem`, at most
//!    `REMAT_MAX_DEFS` (4) definitions — is recomputed by `E`'s entry
//!    handler, and no exit stores it for `E`'s sake.
//! 3. **Everything else** is stored at the exit and loaded at the entry.
//!
//! The plan is a function of the scalar kernel alone, so every width,
//! variant, downgrade and re-specialization agrees on which slot holds
//! what: a w4 exit stays resumable as two w2 entries, and a scalar
//! fallback resumes what a vector warp suspended.
//!
//! Both analyses run once per kernel over dense rows: the unique
//! reaching definition of every register at every block entry, and
//! CFG-cycle membership.

use dpvk_ir::{BinOp, BlockId, CtxField, Function, Inst, Liveness, Space, VReg};

/// Most definitions one rematerialized live-in may re-execute.
const REMAT_MAX_DEFS: usize = 4;

/// Which live-ins each yield stores, loads and recomputes.
#[derive(Debug, Clone)]
pub struct SlotPlan {
    /// Per scalar block: the live-ins its entry handler loads, sorted.
    /// Empty for blocks that are not entry points.
    pub loads: Vec<Vec<VReg>>,
    /// Per scalar block: the scalar instructions its entry handler
    /// re-executes after the loads, to recompute its rematerialized
    /// live-ins.
    pub remat: Vec<Vec<Inst>>,
    /// Per register: a home-slot register, whose spill slot is written
    /// where it is defined, so exits never store it.
    pub home: Vec<bool>,
    /// Per scalar block: the indices, ascending, of the instructions
    /// right after which their destination's home slot is written — the
    /// last definition of each home-slot register in the block. A block
    /// yields only at its terminator, so an earlier definition that the
    /// block itself overwrites needs no store.
    pub def_stores: Vec<Vec<u32>>,
}

impl SlotPlan {
    /// Plan the slots of `f`, whose entry points are `entry_points` and
    /// whose barrier continuations are `barrier_conts`.
    pub fn compute(
        f: &Function,
        lv: &Liveness,
        entry_points: &[BlockId],
        barrier_conts: impl IntoIterator<Item = BlockId>,
    ) -> SlotPlan {
        let nb = f.blocks.len();
        let rd = ReachingDefs::compute(f);
        let mut loads = vec![Vec::new(); nb];
        let mut remat = vec![Vec::new(); nb];
        // Per root definition: its expression tree, once computed.
        let mut trees: Vec<Option<Option<Tree>>> = vec![None; rd.sites.len()];
        for &e in entry_points {
            let live = lv.live_in(e);
            for r in Liveness::regs_of(live) {
                let tree = rd.at_entry(r, e).and_then(|root| {
                    let tree = trees[root as usize].get_or_insert_with(|| rd.tree(f, root));
                    // The clobber rule: re-executing the tree may only
                    // overwrite a register live at `e` with the value it
                    // already holds there.
                    tree.as_ref().filter(|t| {
                        t.writes
                            .iter()
                            .all(|&(x, site)| !bit(live, x.0) || rd.at_entry(x, e) == Some(site))
                    })
                });
                match tree {
                    Some(t) => {
                        remat[e.index()].extend(t.order.iter().map(|&d| rd.inst(f, d).clone()))
                    }
                    None => loads[e.index()].push(r),
                }
            }
        }
        let in_cycle = cycle_blocks(f);
        let mut defined_in_cycle = vec![false; f.regs.len()];
        for (b, block) in f.blocks.iter().enumerate() {
            if in_cycle[b] {
                for d in block.insts.iter().filter_map(Inst::dst) {
                    defined_in_cycle[d.index()] = true;
                }
            }
        }
        let mut home = vec![false; f.regs.len()];
        for cont in barrier_conts {
            for &r in &loads[cont.index()] {
                home[r.index()] |= !defined_in_cycle[r.index()];
            }
        }
        let mut def_stores = vec![Vec::new(); nb];
        let mut seen = vec![usize::MAX; f.regs.len()];
        for (b, block) in f.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate().rev() {
                if let Some(d) = inst.dst().filter(|d| home[d.index()] && seen[d.index()] != b) {
                    seen[d.index()] = b;
                    def_stores[b].push(i as u32);
                }
            }
            def_stores[b].reverse();
        }
        SlotPlan { loads, remat, home, def_stores }
    }

    /// What an exit toward `targets` stores: what their entry handlers
    /// load, less the home-slot registers. Sorted, no duplicates.
    pub fn exit_stores(&self, targets: &[BlockId]) -> Vec<VReg> {
        let mut v: Vec<VReg> = targets
            .iter()
            .flat_map(|t| &self.loads[t.index()])
            .copied()
            .filter(|r| !self.home[r.index()])
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The registers that own a spill slot — the ones some entry handler
    /// loads — in index order.
    pub fn slotted(&self) -> impl Iterator<Item = VReg> {
        let mut has = vec![false; self.home.len()];
        self.loads.iter().flatten().for_each(|r| has[r.index()] = true);
        (0..has.len()).filter(move |&i| has[i]).map(|i| VReg(i as u32))
    }
}

/// Blocks that lie on a cycle of the CFG (a strongly connected component
/// with an edge inside it), by transitive reachability over bit rows.
fn cycle_blocks(f: &Function) -> Vec<bool> {
    let nb = f.blocks.len();
    let words = nb.div_ceil(64);
    let mut reach = vec![0u64; nb * words];
    for (b, block) in f.blocks.iter().enumerate() {
        block.term.for_each_successor(|s| set_bit(&mut reach[b * words..][..words], s.0, true));
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (b, block) in f.blocks.iter().enumerate().rev() {
            block.term.for_each_successor(|s| {
                for w in 0..words {
                    let add = reach[s.index() * words + w] & !reach[b * words + w];
                    changed |= add != 0;
                    reach[b * words + w] |= add;
                }
            });
        }
    }
    (0..nb).map(|b| bit(&reach[b * words..][..words], b as u32)).collect()
}

/// Unique reaching definitions over dense bit rows. Definition sites are
/// numbered register by register: register `r` owns the sites
/// `first[r]..first[r + 1]`, of which the first stands for "undefined"
/// at kernel entry and the rest are its definitions in block and
/// instruction order. A block kills a register's whole range.
struct ReachingDefs {
    words: usize,
    first: Vec<u32>,
    /// Site → its instruction, as (block, index).
    sites: Vec<(u32, u32)>,
    /// Site → the one definition reaching each of its operands (in
    /// `uses()` order), [`NONE`] when there is not exactly one.
    operands: Vec<[u32; 3]>,
    /// Per block: the sites reaching its entry.
    reach_in: Vec<u64>,
}

const NONE: u32 = u32::MAX;

/// A rematerializable definition's expression tree.
#[derive(Clone)]
struct Tree {
    /// Its definition sites in emission order, operands first.
    order: Vec<u32>,
    /// Each register it writes, with the site that writes it last.
    writes: Vec<(VReg, u32)>,
}

fn bit(row: &[u64], i: u32) -> bool {
    row[i as usize / 64] & (1 << (i % 64)) != 0
}

fn set_bit(row: &mut [u64], i: u32, on: bool) {
    let (w, m) = (i as usize / 64, 1u64 << (i % 64));
    if on {
        row[w] |= m;
    } else {
        row[w] &= !m;
    }
}

impl ReachingDefs {
    fn compute(f: &Function) -> Self {
        let (regs, nb) = (f.regs.len(), f.blocks.len());
        let mut first = vec![0u32; regs + 1];
        for d in f.blocks.iter().flat_map(|b| &b.insts).filter_map(Inst::dst) {
            first[d.index() + 1] += 1;
        }
        for r in 0..regs {
            first[r + 1] += first[r] + 1;
        }
        let n = first[regs];
        let words = (n as usize).div_ceil(64);
        let mut next: Vec<u32> = first[..regs].iter().map(|&s| s + 1).collect();
        let mut sites = vec![(NONE, NONE); n as usize];
        let mut kill = vec![0u64; nb * words];
        let mut gen = vec![0u64; nb * words];
        for (b, block) in f.blocks.iter().enumerate() {
            let (k, g) = (&mut kill[b * words..][..words], &mut gen[b * words..][..words]);
            for (i, inst) in block.insts.iter().enumerate() {
                let Some(d) = inst.dst() else { continue };
                let site = next[d.index()];
                next[d.index()] += 1;
                sites[site as usize] = (b as u32, i as u32);
                let (undefined, end) = (first[d.index()], first[d.index() + 1]);
                if !bit(k, undefined) {
                    (undefined..end).for_each(|s| set_bit(k, s, true));
                }
                // A register's sites are numbered in order, so its previous
                // definition in this block, if any, is the site before.
                if site > undefined + 1 && sites[site as usize - 1].0 == b as u32 {
                    set_bit(g, site - 1, false);
                }
                set_bit(g, site, true);
            }
        }
        let mut reach_in = vec![0u64; nb * words];
        if nb > 0 {
            first[..regs].iter().for_each(|&s| set_bit(&mut reach_in[..words], s, true));
        }
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for (b, block) in f.blocks.iter().enumerate() {
                for (w, o) in out.iter_mut().enumerate() {
                    let i = b * words + w;
                    *o = gen[i] | (reach_in[i] & !kill[i]);
                }
                block.term.for_each_successor(|s| {
                    for (slot, &o) in reach_in[s.index() * words..][..words].iter_mut().zip(&out) {
                        changed |= o & !*slot != 0;
                        *slot |= o;
                    }
                });
            }
        }
        let mut rd = ReachingDefs { words, first, sites, operands: Vec::new(), reach_in };
        // Use-def chains of the definitions: one forward walk per block,
        // visiting sites in the order they were numbered; `local[r]` is
        // `r`'s latest definition in the current block.
        let mut operands = vec![[NONE; 3]; n as usize];
        let mut local = vec![(NONE, NONE); regs];
        next.iter_mut().zip(&rd.first).for_each(|(s, &f)| *s = f + 1);
        for (b, block) in f.blocks.iter().enumerate() {
            let b = b as u32;
            for inst in &block.insts {
                let Some(d) = inst.dst() else { continue };
                let site = next[d.index()];
                next[d.index()] += 1;
                for (slot, v) in operands[site as usize].iter_mut().zip(inst.uses().iter()) {
                    if let Some(o) = v.as_reg() {
                        *slot = match local[o.index()] {
                            (lb, def) if lb == b => def,
                            _ => rd.at_entry(o, BlockId(b)).unwrap_or(NONE),
                        };
                    }
                }
                local[d.index()] = (b, site);
            }
        }
        rd.operands = operands;
        rd
    }

    fn inst<'f>(&self, f: &'f Function, site: u32) -> &'f Inst {
        let (b, i) = self.sites[site as usize];
        &f.blocks[b as usize].insts[i as usize]
    }

    /// The one definition of `r` that reaches the entry of `b`.
    fn at_entry(&self, r: VReg, b: BlockId) -> Option<u32> {
        let row = &self.reach_in[b.index() * self.words..][..self.words];
        let (undefined, end) = (self.first[r.index()], self.first[r.index() + 1]);
        let mut reaching = (undefined..end).filter(|&s| bit(row, s));
        match (reaching.next(), reaching.next()) {
            (Some(s), None) if s != undefined => Some(s),
            _ => None,
        }
    }

    /// The one definition reaching each register operand of `site`.
    fn operand_defs<'a>(
        &'a self,
        f: &'a Function,
        site: u32,
    ) -> impl Iterator<Item = (VReg, Option<u32>)> + 'a {
        let ops = &self.operands[site as usize];
        self.inst(f, site)
            .uses()
            .into_iter()
            .zip(ops)
            .filter_map(|(v, &def)| v.as_reg().map(|o| (o, Some(def).filter(|&s| s != NONE))))
    }

    /// The thread-invariant expression tree rooted at definition `root`,
    /// or `None` when it is not one.
    fn tree(&self, f: &Function, root: u32) -> Option<Tree> {
        let mut order = Vec::new();
        self.post_order(f, root, 0, &mut order)?;
        // Re-executing the tree in order must feed every node the very
        // definitions it read the first time.
        let mut writes: Vec<(VReg, u32)> = Vec::new();
        for &site in &order {
            for (o, want) in self.operand_defs(f, site) {
                if writes.iter().find(|h| h.0 == o).map(|h| h.1) != want {
                    return None;
                }
            }
            let d = self.inst(f, site).dst().expect("definition sites define a register");
            writes.retain(|h| h.0 != d);
            writes.push((d, site));
        }
        Some(Tree { order, writes })
    }

    /// Append `site`'s thread-invariant expression tree to `order` in
    /// post-order; `None` if it is not one or grows past the bound
    /// (`depth` also stops a definition that reaches itself, which only
    /// an unreachable cycle can hold).
    fn post_order(
        &self,
        f: &Function,
        site: u32,
        depth: usize,
        order: &mut Vec<u32>,
    ) -> Option<()> {
        if order.contains(&site) {
            return Some(());
        }
        if depth >= REMAT_MAX_DEFS {
            return None;
        }
        let invariant = match self.inst(f, site) {
            Inst::CtxRead { field, .. } => matches!(
                field,
                CtxField::Tid(_) | CtxField::Ntid(_) | CtxField::Ctaid(_) | CtxField::Nctaid(_)
            ),
            Inst::Load { space, .. } => *space == Space::Param,
            Inst::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Rem),
            Inst::Un { .. }
            | Inst::Fma { .. }
            | Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::Cvt { .. }
            | Inst::Mov { .. } => true,
            _ => false,
        };
        if !invariant {
            return None;
        }
        for (_, def) in self.operand_defs(f, site) {
            self.post_order(f, def?, depth + 1, order)?;
        }
        order.push(site);
        (order.len() <= REMAT_MAX_DEFS).then_some(())
    }
}
