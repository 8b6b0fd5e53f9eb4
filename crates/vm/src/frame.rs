//! Flat register frames: the per-function slot layout the interpreter
//! executes against.
//!
//! A [`FrameLayout`] is computed once per compiled specialization and maps
//! every virtual register to a contiguous run of `u64` lane slots (one
//! slot for scalars, `width` slots for vectors). [`RegFrame`] is the
//! reusable backing storage: an execution manager keeps one per worker
//! and re-prepares it for each warp call, so the interpreter performs no
//! heap allocation per instruction — or, once the frame has grown to the
//! largest specialization it has seen, per warp.

use dpvk_ir::{Function, VReg};

/// Slot offsets and lane widths for every register of one function.
///
/// The layout assumes the function is verified: the declared type of each
/// register (width included) matches every instruction that reads or
/// writes it, which `dpvk-core` guarantees by running the IR verifier on
/// all compiled specializations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// First slot of each register, indexed by `VReg::index()`.
    offsets: Vec<u32>,
    /// Lane count of each register (1 for scalars).
    widths: Vec<u32>,
    /// Total slot count.
    slots: usize,
}

impl FrameLayout {
    /// Compute the layout of `f`'s register file.
    pub fn of(f: &Function) -> Self {
        let mut offsets = Vec::with_capacity(f.regs.len());
        let mut widths = Vec::with_capacity(f.regs.len());
        let mut slots = 0u32;
        for t in &f.regs {
            offsets.push(slots);
            let w = if t.is_vector() { t.width } else { 1 };
            widths.push(w);
            slots += w;
        }
        FrameLayout { offsets, widths, slots: slots as usize }
    }

    /// Total `u64` slots a frame for this layout needs.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of registers covered by this layout.
    pub fn regs(&self) -> usize {
        self.offsets.len()
    }

    /// First slot of register `r`.
    #[inline]
    pub fn offset(&self, r: VReg) -> usize {
        self.offsets[r.index()] as usize
    }

    /// Lane count of register `r` (1 for scalars).
    #[inline]
    pub fn width(&self, r: VReg) -> usize {
        self.widths[r.index()] as usize
    }
}

/// Reusable backing storage for a register frame.
///
/// `prepare` zeroes and sizes the buffer for a layout without shrinking
/// its capacity, so a frame reused across warp calls stops allocating once
/// it has grown to the largest layout it serves. `prepare_slots` zeroes
/// only what a warp entry can read before writing and leaves the rest
/// as the previous warp left it.
#[derive(Debug, Default)]
pub struct RegFrame {
    slots: Vec<u64>,
}

impl RegFrame {
    /// An empty frame (allocates nothing until first use).
    pub fn new() -> Self {
        RegFrame { slots: Vec::new() }
    }

    /// Zero the frame and size it for `layout`, returning the slot slice.
    pub(crate) fn prepare(&mut self, layout: &FrameLayout) -> &mut [u64] {
        self.slots.clear();
        self.slots.resize(layout.slots(), 0);
        &mut self.slots
    }

    /// Size the frame to at least `slots` slots and zero the `live`
    /// ranges, returning the first `slots` slots. The bytecode and JIT
    /// engines' entry point: `live` is the decoded program's
    /// entry-live set — every other slot is written before any read on
    /// every path, so whatever an earlier warp left there is never
    /// observed and clearing it per entry (5–7 KB on the barrier
    /// kernels) is pure cost.
    pub(crate) fn prepare_slots(&mut self, slots: usize, live: &[(u32, u32)]) -> &mut [u64] {
        if self.slots.len() < slots {
            self.slots.resize(slots, 0);
        }
        for &(first, len) in live {
            self.slots[first as usize..(first + len) as usize].fill(0);
        }
        &mut self.slots[..slots]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpvk_ir::{STy, Type};

    #[test]
    fn layout_packs_scalars_and_vectors() {
        let mut f = Function::new("t", 4);
        let a = f.new_reg(Type::scalar(STy::I32));
        let v = f.new_reg(Type::vector(STy::F32, 4));
        let b = f.new_reg(Type::scalar(STy::I64));
        let l = FrameLayout::of(&f);
        assert_eq!(l.slots(), 6);
        assert_eq!(l.regs(), 3);
        assert_eq!((l.offset(a), l.width(a)), (0, 1));
        assert_eq!((l.offset(v), l.width(v)), (1, 4));
        assert_eq!((l.offset(b), l.width(b)), (5, 1));
    }

    #[test]
    fn frame_reuse_keeps_capacity() {
        let mut f = Function::new("t", 4);
        f.new_reg(Type::vector(STy::I32, 8));
        let big = FrameLayout::of(&f);
        let mut g = Function::new("t", 1);
        g.new_reg(Type::scalar(STy::I32));
        let small = FrameLayout::of(&g);

        let mut frame = RegFrame::new();
        let s = frame.prepare(&big);
        s[7] = 99;
        let cap = frame.slots.capacity();
        let s = frame.prepare(&small);
        assert_eq!(s, &[0]);
        assert_eq!(frame.slots.capacity(), cap, "prepare must not shrink");
        assert!(frame.prepare(&big).iter().all(|&v| v == 0), "prepare zeroes");
    }

    #[test]
    fn prepare_slots_clears_the_live_ranges_only() {
        let mut frame = RegFrame::new();
        frame.prepare_slots(8, &[]).fill(9);
        let s = frame.prepare_slots(6, &[(1, 2), (5, 1)]);
        assert_eq!(s, &[9, 0, 0, 9, 9, 0]);
        // Growing zero-fills the new slots and keeps the old ones.
        assert_eq!(frame.prepare_slots(10, &[]), &[9, 0, 0, 9, 9, 0, 9, 9, 0, 0]);
    }
}
