//! The write-through register table of the template emitter: which xmm
//! register of a fixed pool still holds which frame value, inside one
//! basic block.
//!
//! Generated code stores every result to the frame exactly as before;
//! the table only lets a later template of the same block read an
//! operand from the register an earlier one loaded or computed it in,
//! instead of rebuilding it from the frame. An entry is therefore a
//! promise that loading the described value from the frame *now* would
//! give the register's bits — kept by dropping every entry a frame write
//! touches ([`Residency::clobber`]) and emptying the table wherever code
//! outside the emitter's view runs ([`Residency::clear`]).

/// The first register of the pool; `xmm0` stays per-template scratch
/// and `xmm1` is unused.
pub(crate) const POOL_FIRST: u8 = 2;
/// The last register of the pool.
pub(crate) const POOL_LAST: u8 = 15;

/// What one qword of a pool register holds: a frame slot's value, or
/// an immediate's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Word {
    Slot(u32),
    Imm(u64),
}

/// The residency key: what a register holds, qword by qword. `lo` is
/// the low qword; `hi` the high one, or `None` when only the low one is
/// promised (a one-lane chunk never reads the other). A two-lane chunk
/// of a vector register is `(Slot(s), Some(Slot(s + 1)))`, a broadcast
/// scalar register `(Slot(s), Some(Slot(s)))`, an immediate
/// `(Imm(v), Some(Imm(v)))`. `wide` marks the f64 widening of f32
/// slots (`f_of`); immediates are widened at emit time and never carry
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Held {
    pub lo: Word,
    pub hi: Option<Word>,
    pub wide: bool,
}

impl Held {
    /// Lanes `slot..slot + n` on the slot layout, as a vector µop's
    /// chunk store leaves them.
    pub fn chunk(slot: u32, n: u32) -> Held {
        Held { lo: Word::Slot(slot), hi: (n == 2).then_some(Word::Slot(slot + 1)), wide: false }
    }

    /// Whether a register holding `self` can stand for `want`.
    fn serves(self, want: Held) -> bool {
        self.lo == want.lo && self.wide == want.wide && (want.hi.is_none() || self.hi == want.hi)
    }

    /// Whether `self` depends on a frame slot in `lo..hi`.
    fn reads(self, lo: u32, hi: u32) -> bool {
        let hit = |w: Word| matches!(w, Word::Slot(s) if lo <= s && s < hi);
        hit(self.lo) || self.hi.is_some_and(hit)
    }
}

/// The table of one basic block: resident values, least-recently-used
/// eviction over the pool, and the registers the template being emitted
/// has in hand (never evicted under it).
#[derive(Debug, Default)]
pub(crate) struct Residency {
    /// (value, register) pairs; a register may hold several descriptions
    /// of the same bits (a copy's source and destination).
    held: Vec<(Held, u8)>,
    /// The registers `held` has an entry for.
    busy: u16,
    /// Bit `s` set when an entry recorded since the last [`Self::clear`]
    /// read frame slot `s`: a superset of the slots `held` reads, so a
    /// write to none of them needs no scan.
    read_slots: Vec<u64>,
    /// Emission clock of each register's last use.
    used: [u32; 16],
    clock: u32,
    /// Registers the current chunk reads or writes.
    pinned: u16,
}

impl Residency {
    /// Forget everything: a block header, or a call that clobbered the
    /// caller-saved registers and may have written the frame.
    pub fn clear(&mut self) {
        self.held.clear();
        self.busy = 0;
        self.read_slots.fill(0);
        self.pinned = 0;
    }

    /// Release the registers the last chunk had in hand.
    pub fn unpin(&mut self) {
        self.pinned = 0;
    }

    fn touch(&mut self, r: u8) -> u8 {
        self.clock += 1;
        self.used[r as usize] = self.clock;
        self.pinned |= 1 << r;
        r
    }

    /// A register that holds `want`, pinned.
    pub fn find(&mut self, want: Held) -> Option<u8> {
        let r = self.held.iter().find(|(h, _)| h.serves(want))?.1;
        Some(self.touch(r))
    }

    /// A pool register to overwrite, pinned: a free one if there is one,
    /// else the least recently used that the current chunk does not
    /// hold. Whatever it held is forgotten.
    pub fn alloc(&mut self) -> u8 {
        const POOL: u16 = (u16::MAX >> (15 - POOL_LAST)) & !((1 << POOL_FIRST) - 1);
        let unpinned = POOL & !self.pinned;
        let free = unpinned & !self.busy;
        // The least recently used of the free registers, else of the
        // busy ones; the lowest-numbered on a tie (never used).
        let mut candidates = if free != 0 { free } else { unpinned };
        assert!(candidates != 0, "a chunk pins at most eight registers of fourteen");
        let mut r = candidates.trailing_zeros() as u8;
        while candidates != 0 {
            let c = candidates.trailing_zeros() as u8;
            if self.used[c as usize] < self.used[r as usize] {
                r = c;
            }
            candidates &= candidates - 1;
        }
        self.forget(r);
        self.touch(r)
    }

    /// `r` is about to be overwritten in place: forget what it held.
    pub fn forget(&mut self, r: u8) {
        if self.busy & (1 << r) != 0 {
            self.busy &= !(1 << r);
            self.held.retain(|&(_, x)| x != r);
        }
    }

    /// Note that `r` holds `h` (in addition to what it held).
    pub fn record(&mut self, h: Held, r: u8) {
        debug_assert!((POOL_FIRST..=POOL_LAST).contains(&r), "xmm{r} is not a pool register");
        self.held.push((h, r));
        self.busy |= 1 << r;
        for w in [Some(h.lo), h.hi] {
            if let Some(Word::Slot(s)) = w {
                let word = s as usize / 64;
                if word >= self.read_slots.len() {
                    self.read_slots.resize(word + 1, 0);
                }
                self.read_slots[word] |= 1 << (s % 64);
            }
        }
    }

    /// Frame slots `lo..hi` were written: drop every value read from
    /// them.
    pub fn clobber(&mut self, lo: u32, hi: u32) {
        let read =
            |s: u32| self.read_slots.get(s as usize / 64).is_some_and(|w| w >> (s % 64) & 1 != 0);
        if !(lo..hi).any(read) {
            return;
        }
        self.held.retain(|&(h, _)| !h.reads(lo, hi));
        self.busy = self.held.iter().fold(0, |m, &(_, r)| m | 1 << r);
    }

    /// Append one description per resident register to `out` — what a
    /// slow site reloads after a call.
    pub fn snapshot(&self, out: &mut Vec<(Held, u8)>) {
        let mut seen = 0u16;
        for &(h, r) in &self.held {
            if seen & (1 << r) == 0 {
                seen |= 1 << r;
                out.push((h, r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_two_lane_value_serves_its_low_lane_but_not_the_reverse() {
        let mut t = Residency::default();
        let r = t.alloc();
        t.record(Held::chunk(8, 2), r);
        assert_eq!(t.find(Held::chunk(8, 1)), Some(r));
        assert_eq!(t.find(Held::chunk(9, 1)), None);
        let q = t.alloc();
        t.record(Held::chunk(20, 1), q);
        assert_eq!(t.find(Held::chunk(20, 2)), None);
        assert_eq!(t.find(Held { wide: true, ..Held::chunk(8, 2) }), None);
    }

    #[test]
    fn a_write_drops_every_value_that_reads_the_slot() {
        let mut t = Residency::default();
        let r = t.alloc();
        t.record(Held::chunk(8, 2), r);
        t.record(Held { lo: Word::Slot(3), hi: Some(Word::Slot(3)), wide: true }, r);
        let q = t.alloc();
        t.record(Held { lo: Word::Imm(7), hi: None, wide: false }, q);
        t.clobber(9, 10);
        assert_eq!(t.find(Held::chunk(8, 1)), None);
        let mut resident = Vec::new();
        t.snapshot(&mut resident);
        assert_eq!(resident.len(), 2);
        t.clobber(0, 100);
        resident.clear();
        t.snapshot(&mut resident);
        assert_eq!(resident, [(Held { lo: Word::Imm(7), hi: None, wide: false }, q)]);
    }

    #[test]
    fn eviction_is_least_recently_used_and_spares_pinned_registers() {
        let mut t = Residency::default();
        let n = (POOL_LAST - POOL_FIRST + 1) as u32;
        for s in 0..n {
            let r = t.alloc();
            t.record(Held::chunk(2 * s, 2), r);
            t.unpin();
        }
        // Every register is busy; touch the oldest so the second goes.
        let first = t.find(Held::chunk(0, 2)).unwrap();
        let r = t.alloc();
        assert_ne!(r, first, "a pinned register was evicted");
        assert_eq!(t.find(Held::chunk(2, 2)), None, "the least recently used value survived");
        assert!(t.find(Held::chunk(4, 2)).is_some());
    }
}
