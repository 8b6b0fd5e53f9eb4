//! Size-classed device heap with reuse and eviction.
//!
//! Replaces the original bump-only allocator of [`Device`]: allocations
//! are rounded to power-of-two size classes (64 B minimum) and served,
//! in order of preference, from the matching class's free list (LIFO —
//! the hottest block first), from a *reserve* of coalesced evicted
//! ranges (best-fit with splitting), or by bumping the virgin frontier.
//! When the frontier is exhausted, idle free blocks are evicted —
//! oldest-freed first — into the reserve, where adjacent ranges coalesce
//! so that large requests can be satisfied from many small corpses.
//!
//! Two invariants matter to callers:
//!
//! * **Alignment.** Every block offset and size is a multiple of 64, so
//!   the 64-byte alignment the original bump allocator guaranteed holds
//!   for reused blocks too.
//! * **Zero on reuse.** The global arena is zero-initialized, so virgin
//!   frontier memory reads as zero; reused and reserve-carved blocks are
//!   explicitly re-zeroed before being handed out. A buffer's initial
//!   contents therefore never depend on allocation history, which keeps
//!   workload digests reproducible under churn.
//!
//! [`Device`]: crate::runtime::Device

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use dpvk_trace::Counter;
use dpvk_vm::GlobalMem;

use crate::error::CoreError;

/// Requests at or below this many bytes are rounded to a power-of-two
/// size class; larger ones get an exact (64-byte-rounded) block so a
/// 1.5 MiB request does not burn 2 MiB of heap.
const LARGE_THRESHOLD: u64 = 1 << 20;

/// Minimum block size and universal alignment.
const MIN_CLASS: u64 = 64;

/// A snapshot of device-heap occupancy and allocator activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes currently allocated (block sizes, including rounding).
    pub live_bytes: u64,
    /// Bytes sitting on per-class free lists, ready for exact reuse.
    pub free_bytes: u64,
    /// Bytes in the coalesced reserve (evicted ranges awaiting carving).
    pub reserve_bytes: u64,
    /// Highest `live_bytes` ever observed.
    pub high_water: u64,
    /// Total heap capacity in bytes (includes the reserved null page).
    pub capacity: u64,
    /// Number of live allocations.
    pub live_blocks: usize,
    /// Cumulative bytes served by reusing a freed block or reserve range.
    pub reuse_bytes: u64,
    /// Cumulative bytes served from the virgin bump frontier.
    pub fresh_bytes: u64,
    /// Cumulative bytes of idle blocks evicted into the reserve.
    pub evicted_bytes: u64,
}

/// A block on a size class's free list.
#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    offset: u64,
    /// Allocator clock value at `free` time; smaller = longer idle.
    freed_tick: u64,
}

/// A live allocation, keyed by offset in the owning map.
#[derive(Debug, Clone, Copy)]
struct LiveBlock {
    /// Block size actually consumed (class-rounded or exact-64-rounded).
    size: u64,
}

#[derive(Debug, Default)]
struct HeapInner {
    /// Virgin frontier: everything at or above this offset has never
    /// been allocated (and therefore still reads as zero).
    bump: u64,
    /// Live allocations by offset.
    live: HashMap<u64, LiveBlock>,
    /// Free lists keyed by block size. LIFO within a class.
    free: BTreeMap<u64, Vec<FreeBlock>>,
    /// Coalesced evicted ranges: offset → length.
    reserve: BTreeMap<u64, u64>,
    live_bytes: u64,
    free_bytes: u64,
    reserve_bytes: u64,
    high_water: u64,
    /// Monotonic event clock ordering frees for LRU eviction.
    tick: u64,
    reuse_bytes: u64,
    fresh_bytes: u64,
    evicted_bytes: u64,
}

/// The device heap: a size-classed allocator over `[64, capacity)` of a
/// [`GlobalMem`] arena. Offset 0 is never handed out so a null
/// [`DevicePtr`](crate::runtime::DevicePtr) stays distinguishable.
pub(crate) struct DevHeap {
    global: Arc<GlobalMem>,
    capacity: u64,
    inner: Mutex<HeapInner>,
}

impl DevHeap {
    pub(crate) fn new(global: Arc<GlobalMem>, capacity: u64) -> Self {
        let bump = MIN_CLASS.min(capacity);
        DevHeap { global, capacity, inner: Mutex::new(HeapInner { bump, ..Default::default() }) }
    }

    /// Round a request to its block size: the 64-byte-aligned size for
    /// large requests, the next power of two (min 64) otherwise.
    /// Returns `None` when rounding overflows.
    fn block_size(size: usize) -> Option<u64> {
        let aligned = (size.max(1) as u64).checked_add(MIN_CLASS - 1)? & !(MIN_CLASS - 1);
        if aligned <= LARGE_THRESHOLD {
            Some(aligned.next_power_of_two().max(MIN_CLASS))
        } else {
            Some(aligned)
        }
    }

    /// Allocate a block for `size` bytes and return its offset.
    pub(crate) fn alloc(&self, size: usize) -> Result<u64, CoreError> {
        let block = Self::block_size(size).ok_or_else(|| {
            CoreError::Memory(format!("allocation of {size} bytes overflows the address space"))
        })?;
        let (offset, needs_zero) = {
            let mut inner = self.inner.lock().expect("device heap lock poisoned");
            inner.tick += 1;
            let (offset, reused) = match inner.carve(block, self.capacity) {
                Some(hit) => hit,
                None => {
                    return Err(CoreError::MemoryExhausted {
                        requested: size,
                        live: inner.live_bytes,
                        capacity: self.capacity,
                    })
                }
            };
            inner.live.insert(offset, LiveBlock { size: block });
            inner.live_bytes += block;
            inner.high_water = inner.high_water.max(inner.live_bytes);
            if reused {
                inner.reuse_bytes += block;
                dpvk_trace::add(Counter::AllocReuseBytes, block);
            } else {
                inner.fresh_bytes += block;
                dpvk_trace::add(Counter::AllocFreshBytes, block);
            }
            (offset, reused)
        };
        if needs_zero {
            // Outside the lock: the block is exclusively ours already,
            // and zeroing a large block should not stall other threads.
            self.global.fill_zero(offset, block as usize)?;
        }
        Ok(offset)
    }

    /// Return a block to its size class's free list.
    pub(crate) fn free(&self, offset: u64) -> Result<(), CoreError> {
        let mut inner = self.inner.lock().expect("device heap lock poisoned");
        let block = inner.live.remove(&offset).ok_or_else(|| {
            CoreError::Memory(format!(
                "free of unknown or already-freed device pointer {offset:#x}"
            ))
        })?;
        inner.tick += 1;
        let tick = inner.tick;
        inner.live_bytes -= block.size;
        inner.free_bytes += block.size;
        inner.free.entry(block.size).or_default().push(FreeBlock { offset, freed_tick: tick });
        Ok(())
    }

    /// Bytes currently allocated (block-size granularity).
    pub(crate) fn live_bytes(&self) -> u64 {
        self.inner.lock().expect("device heap lock poisoned").live_bytes
    }

    /// Snapshot of occupancy and cumulative allocator activity.
    pub(crate) fn stats(&self) -> MemoryStats {
        let inner = self.inner.lock().expect("device heap lock poisoned");
        MemoryStats {
            live_bytes: inner.live_bytes,
            free_bytes: inner.free_bytes,
            reserve_bytes: inner.reserve_bytes,
            high_water: inner.high_water,
            capacity: self.capacity,
            live_blocks: inner.live.len(),
            reuse_bytes: inner.reuse_bytes,
            fresh_bytes: inner.fresh_bytes,
            evicted_bytes: inner.evicted_bytes,
        }
    }
}

impl HeapInner {
    /// Find space for a `block`-sized allocation: exact-class free list,
    /// then reserve best-fit, then the bump frontier, then eviction of
    /// idle blocks (oldest-freed first) into the reserve. Returns the
    /// offset and whether the memory was previously used (needs
    /// re-zeroing); `None` means genuinely exhausted.
    fn carve(&mut self, block: u64, capacity: u64) -> Option<(u64, bool)> {
        if let Some(list) = self.free.get_mut(&block) {
            if let Some(fb) = list.pop() {
                if list.is_empty() {
                    self.free.remove(&block);
                }
                self.free_bytes -= block;
                return Some((fb.offset, true));
            }
        }
        if let Some(offset) = self.reserve_take(block) {
            return Some((offset, true));
        }
        if let Some(end) = self.bump.checked_add(block) {
            if end <= capacity {
                let offset = self.bump;
                self.bump = end;
                return Some((offset, false));
            }
        }
        if self.evict_until_fit(block) {
            let offset = self.reserve_take(block).expect("eviction reported a fit");
            return Some((offset, true));
        }
        None
    }

    /// Best-fit carve from the reserve: smallest range that fits, split
    /// from its start so the remainder stays aligned and coalescible.
    fn reserve_take(&mut self, need: u64) -> Option<u64> {
        let mut best: Option<(u64, u64)> = None;
        for (&off, &len) in self.reserve.iter() {
            if len >= need && best.is_none_or(|(_, bl)| len < bl) {
                best = Some((off, len));
            }
        }
        let (off, len) = best?;
        self.reserve.remove(&off);
        if len > need {
            self.reserve.insert(off + need, len - need);
        }
        self.reserve_bytes -= need;
        Some(off)
    }

    /// Insert `[off, off+len)` into the reserve, coalescing with
    /// adjacent ranges.
    fn reserve_insert(&mut self, mut off: u64, mut len: u64) {
        self.reserve_bytes += len;
        if let Some((&poff, &plen)) = self.reserve.range(..off).next_back() {
            if poff + plen == off {
                self.reserve.remove(&poff);
                off = poff;
                len += plen;
            }
        }
        if let Some(&slen) = self.reserve.get(&(off + len)) {
            self.reserve.remove(&(off + len));
            len += slen;
        }
        self.reserve.insert(off, len);
    }

    /// Evict idle free blocks — oldest `freed_tick` first — into the
    /// reserve until some reserve range fits `need` (true) or every free
    /// list is empty without producing a fit (false).
    fn evict_until_fit(&mut self, need: u64) -> bool {
        let mut idle: Vec<(u64, FreeBlock)> = Vec::new();
        for (&size, list) in self.free.iter() {
            idle.extend(list.iter().map(|fb| (size, *fb)));
        }
        idle.sort_by_key(|(_, fb)| fb.freed_tick);
        for (size, fb) in idle {
            let list = self.free.get_mut(&size).expect("free list exists for idle block");
            let at = list
                .iter()
                .position(|b| b.offset == fb.offset)
                .expect("idle block still on its free list");
            list.swap_remove(at);
            if list.is_empty() {
                self.free.remove(&size);
            }
            self.free_bytes -= size;
            self.evicted_bytes += size;
            dpvk_trace::add(Counter::AllocEvictedBytes, size);
            self.reserve_insert(fb.offset, size);
            if self.reserve.values().any(|&len| len >= need) {
                return true;
            }
        }
        false
    }
}

impl std::fmt::Debug for DevHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DevHeap")
            .field("live_bytes", &s.live_bytes)
            .field("free_bytes", &s.free_bytes)
            .field("reserve_bytes", &s.reserve_bytes)
            .field("high_water", &s.high_water)
            .field("capacity", &s.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(capacity: u64) -> DevHeap {
        DevHeap::new(GlobalMem::new(capacity as usize), capacity)
    }

    #[test]
    fn classes_round_up_and_large_is_exact() {
        assert_eq!(DevHeap::block_size(1), Some(64));
        assert_eq!(DevHeap::block_size(64), Some(64));
        assert_eq!(DevHeap::block_size(65), Some(128));
        assert_eq!(DevHeap::block_size(1000), Some(1024));
        assert_eq!(DevHeap::block_size(1 << 20), Some(1 << 20));
        // Large path: 64-byte rounding, no power-of-two blowup.
        assert_eq!(DevHeap::block_size((1 << 20) + 1), Some((1 << 20) + 64));
        assert_eq!(DevHeap::block_size(usize::MAX), None);
    }

    #[test]
    fn exact_class_reuse_is_lifo() {
        let h = heap(1 << 16);
        let a = h.alloc(100).unwrap();
        let b = h.alloc(100).unwrap();
        h.free(a).unwrap();
        h.free(b).unwrap();
        // LIFO: most recently freed comes back first.
        assert_eq!(h.alloc(100).unwrap(), b);
        assert_eq!(h.alloc(100).unwrap(), a);
        let s = h.stats();
        assert_eq!(s.reuse_bytes, 256);
        assert_eq!(s.fresh_bytes, 256);
        // Any size of the class takes a freed block back; another class
        // allocates fresh.
        h.free(a).unwrap();
        assert_eq!(h.alloc(120).unwrap(), a);
        assert_eq!(h.stats().fresh_bytes, 256);
        let c = h.alloc(1000).unwrap();
        assert!(c != a && c != b);
        assert_eq!(h.stats().fresh_bytes, 256 + 1024);
    }

    #[test]
    fn double_free_and_unknown_free_are_errors() {
        let h = heap(1 << 16);
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(CoreError::Memory(_))));
        assert!(matches!(h.free(0xdead0), Err(CoreError::Memory(_))));
        // The rejected frees left the free lists alone: the block comes
        // back once, not twice.
        assert_eq!(h.alloc(64).unwrap(), a);
        assert_ne!(h.alloc(64).unwrap(), a);
    }

    #[test]
    fn eviction_coalesces_small_corpses_into_a_large_block() {
        // Heap fits exactly 8 x 128-byte blocks after the null page.
        let h = heap(64 + 8 * 128);
        let blocks: Vec<u64> = (0..8).map(|_| h.alloc(128).unwrap()).collect();
        // Free them all: the frontier is spent, free lists hold 1 KiB.
        for &b in &blocks {
            h.free(b).unwrap();
        }
        // A 512-byte allocation matches no free class (all are 128) and
        // the frontier is exhausted — eviction must coalesce.
        let big = h.alloc(512).unwrap();
        assert_eq!(big % 64, 0);
        let s = h.stats();
        assert!(s.evicted_bytes >= 512, "{s:?}");
        assert_eq!(s.live_bytes, 512);
        h.free(big).unwrap();
    }

    #[test]
    fn exhaustion_reports_typed_error() {
        let h = heap(4096);
        let _a = h.alloc(2048).unwrap();
        match h.alloc(1 << 20) {
            Err(CoreError::MemoryExhausted { requested, live, capacity }) => {
                assert_eq!(requested, 1 << 20);
                assert_eq!(live, 2048);
                assert_eq!(capacity, 4096);
            }
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }
        // Overflowing sizes stay the generic Memory error.
        assert!(matches!(h.alloc(usize::MAX), Err(CoreError::Memory(_))));
    }

    #[test]
    fn reused_memory_is_zeroed() {
        let cap = 1 << 12;
        let h = heap(cap);
        let a = h.alloc(256).unwrap();
        h.global.copy_in(a, &[0xABu8; 256]).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(256).unwrap();
        assert_eq!(b, a, "exact-class reuse expected");
        let mut out = [0xFFu8; 256];
        h.global.copy_out(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "reused block not zeroed");
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let h = heap(1 << 16);
        let a = h.alloc(1024).unwrap();
        let b = h.alloc(1024).unwrap();
        h.free(a).unwrap();
        h.free(b).unwrap();
        let s = h.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.high_water, 2048);
    }
}
