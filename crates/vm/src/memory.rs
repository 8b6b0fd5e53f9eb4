//! The memory system: a shared global arena plus per-CTA and per-thread
//! spaces threaded through the interpreter by reference.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dpvk_ir::Space;

use crate::error::VmError;

/// Grid-wide global memory with the paper's weakly consistent semantics:
/// worker threads access it concurrently without synchronization, and
/// cross-CTA visibility is only guaranteed at kernel boundaries.
///
/// Bounds are always checked; data races between threads of *different*
/// CTAs writing the same location are the kernel's responsibility, exactly
/// as on the modeled hardware.
#[derive(Debug)]
pub struct GlobalMem {
    bytes: UnsafeCell<Box<[u8]>>,
    len: usize,
}

// SAFETY: access is bounds-checked, and the execution model (weakly
// consistent global memory, synchronization only at kernel boundaries)
// makes concurrent mutation part of the contract. Torn reads can only be
// observed by racy kernels, matching real GPU/CPU behaviour for such code.
unsafe impl Send for GlobalMem {}
unsafe impl Sync for GlobalMem {}

impl GlobalMem {
    /// Allocate a zeroed global arena of `size` bytes.
    pub fn new(size: usize) -> Arc<Self> {
        Arc::new(GlobalMem {
            bytes: UnsafeCell::new(vec![0u8; size].into_boxed_slice()),
            len: size,
        })
    }

    /// Base pointer of the arena.
    fn base(&self) -> *mut u8 {
        // SAFETY: the boxed slice is never reallocated after construction.
        unsafe { (*self.bytes.get()).as_mut_ptr() }
    }

    /// Size of the arena in bytes.
    pub fn size(&self) -> usize {
        self.len
    }

    /// Raw base/len of the arena, used by the JIT tier's inline
    /// bounds-checked address computations (the JIT mirrors [`Self::check`]
    /// in generated code).
    pub(crate) fn raw_parts(&self) -> (*mut u8, usize) {
        (self.base(), self.len)
    }

    fn check(&self, addr: u64, size: usize) -> Result<usize, VmError> {
        let len = self.size();
        let addr_usize = addr as usize;
        // A zero-sized access still names the byte at `addr`, so `addr ==
        // len` is rejected even though the empty range [len, len) would fit.
        let in_bounds = match addr_usize.checked_add(size) {
            Some(end) => end <= len && (size > 0 || addr_usize < len),
            None => false,
        };
        if in_bounds {
            Ok(addr_usize)
        } else {
            Err(VmError::OutOfBounds { space: Space::Global, addr, size, space_size: len })
        }
    }

    /// Read `N` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] when the access exceeds the arena.
    pub fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], VmError> {
        let off = self.check(addr, N)?;
        let mut out = [0u8; N];
        // SAFETY: bounds checked; concurrent access is part of the model.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(off), out.as_mut_ptr(), N);
        }
        Ok(out)
    }

    /// Write `N` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] when the access exceeds the arena.
    pub fn write<const N: usize>(&self, addr: u64, data: [u8; N]) -> Result<(), VmError> {
        let off = self.check(addr, N)?;
        // SAFETY: bounds checked; concurrent access is part of the model.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(off), N);
        }
        Ok(())
    }

    /// Copy host data into the arena (the `cudaMemcpy` host→device analog).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] when the copy exceeds the arena.
    pub fn copy_in(&self, addr: u64, data: &[u8]) -> Result<(), VmError> {
        let off = self.check(addr, data.len())?;
        // SAFETY: bounds checked; called between kernels by the host.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(off), data.len());
        }
        Ok(())
    }

    /// Copy arena data out to the host (device→host).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] when the copy exceeds the arena.
    pub fn copy_out(&self, addr: u64, out: &mut [u8]) -> Result<(), VmError> {
        let off = self.check(addr, out.len())?;
        // SAFETY: bounds checked; called between kernels by the host.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(off), out.as_mut_ptr(), out.len());
        }
        Ok(())
    }

    /// Zero `len` bytes starting at `addr` (the `cudaMemset(0)` analog).
    ///
    /// The device allocator uses this to re-establish the
    /// fresh-allocations-are-zeroed invariant when it recycles a freed
    /// block, so reuse is indistinguishable from a bump allocation.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] when the range exceeds the arena.
    pub fn fill_zero(&self, addr: u64, len: usize) -> Result<(), VmError> {
        let off = self.check(addr, len)?;
        // SAFETY: bounds checked; called between kernels by the host.
        unsafe {
            std::ptr::write_bytes(self.base().add(off), 0, len);
        }
        Ok(())
    }

    /// Atomically apply `f` to the aligned `u32` at `addr`, returning the
    /// previous value.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unsupported`] for misaligned addresses and
    /// [`VmError::OutOfBounds`] for out-of-range ones.
    pub fn atomic_rmw_u32(&self, addr: u64, mut f: impl FnMut(u32) -> u32) -> Result<u32, VmError> {
        let off = self.check(addr, 4)?;
        if off % 4 != 0 {
            return Err(VmError::Unsupported(format!("misaligned u32 atomic at {addr:#x}")));
        }
        // SAFETY: in-bounds and aligned; AtomicU32 has the same layout as u32.
        let atom = unsafe { &*(self.base().add(off) as *const AtomicU32) };
        let mut cur = atom.load(Ordering::Relaxed);
        loop {
            let new = f(cur);
            match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return Ok(prev),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Atomically apply `f` to the aligned `u64` at `addr`, returning the
    /// previous value.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unsupported`] for misaligned addresses and
    /// [`VmError::OutOfBounds`] for out-of-range ones.
    pub fn atomic_rmw_u64(&self, addr: u64, mut f: impl FnMut(u64) -> u64) -> Result<u64, VmError> {
        let off = self.check(addr, 8)?;
        if off % 8 != 0 {
            return Err(VmError::Unsupported(format!("misaligned u64 atomic at {addr:#x}")));
        }
        // SAFETY: in-bounds and aligned; AtomicU64 has the same layout as u64.
        let atom = unsafe { &*(self.base().add(off) as *const AtomicU64) };
        let mut cur = atom.load(Ordering::Relaxed);
        loop {
            let new = f(cur);
            match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return Ok(prev),
                Err(observed) => cur = observed,
            }
        }
    }
}

/// The per-warp view of all address spaces, assembled by the execution
/// manager before calling into a kernel.
#[derive(Debug)]
pub struct MemAccess<'a> {
    /// Grid-wide global memory.
    pub global: &'a GlobalMem,
    /// This CTA's shared memory.
    pub shared: &'a mut [u8],
    /// The local-memory arena of this execution manager; thread contexts
    /// carry byte offsets into it.
    pub local: &'a mut [u8],
    /// The kernel parameter buffer.
    pub param: &'a [u8],
    /// The module constant bank.
    pub cbank: &'a [u8],
}

impl<'a> MemAccess<'a> {
    fn slice_for(&self, space: Space) -> Result<&[u8], VmError> {
        Ok(match space {
            Space::Shared => &*self.shared,
            Space::Local | Space::Spill => &*self.local,
            Space::Param => self.param,
            Space::Const => self.cbank,
            Space::Global => unreachable!("global handled separately"),
        })
    }

    /// Read `size` (1/2/4/8) bytes from `space` at `addr` as a little-endian
    /// `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] on a bad access.
    pub fn read(&self, space: Space, addr: u64, size: usize) -> Result<u64, VmError> {
        if space == Space::Global {
            return Ok(match size {
                1 => self.global.read::<1>(addr)?[0] as u64,
                2 => u16::from_le_bytes(self.global.read::<2>(addr)?) as u64,
                4 => u32::from_le_bytes(self.global.read::<4>(addr)?) as u64,
                8 => u64::from_le_bytes(self.global.read::<8>(addr)?),
                _ => return Err(VmError::Unsupported(format!("load size {size}"))),
            });
        }
        let s = self.slice_for(space)?;
        let a = addr as usize;
        if a.checked_add(size).map(|e| e <= s.len()).unwrap_or(false) {
            let mut buf = [0u8; 8];
            buf[..size].copy_from_slice(&s[a..a + size]);
            Ok(u64::from_le_bytes(buf))
        } else {
            Err(VmError::OutOfBounds { space, addr, size, space_size: s.len() })
        }
    }

    /// Write the low `size` bytes of `value` to `space` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfBounds`] on a bad access and
    /// [`VmError::Unsupported`] for writes to read-only spaces.
    pub fn write(
        &mut self,
        space: Space,
        addr: u64,
        size: usize,
        value: u64,
    ) -> Result<(), VmError> {
        let bytes = value.to_le_bytes();
        match space {
            Space::Global => match size {
                1 => self.global.write::<1>(addr, [bytes[0]]),
                2 => self.global.write::<2>(addr, [bytes[0], bytes[1]]),
                4 => self.global.write::<4>(addr, [bytes[0], bytes[1], bytes[2], bytes[3]]),
                8 => self.global.write::<8>(addr, bytes),
                _ => Err(VmError::Unsupported(format!("store size {size}"))),
            },
            Space::Param | Space::Const => {
                Err(VmError::Unsupported(format!("store to read-only space {space:?}")))
            }
            Space::Shared | Space::Local | Space::Spill => {
                let s: &mut [u8] = if space == Space::Shared { self.shared } else { self.local };
                let a = addr as usize;
                if a.checked_add(size).map(|e| e <= s.len()).unwrap_or(false) {
                    s[a..a + size].copy_from_slice(&bytes[..size]);
                    Ok(())
                } else {
                    Err(VmError::OutOfBounds { space, addr, size, space_size: s.len() })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_read_write_round_trip() {
        let g = GlobalMem::new(64);
        g.write::<4>(8, 0xDEADBEEFu32.to_le_bytes()).unwrap();
        assert_eq!(u32::from_le_bytes(g.read::<4>(8).unwrap()), 0xDEADBEEF);
    }

    #[test]
    fn global_bounds_checked() {
        let g = GlobalMem::new(16);
        assert!(g.read::<8>(12).is_err());
        assert!(g.write::<4>(u64::MAX, [0; 4]).is_err());
    }

    #[test]
    fn zero_sized_access_past_the_end_is_rejected() {
        let g = GlobalMem::new(16);
        assert!(g.copy_in(16, &[]).is_err());
        assert!(g.copy_out(17, &mut []).is_err());
        // Zero-sized copies at a valid address remain fine.
        assert!(g.copy_in(15, &[]).is_ok());
        assert!(g.copy_in(0, &[]).is_ok());
    }

    #[test]
    fn atomic_add_accumulates() {
        let g = GlobalMem::new(16);
        for _ in 0..10 {
            g.atomic_rmw_u32(4, |v| v + 3).unwrap();
        }
        assert_eq!(u32::from_le_bytes(g.read::<4>(4).unwrap()), 30);
    }

    #[test]
    fn atomic_rejects_misaligned() {
        let g = GlobalMem::new(16);
        assert!(matches!(g.atomic_rmw_u32(2, |v| v), Err(VmError::Unsupported(_))));
    }

    #[test]
    fn mem_access_spaces() {
        let g = GlobalMem::new(32);
        let mut shared = vec![0u8; 16];
        let mut local = vec![0u8; 16];
        let param = vec![7u8, 0, 0, 0];
        let cbank = vec![9u8];
        let mut m = MemAccess {
            global: &g,
            shared: &mut shared,
            local: &mut local,
            param: &param,
            cbank: &cbank,
        };
        m.write(Space::Shared, 0, 4, 42).unwrap();
        assert_eq!(m.read(Space::Shared, 0, 4).unwrap(), 42);
        m.write(Space::Local, 8, 8, u64::MAX).unwrap();
        assert_eq!(m.read(Space::Local, 8, 8).unwrap(), u64::MAX);
        assert_eq!(m.read(Space::Param, 0, 4).unwrap(), 7);
        assert_eq!(m.read(Space::Const, 0, 1).unwrap(), 9);
        assert!(m.write(Space::Param, 0, 4, 1).is_err());
        assert!(m.read(Space::Shared, 14, 4).is_err());
    }

    #[test]
    fn concurrent_atomic_adds_do_not_lose_updates() {
        let g = GlobalMem::new(8);
        let g2 = Arc::clone(&g);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = Arc::clone(&g2);
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.atomic_rmw_u32(0, |v| v + 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(u32::from_le_bytes(g.read::<4>(0).unwrap()), 4000);
    }
}
