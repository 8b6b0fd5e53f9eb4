//! W^X executable code pages for the JIT tier.
//!
//! Pages are allocated read/write with raw `mmap`, filled with emitted
//! machine code, then flipped to read/execute with `mprotect` — never
//! writable and executable at the same time. The syscalls are declared
//! directly (no `libc` dependency); the module only compiles on the
//! Unix hosts the JIT supports, and callers gate on
//! [`ExecMem::supported`] before allocating.

#![allow(non_camel_case_types)]

#[cfg(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos")))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const PROT_EXEC: i32 = 4;
    pub const MAP_PRIVATE: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const MAP_ANONYMOUS: i32 = 0x20;
    #[cfg(target_os = "macos")]
    pub const MAP_ANONYMOUS: i32 = 0x1000;
    /// Fault every page in at `mmap`, in one pass, instead of one
    /// fault per page as the code is copied in.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: i32 = 0x8000;
    #[cfg(target_os = "macos")]
    pub const MAP_POPULATE: i32 = 0;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// One mmap'd code region, write-filled once and then sealed RX for the
/// rest of its life. Unmapped on drop.
#[derive(Debug)]
pub struct ExecMem {
    ptr: *mut u8,
    len: usize,
    code_len: usize,
}

// SAFETY: after `seal` the region is immutable executable memory; the
// raw pointer is only written between `new` and `seal`, on one thread.
unsafe impl Send for ExecMem {}
unsafe impl Sync for ExecMem {}

impl ExecMem {
    /// Whether this host can map executable pages at all.
    pub fn supported() -> bool {
        cfg!(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos")))
    }

    /// Map a writable (not yet executable) region, copy `code` into it,
    /// and seal it read/execute. Returns `None` off-platform or if the
    /// kernel refuses the mapping.
    pub fn with_code(code: &[u8]) -> Option<ExecMem> {
        #[cfg(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos")))]
        {
            if code.is_empty() {
                return None;
            }
            let page = 4096usize;
            let len = code.len().div_ceil(page) * page;
            // SAFETY: anonymous private mapping with no fixed address;
            // the result is checked against MAP_FAILED.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_POPULATE,
                    -1,
                    0,
                )
            };
            if ptr == sys::MAP_FAILED || ptr.is_null() {
                return None;
            }
            let ptr = ptr as *mut u8;
            // SAFETY: the region is `len >= code.len()` bytes, RW, freshly
            // mapped and exclusively owned.
            unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len()) };
            // SAFETY: flipping our own fresh mapping from RW to RX.
            let rc = unsafe { sys::mprotect(ptr as *mut _, len, sys::PROT_READ | sys::PROT_EXEC) };
            if rc != 0 {
                // SAFETY: unmapping the mapping created above.
                unsafe { sys::munmap(ptr as *mut _, len) };
                return None;
            }
            Some(ExecMem { ptr, len, code_len: code.len() })
        }
        #[cfg(not(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos"))))]
        {
            let _ = code;
            None
        }
    }

    /// Base address of the sealed region.
    pub fn base(&self) -> *const u8 {
        self.ptr
    }

    /// Mapped length in bytes (page-rounded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The code it was filled with.
    pub fn code(&self) -> &[u8] {
        // SAFETY: the first `code_len` bytes of the mapping were copied
        // from the emitted code in `with_code` and stay mapped (RX is
        // readable) until drop, which cannot run while `self` is
        // borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr, self.code_len) }
    }
}

impl Drop for ExecMem {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos")))]
        // SAFETY: `ptr`/`len` came from the successful mmap in `with_code`
        // and the region is not referenced after drop (callers hold the
        // `ExecMem` alive for as long as any code pointer into it).
        unsafe {
            sys::munmap(self.ptr as *mut _, self.len);
        }
    }
}
