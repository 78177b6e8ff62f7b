//! Simulated physical memory pool and kernel address space.
//!
//! The simulated kernel owns one contiguous pool of bytes mapped at
//! [`KERNEL_BASE`], standing in for the kernel linear map. Two access
//! disciplines exist, mirroring the distinction the paper's sanitation
//! relies on:
//!
//! - **Raw access** ([`MemPool::raw_read`] / [`MemPool::raw_write`]) is
//!   what JITed eBPF programs do: no instrumentation, no shadow check. An
//!   in-pool access always succeeds — even into redzones or freed memory
//!   (silent corruption). An out-of-pool access is a hard page fault.
//! - **Checked access** goes through the KASAN shadow (see
//!   [`crate::kasan`]) and is what compiled-with-KASAN kernel routines —
//!   including BVF's `bpf_asan_*` sanitizing functions — do.

/// Base virtual address of the simulated kernel linear map.
pub const KERNEL_BASE: u64 = 0xffff_8880_0000_0000;

/// Size of the null guard page: accesses below this address are null
/// dereferences.
pub const NULL_PAGE_SIZE: u64 = 0x1000;

/// Default pool size (1 MiB).
pub const DEFAULT_POOL_SIZE: usize = 1 << 20;

/// Result of translating a virtual address against the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// The address maps into the pool at the given byte offset.
    Pool(usize),
    /// The address is in the null page.
    NullPage,
    /// The address is unmapped.
    Unmapped,
}

/// The simulated physical memory pool.
#[derive(Debug, Clone)]
pub struct MemPool {
    bytes: Vec<u8>,
}

impl MemPool {
    /// Creates a zeroed pool of the given size (rounded up to 8 bytes).
    pub fn new(size: usize) -> MemPool {
        let size = size.next_multiple_of(8);
        MemPool {
            bytes: vec![0; size],
        }
    }

    /// Resets the pool to exactly the state of [`MemPool::new`] with the
    /// given size, reusing the byte buffer's capacity. This is the per-exec
    /// scratch-recycling path: the result must be indistinguishable from a
    /// fresh pool.
    pub fn reset(&mut self, size: usize) {
        let size = size.next_multiple_of(8);
        self.bytes.clear();
        self.bytes.resize(size, 0);
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the pool is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The virtual address of pool offset `off`.
    pub fn addr_of(&self, off: usize) -> u64 {
        KERNEL_BASE + off as u64
    }

    /// Translates a virtual address (for an access of `size` bytes).
    #[inline]
    pub fn translate(&self, addr: u64, size: u64) -> Translation {
        if addr < NULL_PAGE_SIZE {
            return Translation::NullPage;
        }
        let end = match addr.checked_add(size) {
            Some(e) => e,
            None => return Translation::Unmapped,
        };
        if addr >= KERNEL_BASE && end <= KERNEL_BASE + self.bytes.len() as u64 {
            Translation::Pool((addr - KERNEL_BASE) as usize)
        } else {
            Translation::Unmapped
        }
    }

    /// Raw (uninstrumented) read of `size` ∈ {1,2,4,8} bytes, little-endian.
    ///
    /// Returns `None` on a page fault (unmapped or null address).
    ///
    /// Inlined: this is the interpreter's raw program load path, hot
    /// enough that the call overhead shows up in execution time.
    #[inline]
    pub fn raw_read(&self, addr: u64, size: u64) -> Option<u64> {
        match self.translate(addr, size) {
            Translation::Pool(off) => Some(self.read_at(off, size)),
            _ => None,
        }
    }

    /// Raw (uninstrumented) write of `size` ∈ {1,2,4,8} bytes, little-endian.
    ///
    /// Returns `false` on a page fault. Inlined for the same reason as
    /// [`MemPool::raw_read`].
    #[inline]
    pub fn raw_write(&mut self, addr: u64, size: u64, value: u64) -> bool {
        match self.translate(addr, size) {
            Translation::Pool(off) => {
                self.write_at(off, size, value);
                true
            }
            _ => false,
        }
    }

    /// Reads little-endian at a pool offset; `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn read_at(&self, off: usize, size: u64) -> u64 {
        // Whole-width fast path: `translate` already bounds-checked
        // `off + size`, so the slice index cannot fail. Identical
        // little-endian result to the byte loop below.
        if size == 8 {
            if let Ok(b) = <[u8; 8]>::try_from(&self.bytes[off..off + 8]) {
                return u64::from_le_bytes(b);
            }
        }
        let mut v: u64 = 0;
        for i in 0..size as usize {
            v |= (self.bytes[off + i] as u64) << (8 * i);
        }
        v
    }

    /// Writes little-endian at a pool offset; `size` ∈ {1,2,4,8}.
    #[inline]
    pub fn write_at(&mut self, off: usize, size: u64, value: u64) {
        if size == 8 {
            self.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for i in 0..size as usize {
            self.bytes[off + i] = (value >> (8 * i)) as u8;
        }
    }

    /// Copies bytes out of the pool.
    pub fn read_bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Copies bytes into the pool.
    pub fn write_bytes(&mut self, off: usize, data: &[u8]) {
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Zero-fills a pool range.
    pub fn zero(&mut self, off: usize, len: usize) {
        self.bytes[off..off + len].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_classifies_addresses() {
        let pool = MemPool::new(4096);
        assert_eq!(pool.translate(0, 8), Translation::NullPage);
        assert_eq!(pool.translate(8, 8), Translation::NullPage);
        assert_eq!(pool.translate(0x2000, 8), Translation::Unmapped);
        assert_eq!(pool.translate(KERNEL_BASE, 8), Translation::Pool(0));
        assert_eq!(
            pool.translate(KERNEL_BASE + 4088, 8),
            Translation::Pool(4088)
        );
        // Access straddling the end of the pool is unmapped.
        assert_eq!(pool.translate(KERNEL_BASE + 4089, 8), Translation::Unmapped);
        // Address overflow is unmapped, not a panic.
        assert_eq!(pool.translate(u64::MAX - 3, 8), Translation::Unmapped);
    }

    #[test]
    fn raw_read_write_roundtrip() {
        let mut pool = MemPool::new(4096);
        let addr = KERNEL_BASE + 128;
        assert!(pool.raw_write(addr, 8, 0x1122_3344_5566_7788));
        assert_eq!(pool.raw_read(addr, 8), Some(0x1122_3344_5566_7788));
        assert_eq!(pool.raw_read(addr, 4), Some(0x5566_7788));
        assert_eq!(pool.raw_read(addr, 2), Some(0x7788));
        assert_eq!(pool.raw_read(addr, 1), Some(0x88));
        assert_eq!(pool.raw_read(addr + 4, 4), Some(0x1122_3344));
    }

    #[test]
    fn raw_access_faults_outside_pool() {
        let mut pool = MemPool::new(4096);
        assert_eq!(pool.raw_read(0x10, 8), None);
        assert!(!pool.raw_write(0x10, 8, 1));
        assert_eq!(pool.raw_read(KERNEL_BASE + 4096, 1), None);
    }

    #[test]
    fn raw_access_inside_pool_ignores_allocation_state() {
        // This is the crucial "JITed code is unchecked" property.
        let mut pool = MemPool::new(4096);
        assert!(pool.raw_write(KERNEL_BASE + 1000, 8, 42));
        assert_eq!(pool.raw_read(KERNEL_BASE + 1000, 8), Some(42));
    }
}
