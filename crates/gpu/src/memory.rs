//! Device global memory.

use crate::error::GpuError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pointer into device global memory.
///
/// Device pointers are plain addresses — the type exists so that host and
/// device addresses cannot be confused (C-NEWTYPE). Arithmetic is explicit
/// through [`DevicePtr::offset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The null device pointer.
    pub const NULL: DevicePtr = DevicePtr(0);

    /// Returns a pointer `bytes` past `self`.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }

    /// The raw address.
    pub fn addr(self) -> u64 {
        self.0
    }

    /// Whether this is the null pointer.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:{:#x}", self.0)
    }
}

/// Flat device global memory.
///
/// Address 0 is reserved (never part of an allocation) so that
/// [`DevicePtr::NULL`] is always invalid, like on real hardware.
pub struct GlobalMemory {
    bytes: Vec<u8>,
}

impl fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalMemory").field("size", &self.bytes.len()).finish()
    }
}

impl GlobalMemory {
    /// Creates a memory of `size` bytes, zero-initialized.
    ///
    /// Real GPU memory is not guaranteed zeroed; the allocator writes a
    /// poison pattern into fresh allocations to model that (see
    /// [`crate::alloc::Allocator`]).
    pub fn new(size: u64) -> Self {
        GlobalMemory {
            bytes: vec![0u8; usize::try_from(size).expect("device memory too large for host")],
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn check(&self, addr: u64, len: u64) -> Result<(usize, usize), GpuError> {
        let end = addr.checked_add(len).ok_or(GpuError::OutOfBounds {
            addr,
            len,
            limit: self.size(),
        })?;
        if addr == 0 || end > self.size() {
            return Err(GpuError::OutOfBounds { addr, len, limit: self.size() });
        }
        Ok((addr as usize, end as usize))
    }

    /// Whether `[addr, addr+len)` lies inside device memory.
    pub(crate) fn contains(&self, addr: u64, len: u64) -> bool {
        self.check(addr, len).is_ok()
    }

    /// Reads `dst.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if the range is not inside device
    /// memory (address 0 is always invalid).
    pub fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), GpuError> {
        let (s, e) = self.check(addr, dst.len() as u64)?;
        dst.copy_from_slice(&self.bytes[s..e]);
        Ok(())
    }

    /// Writes `src` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if the range is not inside device
    /// memory.
    pub fn write(&mut self, addr: u64, src: &[u8]) -> Result<(), GpuError> {
        let (s, e) = self.check(addr, src.len() as u64)?;
        self.bytes[s..e].copy_from_slice(src);
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if the range is not inside device
    /// memory.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) -> Result<(), GpuError> {
        let (s, e) = self.check(addr, len)?;
        self.bytes[s..e].fill(value);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within the device
    /// (overlapping ranges behave like `memmove`).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if either range is invalid.
    pub fn copy_within(&mut self, dst: u64, src: u64, len: u64) -> Result<(), GpuError> {
        let (ss, _) = self.check(src, len)?;
        let (ds, _) = self.check(dst, len)?;
        self.bytes.copy_within(ss..ss + len as usize, ds);
        Ok(())
    }

    /// Borrows a byte range (used by snapshot capture to avoid copies).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if the range is invalid.
    pub fn slice(&self, addr: u64, len: u64) -> Result<&[u8], GpuError> {
        let (s, e) = self.check(addr, len)?;
        Ok(&self.bytes[s..e])
    }

    /// Reads up to 8 bytes at `addr` into a little-endian `u64`
    /// (the raw-bits representation used in access events).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] for invalid ranges or `size > 8`.
    pub fn read_bits(&self, addr: u64, size: u8) -> Result<u64, GpuError> {
        if size > 8 {
            return Err(GpuError::OutOfBounds { addr, len: size as u64, limit: self.size() });
        }
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `size` bytes of `bits` (little-endian) at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] for invalid ranges or `size > 8`.
    pub fn write_bits(&mut self, addr: u64, size: u8, bits: u64) -> Result<(), GpuError> {
        if size > 8 {
            return Err(GpuError::OutOfBounds { addr, len: size as u64, limit: self.size() });
        }
        let buf = bits.to_le_bytes();
        self.write(addr, &buf[..size as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new(1024);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn address_zero_is_invalid() {
        let mut m = GlobalMemory::new(64);
        assert!(m.write(0, &[1]).is_err());
        assert!(m.read(0, &mut [0]).is_err());
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = GlobalMemory::new(64);
        assert!(matches!(m.slice(60, 8), Err(GpuError::OutOfBounds { .. })));
        // Overflowing addr+len must not panic.
        assert!(m.slice(u64::MAX, 2).is_err());
    }

    #[test]
    fn fill_and_bits() {
        let mut m = GlobalMemory::new(64);
        m.fill(8, 8, 0xAB).unwrap();
        assert_eq!(m.read_bits(8, 4).unwrap(), 0xABAB_ABAB);
        m.write_bits(16, 2, 0x1234).unwrap();
        assert_eq!(m.read_bits(16, 2).unwrap(), 0x1234);
        assert!(m.read_bits(8, 9).is_err());
    }

    #[test]
    fn copy_within_overlapping() {
        let mut m = GlobalMemory::new(64);
        m.write(8, &[1, 2, 3, 4]).unwrap();
        m.copy_within(10, 8, 4).unwrap();
        let mut out = [0u8; 6];
        m.read(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 1, 2, 3, 4]);
    }

    #[test]
    fn device_ptr_ops() {
        let p = DevicePtr(0x100);
        assert_eq!(p.offset(8).addr(), 0x108);
        assert!(DevicePtr::NULL.is_null());
        assert!(!p.is_null());
        assert_eq!(p.to_string(), "dev:0x100");
    }
}
