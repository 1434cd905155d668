//! Sparse page tables with permissions.
//!
//! A [`PageTable`] is one translation stage: stage 1 maps
//! [`VirtAddr`](crate::addr::VirtAddr) pages to [`Ipa`](crate::addr::Ipa)
//! pages, stage 2 maps intermediate pages to [`PhysAddr`](crate::addr::PhysAddr)
//! pages. The table is stored sparsely (page-number map); the *cost* of a
//! hardware walk is modelled separately by the [`crate::smmu`] module.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ecoscale_sim::{Persist, RestoreError, SnapIo};

use crate::addr::PAGE_SHIFT;

/// Page permissions as a compact flag set.
///
/// # Example
///
/// ```
/// use ecoscale_mem::PagePerms;
///
/// let rw = PagePerms::READ | PagePerms::WRITE;
/// assert!(rw.allows(PagePerms::READ));
/// assert!(!rw.allows(PagePerms::EXEC));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PagePerms(u8);

impl PagePerms {
    /// No access.
    pub const NONE: PagePerms = PagePerms(0);
    /// Read permission.
    pub const READ: PagePerms = PagePerms(1);
    /// Write permission.
    pub const WRITE: PagePerms = PagePerms(2);
    /// Execute permission.
    pub const EXEC: PagePerms = PagePerms(4);
    /// Read + write.
    pub const RW: PagePerms = PagePerms(3);

    /// Returns `true` if every permission in `required` is granted.
    #[inline]
    pub const fn allows(self, required: PagePerms) -> bool {
        self.0 & required.0 == required.0
    }

    /// Returns the raw bits.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }
}

impl core::ops::BitOr for PagePerms {
    type Output = PagePerms;
    fn bitor(self, rhs: PagePerms) -> PagePerms {
        PagePerms(self.0 | rhs.0)
    }
}

impl fmt::Display for PagePerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.allows(PagePerms::READ) {
            'r'
        } else {
            '-'
        };
        let w = if self.allows(PagePerms::WRITE) {
            'w'
        } else {
            '-'
        };
        let x = if self.allows(PagePerms::EXEC) {
            'x'
        } else {
            '-'
        };
        write!(f, "{r}{w}{x}")
    }
}

/// Error mapping a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapPageError {
    /// The input page is already mapped.
    AlreadyMapped {
        /// The already-mapped input page number.
        page: u64,
    },
}

impl fmt::Display for MapPageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapPageError::AlreadyMapped { page } => {
                write!(f, "page {page:#x} is already mapped")
            }
        }
    }
}

impl Error for MapPageError {}

/// Error translating an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No mapping exists for the page.
    NotMapped {
        /// The unmapped input page number.
        page: u64,
    },
    /// A mapping exists but lacks the required permission.
    PermissionDenied {
        /// The page number.
        page: u64,
        /// Permissions held.
        have: PagePerms,
        /// Permissions required.
        need: PagePerms,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotMapped { page } => write!(f, "page {page:#x} not mapped"),
            TranslateError::PermissionDenied { page, have, need } => {
                write!(f, "page {page:#x}: have {have}, need {need}")
            }
        }
    }
}

impl Error for TranslateError {}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    out_page: u64,
    perms: PagePerms,
}

/// One stage of page-granular translation with a configurable radix-tree
/// depth (used by the SMMU walk-cost model).
///
/// # Example
///
/// ```
/// use ecoscale_mem::{PagePerms, PageTable};
///
/// let mut pt = PageTable::new(4);
/// pt.map(0x10, 0x80, PagePerms::RW)?;
/// assert_eq!(pt.translate(0x10, PagePerms::READ)?, 0x80);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: HashMap<u64, Entry>,
    levels: u32,
}

impl PageTable {
    /// Creates an empty table with a radix-tree of `levels` levels
    /// (4 for an ARMv8 4 KiB-granule table).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn new(levels: u32) -> PageTable {
        assert!(levels > 0, "page table needs at least one level");
        PageTable {
            entries: HashMap::new(),
            levels,
        }
    }

    /// Number of radix levels a hardware walk traverses.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Maps input page `in_page` to output page `out_page`.
    ///
    /// # Errors
    ///
    /// Returns [`MapPageError::AlreadyMapped`] if `in_page` has a mapping.
    pub fn map(
        &mut self,
        in_page: u64,
        out_page: u64,
        perms: PagePerms,
    ) -> Result<(), MapPageError> {
        if self.entries.contains_key(&in_page) {
            return Err(MapPageError::AlreadyMapped { page: in_page });
        }
        self.entries.insert(in_page, Entry { out_page, perms });
        Ok(())
    }

    /// Maps a contiguous range of `count` pages starting at the given page
    /// numbers.
    ///
    /// # Errors
    ///
    /// Returns an error on the first already-mapped page; earlier pages in
    /// the range stay mapped.
    pub fn map_range(
        &mut self,
        in_page: u64,
        out_page: u64,
        count: u64,
        perms: PagePerms,
    ) -> Result<(), MapPageError> {
        for i in 0..count {
            self.map(in_page + i, out_page + i, perms)?;
        }
        Ok(())
    }

    /// Removes the mapping for `in_page`, returning whether one existed.
    pub fn unmap(&mut self, in_page: u64) -> bool {
        self.entries.remove(&in_page).is_some()
    }

    /// Permission bits recorded for `in_page`, if mapped. Used by the SMMU to
    /// propagate real stage-1 permissions into combined TLB entries and by
    /// the CheckPlane to cross-check cached translations.
    pub fn perms_of(&self, in_page: u64) -> Option<PagePerms> {
        self.entries.get(&in_page).map(|e| e.perms)
    }

    /// Translates input page → output page, checking `need` permissions.
    ///
    /// # Errors
    ///
    /// [`TranslateError::NotMapped`] or [`TranslateError::PermissionDenied`].
    pub fn translate(&self, in_page: u64, need: PagePerms) -> Result<u64, TranslateError> {
        match self.entries.get(&in_page) {
            None => Err(TranslateError::NotMapped { page: in_page }),
            Some(e) if !e.perms.allows(need) => Err(TranslateError::PermissionDenied {
                page: in_page,
                have: e.perms,
                need,
            }),
            Some(e) => Ok(e.out_page),
        }
    }

    /// Translates a full address (any addr newtype is `u64`-backed; this
    /// works on raw values to stay stage-agnostic).
    ///
    /// # Errors
    ///
    /// Same as [`PageTable::translate`].
    pub fn translate_addr(&self, addr: u64, need: PagePerms) -> Result<u64, TranslateError> {
        let page = addr >> PAGE_SHIFT;
        let out = self.translate(page, need)?;
        Ok((out << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1)))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }
}

/// The depth, then the entries in ascending input-page order, so the
/// bytes are independent of hash-map iteration order.
impl Persist for PageTable {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u32(&mut self.levels)?;
        io.ensure(self.levels != 0, || {
            "page table with zero levels".to_owned()
        })?;
        io.sorted_map(&mut self.entries, "page table entries")
    }
}

impl Persist for Entry {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.out_page)?;
        self.perms.persist(io)
    }
}

/// The permission bits as one byte; a load refuses bits above `rwx`.
impl Persist for PagePerms {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u8(&mut self.0)?;
        let bits = self.0;
        io.ensure(bits <= 7, || format!("invalid permission bits {bits:#x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_flags() {
        let rw = PagePerms::READ | PagePerms::WRITE;
        assert_eq!(rw, PagePerms::RW);
        assert!(rw.allows(PagePerms::READ));
        assert!(rw.allows(PagePerms::WRITE));
        assert!(rw.allows(PagePerms::NONE));
        assert!(!rw.allows(PagePerms::EXEC));
        assert_eq!(rw.to_string(), "rw-");
        assert_eq!(PagePerms::EXEC.to_string(), "--x");
        assert_eq!(rw.bits(), 3);
    }

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new(4);
        pt.map(1, 100, PagePerms::RW).unwrap();
        assert_eq!(pt.translate(1, PagePerms::READ), Ok(100));
        assert_eq!(pt.mapped_pages(), 1);
        assert!(pt.unmap(1));
        assert!(!pt.unmap(1));
        assert_eq!(
            pt.translate(1, PagePerms::READ),
            Err(TranslateError::NotMapped { page: 1 })
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new(4);
        pt.map(5, 50, PagePerms::READ).unwrap();
        assert_eq!(
            pt.map(5, 51, PagePerms::READ),
            Err(MapPageError::AlreadyMapped { page: 5 })
        );
    }

    #[test]
    fn permission_enforced() {
        let mut pt = PageTable::new(4);
        pt.map(2, 20, PagePerms::READ).unwrap();
        let err = pt.translate(2, PagePerms::WRITE).unwrap_err();
        assert!(matches!(err, TranslateError::PermissionDenied { .. }));
        assert!(err.to_string().contains("have r--"));
    }

    #[test]
    fn range_mapping() {
        let mut pt = PageTable::new(4);
        pt.map_range(0x10, 0x90, 8, PagePerms::RW).unwrap();
        assert_eq!(pt.mapped_pages(), 8);
        for i in 0..8 {
            assert_eq!(pt.translate(0x10 + i, PagePerms::RW), Ok(0x90 + i));
        }
    }

    #[test]
    fn translate_addr_preserves_offset() {
        let mut pt = PageTable::new(4);
        pt.map(0x3, 0x7, PagePerms::READ).unwrap();
        assert_eq!(pt.translate_addr(0x3abc, PagePerms::READ), Ok(0x7abc));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        PageTable::new(0);
    }
}
