//! Extent allocator for the on-device volume.
//!
//! Files only grow: the volume has no delete (paper §III-D gives SSDlets
//! open, read, write, flush and sync), so no extent is ever handed back and
//! free space never fragments. It is always one run at the tail of the
//! volume, and a bump pointer over `next..end` is the whole allocator.
//! Extents keep file data contiguous in the logical space, which lets scans
//! hand the device long striped page runs — the access pattern that
//! saturates the internal bandwidth in Fig. 7.

use crate::error::{FsError, FsResult};

/// A contiguous run of logical pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    /// First logical page.
    pub(crate) start: u64,
    /// Number of pages.
    pub(crate) pages: u64,
}

impl Extent {
    /// One-past-the-end logical page.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.pages
    }
}

/// Bump allocator over a logical page range: pages `[next, end)` are free.
#[derive(Debug, Clone)]
pub(crate) struct ExtentAllocator {
    next: u64,
    end: u64,
}

impl ExtentAllocator {
    /// Creates an allocator managing pages `[start, start + pages)`.
    pub(crate) fn new(start: u64, pages: u64) -> Self {
        ExtentAllocator {
            next: start,
            end: start + pages,
        }
    }

    /// Rebuilds an allocator from a full range minus already-used extents
    /// (used at mount time): allocation resumes past the last used page.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] when an extent reaches outside
    /// `[start, start + pages)` or overlaps another used extent.
    pub(crate) fn from_used(start: u64, pages: u64, used: &[Extent]) -> FsResult<Self> {
        let mut alloc = ExtentAllocator::new(start, pages);
        let mut used = used.to_vec();
        used.sort_by_key(|e| e.start);
        for e in used {
            match e.start.checked_add(e.pages) {
                Some(end) if alloc.next <= e.start && end <= alloc.end => alloc.next = end,
                _ => return Err(FsError::Corrupt(format!("extent {e:?} is not free"))),
            }
        }
        Ok(alloc)
    }

    /// Allocates up to `pages` pages from the tail, possibly less (for
    /// chunked growth). Returns `None` when nothing is free or `pages` is 0.
    pub(crate) fn allocate_up_to(&mut self, pages: u64) -> Option<Extent> {
        let pages = pages.min(self.largest_free());
        if pages == 0 {
            return None;
        }
        let out = Extent {
            start: self.next,
            pages,
        };
        self.next += pages;
        Some(out)
    }

    /// Size of the largest free extent: the whole tail.
    pub(crate) fn largest_free(&self) -> u64 {
        self.end - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tail is the only free extent, so it is also the first fit.
    #[test]
    fn allocate_first_fit() {
        let mut a = ExtentAllocator::new(10, 100);
        let e = a.allocate_up_to(30).unwrap();
        assert_eq!(
            e,
            Extent {
                start: 10,
                pages: 30
            }
        );
        let f = a.allocate_up_to(70).unwrap();
        assert_eq!(
            f,
            Extent {
                start: 40,
                pages: 70
            }
        );
        assert!(a.allocate_up_to(1).is_none());
    }

    #[test]
    fn allocate_up_to_takes_largest_partial() {
        let mut a = ExtentAllocator::new(0, 50);
        let _hold = a.allocate_up_to(20).unwrap();
        let got = a.allocate_up_to(100).unwrap();
        assert_eq!(
            got,
            Extent {
                start: 20,
                pages: 30
            }
        );
        assert_eq!(a.largest_free(), 0);
    }

    #[test]
    fn from_used_replays_mount_state() {
        let used = vec![
            Extent {
                start: 20,
                pages: 5,
            },
            Extent {
                start: 5,
                pages: 10,
            },
        ];
        let mut a = ExtentAllocator::from_used(0, 30, &used).unwrap();
        // Allocation resumes past the last used page: [25, 30) is free.
        assert_eq!(a.largest_free(), 5);
        assert_eq!(
            a.allocate_up_to(8),
            Some(Extent {
                start: 25,
                pages: 5
            })
        );
    }

    #[test]
    fn zero_page_volume() {
        let mut a = ExtentAllocator::new(0, 0);
        assert!(a.allocate_up_to(1).is_none());
        assert_eq!(a.largest_free(), 0);
    }
}
