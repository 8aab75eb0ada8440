//! Extent allocator for the on-device volume.
//!
//! Free space is a sorted list of `(start, len)` page extents. Allocation is
//! first-fit; frees coalesce with neighbours. Extents keep file data mostly
//! contiguous in the logical space, which lets scans hand the device long
//! striped page runs — the access pattern that saturates the internal
//! bandwidth in Fig. 7.

#[cfg(test)]
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

/// First-fit extent allocator over a logical page range.
#[derive(Debug, Clone)]
pub(crate) struct ExtentAllocator {
    free: Vec<Extent>, // sorted by start, non-overlapping, coalesced
}

impl ExtentAllocator {
    /// Creates an allocator managing pages `[start, start + pages)`.
    pub(crate) fn new(start: u64, pages: u64) -> Self {
        let free = if pages == 0 {
            Vec::new()
        } else {
            vec![Extent { start, pages }]
        };
        ExtentAllocator { free }
    }

    /// Rebuilds an allocator from a full range minus already-used extents
    /// (used at mount time).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] when an extent reaches outside
    /// `[start, start + pages)` or overlaps another used extent.
    #[cfg(test)]
    pub(crate) fn from_used(start: u64, pages: u64, used: &[Extent]) -> FsResult<Self> {
        let mut alloc = ExtentAllocator::new(start, pages);
        let mut used = used.to_vec();
        used.sort_by_key(|e| e.start);
        for e in used {
            alloc.reserve(e)?;
        }
        Ok(alloc)
    }

    /// Removes a specific extent from the free list (mount-time replay).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] if the extent is not entirely free.
    #[cfg(test)]
    fn reserve(&mut self, want: Extent) -> FsResult<()> {
        let corrupt = || FsError::Corrupt(format!("extent {want:?} is not free"));
        let end = want.start.checked_add(want.pages).ok_or_else(corrupt)?;
        let idx = self
            .free
            .iter()
            .position(|f| f.start <= want.start && end <= f.end())
            .ok_or_else(corrupt)?;
        let f = self.free.remove(idx);
        let before = Extent {
            start: f.start,
            pages: want.start - f.start,
        };
        let after = Extent {
            start: want.end(),
            pages: f.end() - want.end(),
        };
        let mut insert_at = idx;
        if before.pages > 0 {
            self.free.insert(insert_at, before);
            insert_at += 1;
        }
        if after.pages > 0 {
            self.free.insert(insert_at, after);
        }
        Ok(())
    }

    /// Allocates `pages` pages, first-fit. Returns `None` when no single
    /// free extent is large enough.
    pub(crate) fn allocate(&mut self, pages: u64) -> Option<Extent> {
        if pages == 0 {
            return Some(Extent { start: 0, pages: 0 });
        }
        let idx = self.free.iter().position(|f| f.pages >= pages)?;
        let f = &mut self.free[idx];
        let out = Extent {
            start: f.start,
            pages,
        };
        f.start += pages;
        f.pages -= pages;
        if f.pages == 0 {
            self.free.remove(idx);
        }
        Some(out)
    }

    /// Allocates up to `pages` pages, possibly less (for chunked growth).
    /// Returns `None` only when nothing is free.
    pub(crate) fn allocate_up_to(&mut self, pages: u64) -> Option<Extent> {
        if pages == 0 {
            return Some(Extent { start: 0, pages: 0 });
        }
        // Prefer a full fit; otherwise take the largest free extent.
        if let Some(e) = self.allocate(pages) {
            return Some(e);
        }
        let idx = self
            .free
            .iter()
            .enumerate()
            .max_by_key(|(_, f)| f.pages)
            .map(|(i, _)| i)?;
        let f = self.free.remove(idx);
        Some(f)
    }

    /// Returns an extent to the free pool, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the extent overlaps the free pool (double free).
    #[cfg(test)]
    pub(crate) fn free(&mut self, e: Extent) {
        if e.pages == 0 {
            return;
        }
        let pos = self.free.partition_point(|f| f.start < e.start);
        if pos > 0 {
            assert!(
                self.free[pos - 1].end() <= e.start,
                "double free: {e:?} overlaps {:?}",
                self.free[pos - 1]
            );
        }
        if pos < self.free.len() {
            assert!(
                e.end() <= self.free[pos].start,
                "double free: {e:?} overlaps {:?}",
                self.free[pos]
            );
        }
        self.free.insert(pos, e);
        // Coalesce around pos.
        if pos + 1 < self.free.len() && self.free[pos].end() == self.free[pos + 1].start {
            self.free[pos].pages += self.free[pos + 1].pages;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].end() == self.free[pos].start {
            self.free[pos - 1].pages += self.free[pos].pages;
            self.free.remove(pos);
        }
    }

    /// Total free pages.
    #[cfg(test)]
    pub(crate) fn free_pages(&self) -> u64 {
        self.free.iter().map(|f| f.pages).sum()
    }

    /// Size of the largest free extent.
    pub(crate) fn largest_free(&self) -> u64 {
        self.free.iter().map(|f| f.pages).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_first_fit() {
        let mut a = ExtentAllocator::new(10, 100);
        let e = a.allocate(30).unwrap();
        assert_eq!(
            e,
            Extent {
                start: 10,
                pages: 30
            }
        );
        let f = a.allocate(70).unwrap();
        assert_eq!(
            f,
            Extent {
                start: 40,
                pages: 70
            }
        );
        assert!(a.allocate(1).is_none());
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(0, 100);
        let e1 = a.allocate(30).unwrap();
        let e2 = a.allocate(30).unwrap();
        let e3 = a.allocate(40).unwrap();
        a.free(e1);
        a.free(e3);
        a.free(e2); // middle: should merge into one 100-page extent
        assert_eq!(a.free_pages(), 100);
        assert_eq!(a.largest_free(), 100);
        assert_eq!(
            a.allocate(100).unwrap(),
            Extent {
                start: 0,
                pages: 100
            }
        );
    }

    #[test]
    fn allocate_up_to_takes_largest_partial() {
        let mut a = ExtentAllocator::new(0, 50);
        let _hold = a.allocate(20).unwrap();
        let got = a.allocate_up_to(100).unwrap();
        assert_eq!(got.pages, 30);
        assert_eq!(a.free_pages(), 0);
    }

    #[test]
    fn from_used_replays_mount_state() {
        let used = vec![
            Extent {
                start: 5,
                pages: 10,
            },
            Extent {
                start: 20,
                pages: 5,
            },
        ];
        let a = ExtentAllocator::from_used(0, 30, &used).unwrap();
        assert_eq!(a.free_pages(), 15);
        // Free runs: [0,5), [15,20), [25,30)
        assert_eq!(a.largest_free(), 5);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = ExtentAllocator::new(0, 10);
        let e = a.allocate(5).unwrap();
        a.free(e);
        a.free(e);
    }

    #[test]
    fn zero_page_volume() {
        let mut a = ExtentAllocator::new(0, 0);
        assert!(a.allocate(1).is_none());
        assert_eq!(a.free_pages(), 0);
    }
}
