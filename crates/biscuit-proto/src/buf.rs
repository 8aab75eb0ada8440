//! `Buf`: a cheaply-cloneable, sliceable shared byte buffer, plus a
//! [`BufPool`] of reusable page frames.
//!
//! Biscuit's entire argument is that bytes should move as little as
//! possible (paper §III, §V-B). The simulator's data path honors that by
//! carrying every payload — NAND pages, device-DRAM staging, port
//! packets, host reads — as a `Buf`: an `Arc<[u8]>` plus an offset/length
//! window. Cloning bumps a refcount; `Buf::slice` narrows the window
//! without touching the bytes; a page materialized once at the NAND is
//! the same allocation the host finally reads.
//!
//! [`BufPool`] recycles fixed-size frames (device DRAM pages) so steady
//! state reads stop allocating: a frame returns to the pool when its last
//! reader drops it, and is handed out again zeroed. Frames still shared
//! with a reader are never reused — no aliasing, ever.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;

/// An immutable shared byte buffer: `Arc<[u8]>` + window.
///
/// # Examples
///
/// ```
/// use biscuit_proto::Buf;
///
/// let b = Buf::from_vec(vec![1, 2, 3, 4, 5]);
/// let shared = b.clone(); // a refcount bump, not a copy
/// assert_eq!(&shared[1..4], &[2, 3, 4]);
/// assert_eq!(shared.as_slice().as_ptr(), b.as_slice().as_ptr());
/// assert_eq!(b.len(), 5);
/// ```
#[derive(Clone)]
pub struct Buf {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Buf {
    /// Creates an empty buffer (no allocation is shared).
    pub(crate) fn new() -> Buf {
        static EMPTY: &[u8] = &[];
        Buf {
            data: Arc::from(EMPTY),
            off: 0,
            len: 0,
        }
    }

    /// Takes over a vector's bytes. No copy is *modelled* (nothing is charged
    /// to the simulated data path), but the simulator does make one: an
    /// `Arc<[u8]>` keeps its reference counts in the same allocation as the
    /// bytes, so `Arc::from(Box<[u8]>)` allocates that block, memcpys the
    /// vector into it and frees the vector. Clones and slices then share it.
    pub fn from_vec(v: Vec<u8>) -> Buf {
        let data: Arc<[u8]> = Arc::from(v.into_boxed_slice());
        let len = data.len();
        Buf { data, off: 0, len }
    }

    /// Wraps an existing shared allocation without copying it.
    pub(crate) fn from_arc(data: Arc<[u8]>) -> Buf {
        let len = data.len();
        Buf { data, off: 0, len }
    }

    /// Copies a slice into a fresh buffer (the one constructor that
    /// memcpys; callers on the simulated data path must count it).
    pub fn copy_from_slice(s: &[u8]) -> Buf {
        Buf::from_vec(s.to_vec())
    }

    /// Length of the visible window.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Borrows the visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Narrows to a sub-window, sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the current window.
    pub(crate) fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Buf {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Buf of len {}",
            self.len
        );
        Buf {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Concatenates buffers into one contiguous buffer (copies; the
    /// tests' gather).
    #[cfg(test)]
    pub(crate) fn concat(parts: &[Buf]) -> Buf {
        let total: usize = parts.iter().map(Buf::len).sum();
        let mut v = Vec::with_capacity(total);
        for p in parts {
            v.extend_from_slice(p);
        }
        Buf::from_vec(v)
    }

    /// Number of handles sharing the underlying allocation (diagnostics
    /// and pool-reuse decisions).
    pub(crate) fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// The underlying allocation, if this window covers all of it.
    pub(crate) fn try_into_full_frame(self) -> Option<Arc<[u8]>> {
        if self.off == 0 && self.len == self.data.len() {
            Some(self.data)
        } else {
            None
        }
    }
}

impl Default for Buf {
    fn default() -> Buf {
        Buf::new()
    }
}

impl std::ops::Deref for Buf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Buf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Buf {
    fn from(v: Vec<u8>) -> Buf {
        Buf::from_vec(v)
    }
}

impl From<&[u8]> for Buf {
    fn from(s: &[u8]) -> Buf {
        Buf::copy_from_slice(s)
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Buf {}

impl PartialEq<[u8]> for Buf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Buf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Buf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Buf[{}..{} of {}]",
            self.off,
            self.off + self.len,
            self.data.len()
        )
    }
}

/// A mutable frame checked out of a [`BufPool`]; exactly one handle
/// exists until [`Frame::freeze`] turns it into a shared [`Buf`].
#[derive(Debug)]
pub struct Frame {
    data: Arc<[u8]>,
}

impl Frame {
    /// Mutable access to the frame's bytes (the handle is unique by
    /// construction, so this never fails).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("pool frame is uniquely held")
    }

    /// Freezes the frame into an immutable shared buffer.
    pub fn freeze(self) -> Buf {
        Buf::from_arc(self.data)
    }
}

/// A pool of fixed-size reusable byte frames (device-DRAM page frames).
///
/// # Examples
///
/// ```
/// use biscuit_proto::BufPool;
///
/// let pool = BufPool::new(4, 8);
/// let mut f = pool.take();
/// f.as_mut_slice().copy_from_slice(&[1, 2, 3, 4]);
/// let buf = f.freeze();
/// assert_eq!(&buf[..], &[1, 2, 3, 4]);
/// assert!(pool.recycle(buf)); // sole holder: the frame is reused
/// let again = pool.take().freeze();
/// assert_eq!(&again[..], &[0, 0, 0, 0]); // handed out zeroed
/// ```
#[derive(Debug)]
pub struct BufPool {
    frame_size: usize,
    max_frames: usize,
    free: Mutex<Vec<Arc<[u8]>>>,
    allocated: std::sync::atomic::AtomicU64,
    recycled: std::sync::atomic::AtomicU64,
}

impl BufPool {
    /// Creates a pool of `frame_size`-byte frames keeping at most
    /// `max_frames` free frames cached.
    ///
    /// # Panics
    ///
    /// Panics if `frame_size` is zero.
    pub fn new(frame_size: usize, max_frames: usize) -> BufPool {
        assert!(frame_size > 0, "frame size must be positive");
        BufPool {
            frame_size,
            max_frames,
            free: Mutex::new(Vec::new()),
            allocated: std::sync::atomic::AtomicU64::new(0),
            recycled: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Checks a zeroed frame out of the pool (recycled when available,
    /// freshly allocated otherwise).
    pub fn take(&self) -> Frame {
        use std::sync::atomic::Ordering;
        if let Some(mut data) = self.free.lock().pop() {
            let bytes = Arc::get_mut(&mut data).expect("free-list frames are unique");
            bytes.fill(0);
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return Frame { data };
        }
        self.allocated.fetch_add(1, Ordering::Relaxed);
        // One allocation holding the counts and the zeroed bytes; going
        // through a `Vec` would allocate twice and copy.
        Frame {
            data: std::iter::repeat_n(0u8, self.frame_size).collect(),
        }
    }

    /// Offers a buffer back to the pool. The frame is cached for reuse
    /// only when this handle is the *last* reference to a full pool-sized
    /// frame — shared or sliced buffers are simply dropped, so a recycled
    /// frame can never alias a live reader. Returns whether it was kept.
    pub fn recycle(&self, buf: Buf) -> bool {
        if buf.len() != self.frame_size || buf.ref_count() != 1 {
            return false;
        }
        let Some(frame) = buf.try_into_full_frame() else {
            return false;
        };
        // A clone could not have appeared between the check and the move:
        // we owned the only handle.
        debug_assert_eq!(Arc::strong_count(&frame), 1);
        let mut free = self.free.lock();
        if free.len() >= self.max_frames {
            return false;
        }
        free.push(frame);
        true
    }

    /// Frames newly allocated (not served from the free list).
    pub fn frames_allocated(&self) -> u64 {
        self.allocated.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Checkouts served by recycling a returned frame.
    pub fn frames_recycled(&self) -> u64 {
        self.recycled.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_composes_and_shares() {
        let b = Buf::from_vec((0u8..100).collect());
        let s1 = b.slice(10..90);
        let s2 = s1.slice(5..15);
        assert_eq!(&s2[..], &(15u8..25).collect::<Vec<u8>>()[..]);
        // All three views share one allocation.
        assert_eq!(b.ref_count(), 3);
    }

    #[test]
    fn empty_buf_is_cheap() {
        let b = Buf::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        let s = b.slice(0..0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_slice_panics() {
        Buf::from_vec(vec![1, 2, 3]).slice(0..4);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Buf::from_vec(vec![9, 9, 7]);
        let b = Buf::from_vec(vec![0, 9, 9, 7, 0]).slice(1..4);
        assert_eq!(a, b);
        let hash = |x: &Buf| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn concat_joins_windows() {
        let a = Buf::from_vec(vec![1, 2, 3]).slice(1..);
        let b = Buf::from_vec(vec![4, 5]);
        assert_eq!(&Buf::concat(&[a, b])[..], &[2, 3, 4, 5]);
        assert!(Buf::concat(&[]).is_empty());
    }

    #[test]
    fn pool_recycles_unique_full_frames_only() {
        let pool = BufPool::new(8, 4);
        let f = pool.take();
        let buf = f.freeze();
        let held = buf.clone();
        // Shared: refused.
        assert!(!pool.recycle(buf));
        // Sliced: refused even when unique again.
        let part = held.slice(0..4);
        drop(held);
        assert!(!pool.recycle(part));
        // Unique and full-frame: kept, handed out zeroed.
        let mut f2 = pool.take();
        f2.as_mut_slice().fill(0xAB);
        let b2 = f2.freeze();
        assert!(pool.recycle(b2));
        assert_eq!(&pool.take().freeze()[..], &[0u8; 8]);
        assert!(pool.frames_recycled() >= 1);
    }

    #[test]
    fn pool_caps_free_list() {
        let pool = BufPool::new(4, 1);
        let a = pool.take().freeze();
        let b = pool.take().freeze();
        assert!(pool.recycle(a));
        assert!(!pool.recycle(b), "free list is full at max_frames");
    }
}
