//! The on-device filesystem.
//!
//! Biscuit "prohibits SSDlets from directly using low-level, logical block
//! addresses and forces the SSD to operate under a file system" (paper
//! §III-D). This module is that filesystem: a flat-namespace, extent-based
//! volume whose metadata persists in a reserved region of the device, with
//! host-side and device-side file handles that share one inode table (so an
//! SSDlet's access rights are inherited from the host program that opened
//! the file — §III-D's permission model).

use std::collections::HashMap;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_proto::packet::{Packet, PacketBuilder};
use biscuit_sim::Ctx;
use biscuit_ssd::pattern::PatternSet;
use biscuit_ssd::{PageBuf, SsdDevice};

use crate::alloc::{Extent, ExtentAllocator};
use crate::error::{FsError, FsResult};

pub(crate) const MAGIC: u64 = 0x4253_4654_2d52_5331; // "BSFT-RS1"
const DEFAULT_META_PAGES: u64 = 64;
/// Pages added per growth step when appending past current capacity.
const GROWTH_PAGES: u64 = 256;

/// Access mode of a file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reads only.
    ReadOnly,
    /// Reads and writes.
    ReadWrite,
}

#[derive(Debug, Clone)]
struct Inode {
    size: u64,
    extents: Vec<Extent>,
}

impl Inode {
    fn capacity_pages(&self) -> u64 {
        self.extents.iter().map(|e| e.pages).sum()
    }

    /// Logical page holding byte `offset` of the file.
    fn lpn_of(&self, page_index: u64) -> u64 {
        let mut remaining = page_index;
        for e in &self.extents {
            if remaining < e.pages {
                return e.start + remaining;
            }
            remaining -= e.pages;
        }
        panic!("page index {page_index} beyond file capacity");
    }
}

#[derive(Debug)]
struct FsState {
    files: HashMap<String, Inode>,
    alloc: ExtentAllocator,
}

struct FsInner {
    device: Arc<SsdDevice>,
    page_size: usize,
    meta_pages: u64,
    state: Mutex<FsState>,
}

impl std::fmt::Debug for FsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fs")
            .field("files", &self.state.lock().files.len())
            .finish()
    }
}

/// The filesystem handle (cheaply cloneable).
///
/// # Examples
///
/// ```
/// use biscuit_fs::{Fs, Mode};
/// use biscuit_ssd::{SsdConfig, SsdDevice};
/// use biscuit_sim::Simulation;
/// use std::sync::Arc;
///
/// let dev = Arc::new(SsdDevice::new(SsdConfig {
///     logical_capacity: 16 << 20,
///     ..SsdConfig::paper_default()
/// }));
/// let fs = Fs::format(dev);
/// fs.create("data.log").unwrap();
/// fs.append_untimed("data.log", b"hello biscuit").unwrap();
///
/// let sim = Simulation::new(0);
/// let file = fs.open("data.log", Mode::ReadOnly).unwrap();
/// sim.spawn("reader", move |ctx| {
///     let bytes = file.read_at(ctx, 0, 13).unwrap();
///     assert_eq!(&bytes, b"hello biscuit");
/// });
/// sim.run().assert_quiescent();
/// ```
#[derive(Debug, Clone)]
pub struct Fs {
    inner: Arc<FsInner>,
}

impl Fs {
    /// Formats the device with an empty volume, reserving a metadata region.
    pub fn format(device: Arc<SsdDevice>) -> Fs {
        let page_size = device.config().page_size;
        let total_pages = device.config().logical_pages();
        assert!(
            total_pages > DEFAULT_META_PAGES,
            "device too small for filesystem metadata"
        );
        let fs = Fs {
            inner: Arc::new(FsInner {
                page_size,
                meta_pages: DEFAULT_META_PAGES,
                state: Mutex::new(FsState {
                    files: HashMap::new(),
                    alloc: ExtentAllocator::new(
                        DEFAULT_META_PAGES,
                        total_pages - DEFAULT_META_PAGES,
                    ),
                }),
                device,
            }),
        };
        fs.sync_untimed().expect("formatting writes metadata");
        fs
    }

    /// Mounts an existing volume by replaying the metadata region: what a
    /// host does after a power loss, once the device has replayed its
    /// journal. Files created or grown since the last
    /// [`sync`](File::sync) are not in the table.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupt`] if no valid superblock is present, if a
    /// name is listed twice, if a file's size outruns its extents, or if a
    /// file's extents reach outside the data region or overlap.
    pub fn mount(device: Arc<SsdDevice>) -> FsResult<Fs> {
        let page_size = device.config().page_size;
        let total_pages = device.config().logical_pages();
        // Read the metadata region.
        let mut meta = Vec::new();
        for lpn in 0..DEFAULT_META_PAGES {
            meta.extend_from_slice(&device.peek_page(lpn)?);
        }
        let meta_len = meta.len();
        let pkt = Packet::from(meta);
        let mut r = pkt.reader();
        let magic = r.get_u64().map_err(|e| FsError::Corrupt(e.to_string()))?;
        if magic != MAGIC {
            return Err(FsError::Corrupt(format!("bad magic {magic:#x}")));
        }
        let count = r.get_u32().map_err(|e| FsError::Corrupt(e.to_string()))?;
        let mut files: HashMap<String, Inode> = HashMap::new();
        let mut used = Vec::new();
        for _ in 0..count {
            let name = r
                .get_str()
                .map_err(|e| FsError::Corrupt(e.to_string()))?
                .to_owned();
            let size = r.get_u64().map_err(|e| FsError::Corrupt(e.to_string()))?;
            let n_ext = r.get_u32().map_err(|e| FsError::Corrupt(e.to_string()))?;
            // An extent takes 16 bytes: no more fit in the region.
            let mut extents = Vec::with_capacity((n_ext as usize).min(meta_len / 16));
            for _ in 0..n_ext {
                let start = r.get_u64().map_err(|e| FsError::Corrupt(e.to_string()))?;
                let pages = r.get_u64().map_err(|e| FsError::Corrupt(e.to_string()))?;
                let e = Extent { start, pages };
                extents.push(e);
                used.push(e);
            }
            let capacity = extents
                .iter()
                .try_fold(0u64, |sum, e| sum.checked_add(e.pages))
                .and_then(|pages| pages.checked_mul(page_size as u64));
            if capacity.is_none_or(|bytes| size > bytes) {
                return Err(FsError::Corrupt(format!(
                    "file {name:?} of {size} bytes outruns its extents"
                )));
            }
            if files.contains_key(&name) {
                return Err(FsError::Corrupt(format!("file {name:?} is listed twice")));
            }
            files.insert(name, Inode { size, extents });
        }
        let data_pages = total_pages - DEFAULT_META_PAGES;
        let alloc = ExtentAllocator::from_used(DEFAULT_META_PAGES, data_pages, &used)?;
        Ok(Fs {
            inner: Arc::new(FsInner {
                page_size,
                meta_pages: DEFAULT_META_PAGES,
                state: Mutex::new(FsState { files, alloc }),
                device,
            }),
        })
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<SsdDevice> {
        &self.inner.device
    }

    /// Creates an empty file and returns a writable handle.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if the path is taken.
    pub fn create(&self, path: &str) -> FsResult<File> {
        let mut st = self.inner.state.lock();
        if st.files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_owned()));
        }
        st.files.insert(
            path.to_owned(),
            Inode {
                size: 0,
                extents: Vec::new(),
            },
        );
        Ok(File {
            inner: Arc::clone(&self.inner),
            path: path.to_owned(),
            mode: Mode::ReadWrite,
            write_buffer: Vec::new(),
        })
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the path does not exist.
    pub fn open(&self, path: &str, mode: Mode) -> FsResult<File> {
        let st = self.inner.state.lock();
        if !st.files.contains_key(path) {
            return Err(FsError::NotFound(path.to_owned()));
        }
        Ok(File {
            inner: Arc::clone(&self.inner),
            path: path.to_owned(),
            mode,
            write_buffer: Vec::new(),
        })
    }

    /// True if the path exists.
    #[cfg(test)]
    pub(crate) fn exists(&self, path: &str) -> bool {
        self.inner.state.lock().files.contains_key(path)
    }

    /// Persists metadata to the reserved region without charging time
    /// (setup/teardown helper; measured paths don't sync metadata).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] if metadata outgrew the reserved region.
    pub(crate) fn sync_untimed(&self) -> FsResult<()> {
        persist_metadata(&self.inner, None)
    }

    /// Creates a file whose pages are *deterministically regenerated* on
    /// demand instead of stored — the storage-free path for huge synthetic
    /// corpora (the paper's 7.8 GiB web log or 20 GiB graph store would not
    /// fit in host RAM if materialized). Functionally identical to a file
    /// loaded with the generator's bytes.
    ///
    /// The generator receives the file-relative page index, and `len` must
    /// be page-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] or [`FsError::NoSpace`].
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of the page size.
    pub fn create_synthetic(
        &self,
        path: &str,
        len: u64,
        gen: Arc<dyn biscuit_ssd::PageGen>,
    ) -> FsResult<File> {
        let ps = self.inner.page_size as u64;
        assert_eq!(len % ps, 0, "synthetic file length must be page-aligned");
        let file = self.create(path)?;
        let pages = len / ps;
        {
            let mut st = self.inner.state.lock();
            Fs::grow_locked(&mut st, path, len, ps)?;
            let inode = st.files.get_mut(path).expect("just created");
            inode.size = len;
        }
        let inode = self
            .inner
            .state
            .lock()
            .files
            .get(path)
            .cloned()
            .expect("just created");
        for page_idx in 0..pages {
            let lpn = inode.lpn_of(page_idx);
            self.inner
                .device
                .load_page(
                    lpn,
                    biscuit_ssd::PageData::Synth {
                        lpn: page_idx,
                        gen: Arc::clone(&gen),
                    },
                )
                .map_err(FsError::Device)?;
        }
        self.sync_untimed()?;
        Ok(file)
    }

    /// Appends bytes to a file without charging virtual time (bulk dataset
    /// loading; generators use this before experiments start).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] or [`FsError::NoSpace`].
    pub fn append_untimed(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let device = &self.inner.device;
        let batch = stage_write(&self.inner, None, path, None, data, |lpn| {
            Ok(device.peek_page(lpn)?)
        })?;
        for (lpn, page) in batch {
            device.load_page(lpn, biscuit_ssd::PageData::Bytes(page))?;
        }
        self.sync_untimed()
    }

    fn grow_locked(st: &mut FsState, path: &str, need_bytes: u64, ps: u64) -> FsResult<()> {
        let need_pages = need_bytes.div_ceil(ps);
        loop {
            let inode = st.files.get(path).expect("caller checked existence");
            let have = inode.capacity_pages();
            if have >= need_pages {
                return Ok(());
            }
            let want = (need_pages - have).clamp(1, GROWTH_PAGES);
            let Some(ext) = st.alloc.allocate_up_to(want) else {
                return Err(FsError::NoSpace {
                    requested_pages: want,
                    largest_free: st.alloc.largest_free(),
                });
            };
            let inode = st.files.get_mut(path).expect("caller checked existence");
            // Merge with the previous extent when contiguous.
            if let Some(last) = inode.extents.last_mut() {
                if last.end() == ext.start {
                    last.pages += ext.pages;
                    continue;
                }
            }
            inode.extents.push(ext);
        }
    }
}

/// Serializes the inode table + extent lists into the metadata region's
/// wire format (sorted by path, so encoding is deterministic).
fn encode_metadata(inner: &FsInner) -> Vec<u8> {
    let st = inner.state.lock();
    let mut b = PacketBuilder::new();
    b.put_u64(MAGIC);
    let mut names: Vec<&String> = st.files.keys().collect();
    names.sort();
    b.put_u32(names.len() as u32);
    for name in names {
        let inode = &st.files[name];
        b.put_str(name);
        b.put_u64(inode.size);
        b.put_u32(inode.extents.len() as u32);
        for e in &inode.extents {
            b.put_u64(e.start);
            b.put_u64(e.pages);
        }
    }
    b.build().into_buf().to_vec()
}

/// Writes the metadata region, free of virtual time. `ctx` is the syncing
/// fiber, in whose simulation the write is counted; untimed set-up passes
/// `None` and reports nothing.
fn persist_metadata(inner: &FsInner, ctx: Option<&Ctx>) -> FsResult<()> {
    let bytes = encode_metadata(inner);
    let budget = inner.meta_pages * inner.page_size as u64;
    if bytes.len() as u64 > budget {
        return Err(FsError::NoSpace {
            requested_pages: (bytes.len() as u64).div_ceil(inner.page_size as u64),
            largest_free: inner.meta_pages,
        });
    }
    inner.device.store_bytes(ctx, 0, &bytes)?;
    Ok(())
}

/// The one grow-and-stage step behind every write: extends `path` to cover
/// `[offset, offset + data.len())` — `None` appends, resolving the end of
/// file under the same lock that grows it, so concurrent appends never
/// overlap — then fills one device page frame per touched page. A page the
/// range only partly covers starts from its live contents (fetched through
/// `read_page`, the caller's timed or untimed read) or from zeros past the
/// old end of file. A timed caller's staging copies count in its simulation
/// (`ctx`); an untimed one passes `None`.
fn stage_write(
    inner: &FsInner,
    ctx: Option<&Ctx>,
    path: &str,
    offset: Option<u64>,
    data: &[u8],
    mut read_page: impl FnMut(u64) -> FsResult<PageBuf>,
) -> FsResult<Vec<(u64, PageBuf)>> {
    let ps = inner.page_size as u64;
    let (old_size, offset, end, lpn_writes) = {
        let mut st = inner.state.lock();
        let old = st
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))?
            .size;
        let offset = offset.unwrap_or(old);
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::OutOfBounds {
                offset,
                len: data.len() as u64,
                size: old,
            })?;
        Fs::grow_locked(&mut st, path, end.max(old), ps)?;
        let inode = st.files.get_mut(path).expect("checked");
        inode.size = inode.size.max(end);
        let writes: Vec<(u64, u64)> = (offset / ps..end.div_ceil(ps))
            .map(|pi| (inode.lpn_of(pi), pi))
            .collect();
        (old, offset, end, writes)
    };
    let mut batch = Vec::with_capacity(lpn_writes.len());
    for (lpn, page_index) in lpn_writes {
        let page_start = page_index * ps;
        let page_end = page_start + ps;
        let full_cover = offset <= page_start && end >= page_end;
        let mut frame = inner.device.frame_pool().take();
        let page = frame.as_mut_slice();
        if !full_cover {
            if page_start < old_size {
                // Page holds live bytes outside the written range.
                page.copy_from_slice(&read_page(lpn)?);
            } else {
                page.fill(0);
            }
        }
        let copy_from = page_start.max(offset);
        let copy_to = page_end.min(end);
        let dst = (copy_from - page_start) as usize..(copy_to - page_start) as usize;
        let src = (copy_from - offset) as usize..(copy_to - offset) as usize;
        page[dst].copy_from_slice(&data[src]);
        inner
            .device
            .count_copy(ctx, biscuit_ssd::CopySite::WriteStage, ps);
        batch.push((lpn, frame.freeze()));
    }
    Ok(batch)
}

/// A file handle, usable from host fibers and SSDlet fibers alike.
///
/// Mirrors the paper's split `File` classes: the handle created host-side
/// (libsisc) is passed to SSDlets (libslet) and carries its access mode with
/// it, so device-side permission equals host-side permission. Writes follow
/// the paper's §III-D API: an *asynchronous* write that buffers in the
/// handle ([`File::write_async`]) and a *synchronous* [`File::flush`] that
/// pipelines the buffered pages onto the flash.
#[derive(Debug, Clone)]
pub struct File {
    inner: Arc<FsInner>,
    path: String,
    mode: Mode,
    write_buffer: Vec<u8>,
}

impl File {
    /// A read-only clone of this handle (what a host program should hand to
    /// an SSDlet that only scans).
    pub fn read_only(&self) -> File {
        File {
            inner: Arc::clone(&self.inner),
            path: self.path.clone(),
            mode: Mode::ReadOnly,
            write_buffer: Vec::new(),
        }
    }

    /// Current size in bytes.
    pub fn len(&self) -> u64 {
        self.snapshot().size
    }

    /// True if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The file's inode. A handle exists only for a file of its own `Fs`,
    /// and files are never removed, so the lookup cannot miss.
    fn snapshot(&self) -> Inode {
        self.inner
            .state
            .lock()
            .files
            .get(&self.path)
            .cloned()
            .expect("a handle's file stays in its Fs")
    }

    /// Logical pages backing byte range `[offset, offset + len)`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] if the range exceeds the file.
    pub fn lpns_for_range(&self, offset: u64, len: u64) -> FsResult<Vec<u64>> {
        let inode = self.snapshot();
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= inode.size)
            .ok_or(FsError::OutOfBounds {
                offset,
                len,
                size: inode.size,
            })?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let ps = self.inner.page_size as u64;
        let first = offset / ps;
        let last = end.div_ceil(ps);
        Ok((first..last).map(|pi| inode.lpn_of(pi)).collect())
    }

    /// Splits byte range `[offset, offset + len)` into per-page
    /// `(lpn, bytes_touched)` spans: head and tail pages may be partial.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] if the range exceeds the file.
    pub fn page_spans(&self, offset: u64, len: u64) -> FsResult<Vec<(u64, usize)>> {
        let lpns = self.lpns_for_range(offset, len)?;
        let ps = self.inner.page_size as u64;
        let mut spans = Vec::with_capacity(lpns.len());
        let mut pos = offset;
        let end = offset + len;
        for lpn in lpns {
            let page_end = (pos / ps + 1) * ps;
            let take = page_end.min(end) - pos;
            spans.push((lpn, take as usize));
            pos += take;
        }
        Ok(spans)
    }

    /// Synchronous read: one device request covering the range, blocking the
    /// fiber until the data arrives (paper's synchronous read API). Only the
    /// touched bytes of each page occupy the channel buses.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] or a device error.
    pub fn read_at(&self, ctx: &Ctx, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        let spans = self.page_spans(offset, len)?;
        let pages = self.inner.device.read_spans(ctx, &spans)?;
        Ok(self.slice_pages(ctx, &pages, offset, len))
    }

    /// Asynchronous read: requests of `request_pages` pages with up to
    /// `queue_depth` in flight (paper's asynchronous read API, recommended
    /// for high-bandwidth file I/O).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] or a device error.
    pub fn read_at_async(
        &self,
        ctx: &Ctx,
        offset: u64,
        len: u64,
        request_pages: usize,
        queue_depth: usize,
    ) -> FsResult<Vec<u8>> {
        let lpns = self.lpns_for_range(offset, len)?;
        let pages = self
            .inner
            .device
            .read_pages_async(ctx, &lpns, request_pages, queue_depth)?;
        Ok(self.slice_pages(ctx, &pages, offset, len))
    }

    /// Assembles the pages backing `[offset, offset + len)` into one
    /// contiguous buffer, counted once as a
    /// [`HostAssemble`](biscuit_ssd::CopySite::HostAssemble) copy. Every
    /// read path that returns bytes rather than page buffers ends here.
    pub fn slice_pages(&self, ctx: &Ctx, pages: &[PageBuf], offset: u64, len: u64) -> Vec<u8> {
        self.inner
            .device
            .count_copy(Some(ctx), biscuit_ssd::CopySite::HostAssemble, len);
        let ps = self.inner.page_size as u64;
        let mut out = Vec::with_capacity(len as usize);
        let head = offset % ps;
        let mut remaining = len;
        for (i, page) in pages.iter().enumerate() {
            let start = if i == 0 { head as usize } else { 0 };
            let take = ((ps as usize - start) as u64).min(remaining) as usize;
            out.extend_from_slice(&page[start..start + take]);
            remaining -= take as u64;
        }
        out
    }

    /// Streams the whole file through the per-channel pattern matcher IP,
    /// returning `(file_page_index, page)` for matching pages only.
    ///
    /// # Errors
    ///
    /// Returns a device error.
    pub fn scan(
        &self,
        ctx: &Ctx,
        pattern: &PatternSet,
        request_pages: usize,
        queue_depth: usize,
    ) -> FsResult<Vec<(u64, PageBuf)>> {
        let inode = self.snapshot();
        let ps = self.inner.page_size as u64;
        let n_pages = inode.size.div_ceil(ps);
        let lpns: Vec<u64> = (0..n_pages).map(|pi| inode.lpn_of(pi)).collect();
        let by_lpn: HashMap<u64, u64> = lpns
            .iter()
            .enumerate()
            .map(|(pi, &lpn)| (lpn, pi as u64))
            .collect();
        let hits = self
            .inner
            .device
            .scan_pages(ctx, &lpns, pattern, request_pages, queue_depth)?;
        Ok(hits
            .into_iter()
            .map(|(lpn, buf)| (by_lpn[&lpn], buf))
            .collect())
    }

    /// Asynchronous write (paper §III-D): buffers `data` in the handle with
    /// no virtual-time cost. Call [`File::flush`] to make it durable.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::ReadOnly`] on a read-only handle.
    pub fn write_async(&mut self, data: &[u8]) -> FsResult<()> {
        if self.mode != Mode::ReadWrite {
            return Err(FsError::ReadOnly(self.path.clone()));
        }
        self.write_buffer.extend_from_slice(data);
        Ok(())
    }

    /// Bytes buffered by [`File::write_async`] and not yet flushed.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.write_buffer.len()
    }

    /// Synchronous flush (paper §III-D): appends everything buffered by
    /// [`File::write_async`] — a [`File::write_at`] at the current end of
    /// file — and blocks until all of it is on flash.
    ///
    /// # Errors
    ///
    /// Returns storage errors; on success the buffer is empty.
    pub fn flush(&mut self, ctx: &Ctx) -> FsResult<()> {
        if self.write_buffer.is_empty() {
            return Ok(());
        }
        let data = std::mem::take(&mut self.write_buffer);
        self.write_staged(ctx, None, &data)
    }

    /// Positional timed write (paper §III-D `write`): overwrites bytes at
    /// `offset`, extending the file when the range runs past the current
    /// end. Head and tail pages only partially covered by the range are
    /// read-modify-written; every page is staged once into a device page
    /// frame and the batch pipelines across the dies at queue depth 16.
    /// Writing the same range twice is idempotent, which is what lets a
    /// host redo its write phase after a power-loss recovery.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::ReadOnly`], [`FsError::NoSpace`], or a device
    /// error.
    pub fn write_at(&self, ctx: &Ctx, offset: u64, data: &[u8]) -> FsResult<()> {
        if self.mode != Mode::ReadWrite {
            return Err(FsError::ReadOnly(self.path.clone()));
        }
        if data.is_empty() {
            return Ok(());
        }
        self.write_staged(ctx, Some(offset), data)
    }

    /// The timed write behind [`File::write_at`] and [`File::flush`]
    /// (`None` = at the end of file).
    fn write_staged(&self, ctx: &Ctx, offset: Option<u64>, data: &[u8]) -> FsResult<()> {
        let device = &self.inner.device;
        let batch = stage_write(&self.inner, Some(ctx), &self.path, offset, data, |lpn| {
            Ok(device.read_pages(ctx, &[lpn])?.remove(0))
        })?;
        device
            .write_bufs_async(ctx, &batch, 16)
            .map_err(FsError::Device)
    }

    /// Durability barrier (paper §III-D `sync`): flushes everything
    /// buffered by [`File::write_async`], persists filesystem metadata,
    /// and forces a journal checkpoint of the device's L2P state — after
    /// `sync` returns, a power loss replays nothing issued before it and
    /// every acked byte survives recovery.
    ///
    /// # Errors
    ///
    /// Returns storage errors; a crashed, unrecovered device fails with
    /// the wrapped [`biscuit_ssd::FtlError::PowerLoss`].
    pub fn sync(&mut self, ctx: &Ctx) -> FsResult<()> {
        self.flush(ctx)?;
        persist_metadata(&self.inner, Some(ctx))?;
        self.inner.device.checkpoint(ctx).map_err(FsError::Device)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_sim::fault::{FaultConfig, FaultPlan, PowerLossPhase};
    use biscuit_sim::Simulation;
    use biscuit_ssd::SsdConfig;
    use std::sync::atomic::Ordering;

    fn device() -> Arc<SsdDevice> {
        Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }))
    }

    #[test]
    fn create_and_open() {
        let fs = Fs::format(device());
        fs.create("a.txt").unwrap();
        assert!(fs.exists("a.txt"));
        assert!(matches!(fs.create("a.txt"), Err(FsError::AlreadyExists(_))));
        fs.open("a.txt", Mode::ReadOnly).unwrap();
        assert!(matches!(
            fs.open("missing", Mode::ReadOnly),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn untimed_append_and_timed_read() {
        let fs = Fs::format(device());
        fs.create("data").unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        fs.append_untimed("data", &payload).unwrap();

        let sim = Simulation::new(0);
        let f = fs.open("data", Mode::ReadOnly).unwrap();
        let expect = payload.clone();
        sim.spawn("r", move |ctx| {
            let got = f.read_at(ctx, 0, expect.len() as u64).unwrap();
            assert_eq!(got, expect);
            // Unaligned slice in the middle.
            let mid = f.read_at(ctx, 12_345, 4_321).unwrap();
            assert_eq!(&mid[..], &payload[12_345..12_345 + 4_321]);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn multiple_appends_accumulate() {
        let fs = Fs::format(device());
        fs.create("log").unwrap();
        fs.append_untimed("log", b"hello ").unwrap();
        fs.append_untimed("log", b"world").unwrap();
        let sim = Simulation::new(0);
        let f = fs.open("log", Mode::ReadOnly).unwrap();
        sim.spawn("r", move |ctx| {
            assert_eq!(f.read_at(ctx, 0, 11).unwrap(), b"hello world");
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn timed_append_via_handle() {
        let fs = Fs::format(device());
        let mut f = fs.create("w").unwrap();
        let sim = Simulation::new(0);
        sim.spawn("w", move |ctx| {
            f.write_async(b"abc").unwrap();
            f.flush(ctx).unwrap();
            f.write_async(b"def").unwrap();
            f.flush(ctx).unwrap();
            assert_eq!(f.read_at(ctx, 0, 6).unwrap(), b"abcdef");
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn read_only_handle_rejects_writes() {
        let fs = Fs::format(device());
        fs.create("x").unwrap();
        let mut ro = fs.open("x", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        sim.spawn("w", move |ctx| {
            assert!(matches!(
                ro.write_at(ctx, 0, b"no"),
                Err(FsError::ReadOnly(_))
            ));
            assert!(matches!(ro.write_async(b"no"), Err(FsError::ReadOnly(_))));
            assert_eq!(ro.len(), 0);
        });
        sim.run().assert_quiescent();
    }

    /// `flush` is `write_at(current size, buffered bytes)`: twin devices
    /// driven one way each end in the same state at the same instant.
    #[test]
    fn flush_equals_write_at_end_of_file() {
        fn run(buffered: bool) -> (String, [u64; 2], u64) {
            let dev = device();
            let fs = Fs::format(Arc::clone(&dev));
            let mut f = fs.create("t").unwrap();
            let sim = Simulation::new(0);
            sim.spawn("w", move |ctx| {
                // An unaligned first append, then one that read-modify-
                // writes its head page and spills over two more.
                for len in [5_000usize, 40_000] {
                    let bytes: Vec<u8> = (0..len).map(|i| (i % 247) as u8).collect();
                    if buffered {
                        f.write_async(&bytes).unwrap();
                        f.flush(ctx).unwrap();
                    } else {
                        let end = f.len();
                        f.write_at(ctx, end, &bytes).unwrap();
                    }
                }
            });
            let report = sim.run();
            report.assert_quiescent();
            let stats = dev.stats();
            (
                dev.export_state(),
                [
                    stats.pages_read.load(Ordering::Relaxed),
                    stats.pages_written.load(Ordering::Relaxed),
                ],
                report.end_time.as_ps(),
            )
        }
        let flushed = run(true);
        assert_eq!(flushed.1, [1, 4], "one RMW read, one plus three programs");
        assert_eq!(flushed, run(false));
    }

    /// An append takes its offset under the lock that grows the file, so
    /// appends racing on real threads land back to back.
    #[test]
    fn concurrent_appends_never_overlap() {
        let fs = Fs::format(device());
        fs.create("log").unwrap();
        let ps = fs.device().config().page_size;
        std::thread::scope(|s| {
            for tag in [b'a', b'b'] {
                let fs = &fs;
                s.spawn(move || {
                    for _ in 0..40 {
                        fs.append_untimed("log", &vec![tag; ps]).unwrap();
                    }
                });
            }
        });
        let f = fs.open("log", Mode::ReadOnly).unwrap();
        assert_eq!(f.len(), 80 * ps as u64);
        let lpns = f.lpns_for_range(0, 80 * ps as u64).unwrap();
        let tags: Vec<u8> = lpns
            .iter()
            .map(|&lpn| fs.device().peek_page(lpn).unwrap()[0])
            .collect();
        assert_eq!(tags.iter().filter(|&&b| b == b'a').count(), 40);
        assert_eq!(tags.iter().filter(|&&b| b == b'b').count(), 40);
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let fs = Fs::format(device());
        fs.create("s").unwrap();
        fs.append_untimed("s", b"1234").unwrap();
        let f = fs.open("s", Mode::ReadOnly).unwrap();
        assert!(matches!(
            f.lpns_for_range(0, 5),
            Err(FsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn mount_replays_metadata() {
        let dev = device();
        {
            let fs = Fs::format(Arc::clone(&dev));
            fs.create("persisted").unwrap();
            fs.append_untimed("persisted", b"still here after remount")
                .unwrap();
        }
        let fs2 = Fs::mount(dev).unwrap();
        assert!(fs2.exists("persisted"));
        let sim = Simulation::new(0);
        let f = fs2.open("persisted", Mode::ReadOnly).unwrap();
        sim.spawn("r", move |ctx| {
            assert_eq!(f.read_at(ctx, 0, 24).unwrap(), b"still here after remount");
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn mount_unformatted_device_fails() {
        assert!(matches!(Fs::mount(device()), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn scan_finds_matching_pages() {
        let fs = Fs::format(device());
        fs.create("corpus").unwrap();
        let ps = fs.device().config().page_size;
        let mut data = vec![b'.'; ps * 3];
        data[ps + 10..ps + 16].copy_from_slice(b"needle");
        fs.append_untimed("corpus", &data).unwrap();
        let sim = Simulation::new(0);
        let f = fs.open("corpus", Mode::ReadOnly).unwrap();
        sim.spawn("s", move |ctx| {
            let pat = PatternSet::from_strs(&["needle"]).unwrap();
            let hits = f.scan(ctx, &pat, 8, 4).unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].0, 1); // second page of the file
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn write_at_overwrites_and_extends() {
        let fs = Fs::format(device());
        fs.create("w").unwrap();
        let ps = fs.device().config().page_size as u64;
        fs.append_untimed("w", &vec![b'a'; 3 * ps as usize])
            .unwrap();
        let sim = Simulation::new(0);
        let f = fs.open("w", Mode::ReadWrite).unwrap();
        sim.spawn("w", move |ctx| {
            // Unaligned overwrite spanning two pages.
            f.write_at(ctx, ps - 5, &[b'x'; 10]).unwrap();
            let got = f.read_at(ctx, ps - 6, 12).unwrap();
            assert_eq!(&got, b"axxxxxxxxxxa");
            // Extend past the end; the gap reads back as zeros.
            f.write_at(ctx, 4 * ps + 7, b"tail").unwrap();
            assert_eq!(f.len(), 4 * ps + 11);
            let gap = f.read_at(ctx, 3 * ps, ps + 11).unwrap();
            assert!(gap[..ps as usize + 7].iter().all(|&b| b == 0));
            assert_eq!(&gap[ps as usize + 7..], b"tail");
            // Idempotent redo: same write twice, same bytes.
            f.write_at(ctx, ps - 5, &[b'x'; 10]).unwrap();
            assert_eq!(f.read_at(ctx, ps - 6, 12).unwrap(), b"axxxxxxxxxxa");
        });
        sim.run().assert_quiescent();
    }

    /// A range whose end overflows `u64` is out of bounds: it neither reads
    /// an empty slice nor acknowledges a write it dropped.
    #[test]
    fn overflowing_byte_ranges_are_out_of_bounds() {
        let fs = Fs::format(device());
        fs.create("f").unwrap();
        let data: Vec<u8> = (0..100u8).collect();
        fs.append_untimed("f", &data).unwrap();
        let f = fs.open("f", Mode::ReadWrite).unwrap();
        let oob = |r: FsResult<_>| matches!(r, Err(FsError::OutOfBounds { .. }));
        assert!(oob(f.lpns_for_range(u64::MAX, 2).map(drop)));
        assert!(oob(f.page_spans(u64::MAX, 2).map(drop)));
        let sim = Simulation::new(0);
        sim.spawn("rw", move |ctx| {
            assert!(oob(f.read_at(ctx, u64::MAX, 2).map(drop)));
            assert!(oob(f.read_at_async(ctx, u64::MAX, 2, 1, 1).map(drop)));
            assert!(oob(f.write_at(ctx, u64::MAX - 1, &[1, 2, 3, 4])));
            assert_eq!(f.len(), 100);
            assert_eq!(f.read_at(ctx, 0, 100).unwrap(), data);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn sync_checkpoints_the_device_journal() {
        let fs = Fs::format(device());
        let mut f = fs.create("s").unwrap();
        let sim = Simulation::new(0);
        let dev = Arc::clone(fs.device());
        sim.spawn("w", move |ctx| {
            f.write_async(&vec![9u8; 100_000]).unwrap();
            let (_, before_ckpts, _) = dev.journal_stats();
            f.sync(ctx).unwrap();
            assert_eq!(f.buffered(), 0);
            let (_, after_ckpts, _) = dev.journal_stats();
            assert!(after_ckpts > before_ckpts, "sync must checkpoint");
            assert_eq!(f.read_at(ctx, 0, 100_000).unwrap(), vec![9u8; 100_000]);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn flush_survives_remount() {
        let dev = device();
        let fs = Fs::format(Arc::clone(&dev));
        let mut f = fs.create("d").unwrap();
        let payload: Vec<u8> = (0..80_000u32).map(|i| (i % 249) as u8).collect();
        let sim = Simulation::new(0);
        let p2 = payload.clone();
        sim.spawn("w", move |ctx| {
            f.write_async(&p2).unwrap();
            f.sync(ctx).unwrap();
        });
        sim.run().assert_quiescent();
        // sync persisted metadata, so a fresh mount sees the file.
        let fs2 = Fs::mount(dev).unwrap();
        let f2 = fs2.open("d", Mode::ReadOnly).unwrap();
        let sim2 = Simulation::new(0);
        sim2.spawn("r", move |ctx| {
            assert_eq!(f2.read_at(ctx, 0, 80_000).unwrap(), payload);
        });
        sim2.run().assert_quiescent();
    }

    /// A host that loses power mid-overwrite recovers the device, remounts,
    /// and finds its synced file intact; redoing the overwrite through the
    /// mounted volume lands it.
    #[test]
    fn remount_after_power_loss_restores_synced_files() {
        let dev = device();
        let fs = Fs::format(Arc::clone(&dev));
        let ps = dev.config().page_size;
        let synced: Vec<u8> = (0..16 * ps).map(|i| (i % 241) as u8).collect();
        let overwrite = vec![0xAB; 8 * ps];
        let mut f = fs.create("kept").unwrap();
        let plan = FaultPlan::seeded(
            7,
            FaultConfig {
                power_losses: 1,
                power_loss_phase: PowerLossPhase::MidWrite,
                power_loss_window: 4,
                ..FaultConfig::default()
            },
        );
        let sim = Simulation::new(0);
        sim.spawn("host", move |ctx| {
            f.write_at(ctx, 0, &synced).unwrap();
            f.sync(ctx).unwrap();
            dev.set_fault_plan(&plan);
            // Eight pages over a four-op crash window: the power fails.
            assert!(f.write_at(ctx, 8 * ps as u64, &overwrite).is_err());
            assert!(dev.is_dead());
            dev.recover(ctx);

            let fs = Fs::mount(Arc::clone(&dev)).unwrap();
            let f = fs.open("kept", Mode::ReadWrite).unwrap();
            assert_eq!(f.len(), synced.len() as u64);
            let half = 8 * ps as u64;
            assert_eq!(f.read_at(ctx, 0, half).unwrap(), synced[..half as usize]);
            // Each overwritten page holds its synced or its new bytes.
            let tail = f.read_at(ctx, half, half).unwrap();
            for (got, old) in tail.chunks(ps).zip(synced[half as usize..].chunks(ps)) {
                assert!(got == old || got == &overwrite[..ps]);
            }
            f.write_at(ctx, half, &overwrite).unwrap();
            assert_eq!(f.read_at(ctx, half, half).unwrap(), overwrite);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn async_read_equals_sync_read() {
        let fs = Fs::format(device());
        fs.create("a").unwrap();
        let payload: Vec<u8> = (0..500_000u32).map(|i| (i * 7 % 253) as u8).collect();
        fs.append_untimed("a", &payload).unwrap();
        let sim = Simulation::new(0);
        let f = fs.open("a", Mode::ReadOnly).unwrap();
        sim.spawn("r", move |ctx| {
            let s = f.read_at(ctx, 1000, 400_000).unwrap();
            let a = f.read_at_async(ctx, 1000, 400_000, 8, 16).unwrap();
            assert_eq!(s, a);
        });
        sim.run().assert_quiescent();
    }
}
