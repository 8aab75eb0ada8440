//! Physical NAND array: addressing, page storage, program/erase semantics.
//!
//! Pages hold real bytes so that every experiment's *results* are checkable,
//! not just its timing. Large synthetic corpora (the paper's 7.8 GiB web log,
//! the 20 GiB graph) would not fit in host RAM if materialized, so a page may
//! instead carry a deterministic generator that recreates its contents on
//! demand — functionally identical, storage-free.

use std::collections::HashMap;
use std::sync::Arc;

use biscuit_proto::Buf;

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Flash channel index.
    pub channel: u32,
    /// Die (way) within the channel.
    pub way: u32,
    /// Erase block within the die.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl Ppa {
    /// Flat die index for a geometry with `ways` dies per channel; used to
    /// pick the die server in the device's [`ServerBank`](biscuit_sim::resource::ServerBank).
    pub fn die_index(&self, ways: usize) -> usize {
        self.channel as usize * ways + self.way as usize
    }
}

/// Regenerates page contents deterministically instead of storing them.
pub trait PageGen: Send + Sync {
    /// Writes the bytes of logical page `lpn` over all of `page`, whose
    /// length is the page size. Must be deterministic, and must not depend
    /// on what `page` held before.
    fn fill(&self, lpn: u64, page: &mut [u8]);

    /// The bytes of logical page `lpn` in a fresh `page_size`-byte vector.
    fn generate(&self, lpn: u64, page_size: usize) -> Vec<u8> {
        let mut page = vec![0; page_size];
        self.fill(lpn, &mut page);
        page
    }
}

/// Contents of one physical page.
#[derive(Clone)]
pub enum PageData {
    /// Materialized bytes, shared with every reader of the page.
    Bytes(Buf),
    /// Deterministically regenerated bytes (for huge synthetic corpora).
    Synth {
        /// Logical page the generator reproduces.
        lpn: u64,
        /// The generator.
        gen: Arc<dyn PageGen>,
    },
}

impl std::fmt::Debug for PageData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageData::Bytes(b) => f.debug_tuple("Bytes").field(&b.len()).finish(),
            PageData::Synth { lpn, .. } => f.debug_struct("Synth").field("lpn", lpn).finish(),
        }
    }
}

impl PageData {
    /// Materializes the page contents. `Bytes` pages share their existing
    /// allocation; `Synth` pages are rendered into a fresh buffer (the
    /// device's read path renders them into a recycled pool frame instead).
    pub fn materialize(&self, page_size: usize) -> Buf {
        match self {
            PageData::Bytes(b) => b.clone(),
            PageData::Synth { lpn, gen } => Buf::from_vec(gen.generate(*lpn, page_size)),
        }
    }
}

/// The flash array: a sparse map of programmed pages plus per-block erase
/// bookkeeping.
#[derive(Debug)]
pub struct NandArray {
    channels: u32,
    ways: u32,
    blocks_per_die: u32,
    pages_per_block: u32,
    page_size: usize,
    pages: HashMap<Ppa, PageData>,
    erase_counts: HashMap<(u32, u32, u32), u64>,
}

/// Error raised on an out-of-geometry physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressError(pub Ppa);

impl std::fmt::Display for AddressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "physical address out of geometry: {:?}", self.0)
    }
}

impl std::error::Error for AddressError {}

impl NandArray {
    /// Creates an erased array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is zero.
    pub fn new(
        channels: u32,
        ways: u32,
        blocks_per_die: u32,
        pages_per_block: u32,
        page_size: usize,
    ) -> Self {
        assert!(
            channels > 0 && ways > 0 && blocks_per_die > 0 && pages_per_block > 0 && page_size > 0,
            "NAND geometry dimensions must be positive"
        );
        NandArray {
            channels,
            ways,
            blocks_per_die,
            pages_per_block,
            page_size,
            pages: HashMap::new(),
            erase_counts: HashMap::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Erase blocks per die.
    pub fn blocks_per_die(&self) -> u32 {
        self.blocks_per_die
    }

    fn check(&self, ppa: Ppa) -> Result<(), AddressError> {
        if ppa.channel < self.channels
            && ppa.way < self.ways
            && ppa.block < self.blocks_per_die
            && ppa.page < self.pages_per_block
        {
            Ok(())
        } else {
            Err(AddressError(ppa))
        }
    }

    /// Reads a page; erased/never-programmed pages read as `None`.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] for an out-of-geometry address.
    pub fn read(&self, ppa: Ppa) -> Result<Option<&PageData>, AddressError> {
        self.check(ppa)?;
        Ok(self.pages.get(&ppa))
    }

    /// Programs a page.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] for an out-of-geometry address.
    ///
    /// # Panics
    ///
    /// Panics if the page is already programmed (NAND forbids overwrite
    /// without erase — the FTL must never do this).
    pub fn program(&mut self, ppa: Ppa, data: PageData) -> Result<(), AddressError> {
        self.check(ppa)?;
        let prev = self.pages.insert(ppa, data);
        assert!(
            prev.is_none(),
            "program of already-programmed page {ppa:?}: FTL bug"
        );
        Ok(())
    }

    /// Erases a whole block, dropping its pages and bumping its wear count.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] if the block address is out of geometry.
    pub fn erase_block(&mut self, channel: u32, way: u32, block: u32) -> Result<(), AddressError> {
        self.check(Ppa {
            channel,
            way,
            block,
            page: 0,
        })?;
        for page in 0..self.pages_per_block {
            self.pages.remove(&Ppa {
                channel,
                way,
                block,
                page,
            });
        }
        *self.erase_counts.entry((channel, way, block)).or_insert(0) += 1;
        Ok(())
    }

    /// Wear (erase count) of a block.
    pub fn erase_count(&self, channel: u32, way: u32, block: u32) -> u64 {
        self.erase_counts
            .get(&(channel, way, block))
            .copied()
            .unwrap_or(0)
    }

    /// The set of blocks holding at least one programmed page. Recovery
    /// uses this physical census to rebuild the FTL free lists: a non-bad
    /// block absent from this set is genuinely erased and safe to open as
    /// a write frontier without risking a double program.
    pub fn programmed_blocks(&self) -> std::collections::HashSet<(u32, u32, u32)> {
        self.pages
            .keys()
            .map(|p| (p.channel, p.way, p.block))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NandArray {
        NandArray::new(2, 2, 4, 8, 64)
    }

    fn ppa(c: u32, w: u32, b: u32, p: u32) -> Ppa {
        Ppa {
            channel: c,
            way: w,
            block: b,
            page: p,
        }
    }

    #[test]
    fn program_then_read() {
        let mut nand = small();
        let data = PageData::Bytes(Buf::from_vec(vec![7u8; 64]));
        nand.program(ppa(0, 1, 2, 3), data).unwrap();
        let got = nand.read(ppa(0, 1, 2, 3)).unwrap().unwrap();
        assert_eq!(got.materialize(64).as_slice(), &[7u8; 64][..]);
    }

    #[test]
    fn erased_page_reads_none() {
        let nand = small();
        assert!(nand.read(ppa(0, 0, 0, 0)).unwrap().is_none());
    }

    #[test]
    fn out_of_geometry_rejected() {
        let nand = small();
        assert!(matches!(
            nand.read(ppa(2, 0, 0, 0)),
            Err(AddressError(a)) if a == ppa(2, 0, 0, 0)
        ));
        assert!(nand.read(ppa(0, 0, 0, 8)).is_err());
    }

    #[test]
    #[should_panic(expected = "FTL bug")]
    fn double_program_panics() {
        let mut nand = small();
        let d = || PageData::Bytes(Buf::from_vec(vec![0u8; 64]));
        nand.program(ppa(0, 0, 0, 0), d()).unwrap();
        nand.program(ppa(0, 0, 0, 0), d()).unwrap();
    }

    #[test]
    fn erase_clears_block_and_counts_wear() {
        let mut nand = small();
        let d = || PageData::Bytes(Buf::from_vec(vec![1u8; 64]));
        nand.program(ppa(1, 0, 3, 0), d()).unwrap();
        nand.program(ppa(1, 0, 3, 5), d()).unwrap();
        nand.erase_block(1, 0, 3).unwrap();
        assert!(nand.read(ppa(1, 0, 3, 0)).unwrap().is_none());
        assert!(nand.read(ppa(1, 0, 3, 5)).unwrap().is_none());
        assert_eq!(nand.erase_count(1, 0, 3), 1);
        // Re-program after erase is legal.
        nand.program(ppa(1, 0, 3, 0), d()).unwrap();
    }

    #[test]
    fn synthetic_pages_regenerate() {
        struct Fill(u8);
        impl PageGen for Fill {
            fn fill(&self, lpn: u64, page: &mut [u8]) {
                page.fill(self.0 ^ (lpn as u8));
            }
        }
        let mut nand = small();
        nand.program(
            ppa(0, 0, 0, 0),
            PageData::Synth {
                lpn: 3,
                gen: Arc::new(Fill(0xF0)),
            },
        )
        .unwrap();
        let got = nand.read(ppa(0, 0, 0, 0)).unwrap().unwrap();
        assert_eq!(got.materialize(64).as_slice(), &[0xF3u8; 64][..]);
    }
}
