//! Page-mapped flash translation layer with garbage collection, wear
//! leveling, and crash-consistent journaling.
//!
//! The paper's SSDlets never see logical block addresses — the firmware's
//! FTL handles media management underneath Biscuit (§VI "all I/O requests
//! issued by Biscuit go through the same I/O paths with normal I/O
//! requests"). This module is that firmware layer: logical pages map to
//! physical pages out-of-place, writes stripe across dies for parallelism,
//! and a greedy cost-benefit collector reclaims blocks when free space runs
//! low, picking the least-worn free block as the next write frontier.
//!
//! ## Crash consistency
//!
//! Every mapping change is journaled **write-ahead** in the [`Journal`]
//! (append the redo record, then program the page), so a power loss — a
//! seeded [`FaultPlan::power_loss`] draw consulted at every persistence
//! operation — can always be recovered by [`Ftl::recover`]: restore the
//! last checkpoint, replay the redo tail, roll back torn programs, and
//! rebuild free space from a physical census of the NAND array. The
//! contract (proved by `tests/crash_proptests.rs`) is that recovery never
//! loses an acknowledged write, never resurrects a trimmed page, and is
//! deterministic: same-seed crash/recover runs export byte-identical
//! state. See `docs/WRITEPATH.md` for the annotated crash walkthrough.
//!
//! [`FaultPlan::power_loss`]: biscuit_sim::fault::FaultPlan::power_loss

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use biscuit_sim::fault::FaultPlan;

use crate::journal::{fnv64, Journal, JournalRecord, RecoveryReport};
use crate::nand::{NandArray, PageData, Ppa};

/// Die coordinate (channel, way).
type Die = (u32, u32);

/// Default checkpoint interval in journal records (overridable via
/// [`Ftl::set_checkpoint_interval`] / `SsdConfig::journal_checkpoint_interval`).
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 8192;

/// Errors surfaced by FTL operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page is beyond the exported capacity.
    LpnOutOfRange {
        /// Requested logical page.
        lpn: u64,
        /// Exported logical pages.
        capacity: u64,
    },
    /// No physical space could be reclaimed: over-provisioning is
    /// exhausted (too many blocks retired as bad, or GC found no victim
    /// with reclaimable space). The device stays readable; the write is
    /// rejected.
    CapacityExhausted,
    /// The device lost power and halted. Every operation fails with this
    /// until [`Ftl::recover`] replays the journal. `during_gc` reports
    /// the phase of the original crash (a GC relocation/erase vs a host
    /// write).
    PowerLoss {
        /// True when the crash interrupted garbage collection.
        during_gc: bool,
    },
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "logical page {lpn} out of range (capacity {capacity})")
            }
            FtlError::CapacityExhausted => {
                f.write_str("over-provisioning exhausted: no reclaimable physical space")
            }
            FtlError::PowerLoss { during_gc: true } => {
                f.write_str("device lost power mid-GC; journal replay required")
            }
            FtlError::PowerLoss { during_gc: false } => {
                f.write_str("device lost power mid-write; journal replay required")
            }
        }
    }
}

impl std::error::Error for FtlError {}

/// What a write did beyond programming one page (for timing/energy charges
/// and metrics deltas at the device layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Pages relocated by garbage collection triggered by this write.
    pub relocated: u64,
    /// Blocks erased by garbage collection triggered by this write.
    pub erased_blocks: u64,
    /// GC invocations triggered by this write (0 or more).
    pub gc_runs: u64,
    /// Journal records appended by this write (user write + relocations).
    pub journal_records: u64,
    /// Journal checkpoints installed by this write.
    pub checkpoints: u64,
}

#[derive(Debug)]
struct DieState {
    free_blocks: Vec<u32>,
    frontier: Option<(u32, u32)>, // (block, next page index)
}

/// The translation layer. Geometry mirrors the paired [`NandArray`].
#[derive(Debug)]
pub struct Ftl {
    channels: u32,
    ways: u32,
    blocks_per_die_cache: u32,
    pages_per_block: u32,
    logical_pages: u64,
    map: Vec<Option<Ppa>>,
    reverse: HashMap<Ppa, u64>,
    valid_count: HashMap<(u32, u32, u32), u32>,
    dies: HashMap<Die, DieState>,
    next_die: usize,
    gc_reserve_blocks: usize,
    gc_runs: u64,
    relocated_total: u64,
    bad: HashSet<(u32, u32, u32)>,
    remapped_total: u64,
    journal: Journal,
    /// `Some(during_gc)` once a power loss has halted the device; every
    /// operation fails with [`FtlError::PowerLoss`] until recovery.
    dead: Option<bool>,
    user_writes: u64,
    total_programs: u64,
}

impl Ftl {
    /// Creates an FTL for a device with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the physical space does not exceed the logical space (no
    /// over-provisioning would leave GC nothing to reclaim into).
    pub fn new(
        channels: u32,
        ways: u32,
        blocks_per_die: u32,
        pages_per_block: u32,
        logical_pages: u64,
    ) -> Self {
        let physical_pages = u64::from(channels)
            * u64::from(ways)
            * u64::from(blocks_per_die)
            * u64::from(pages_per_block);
        assert!(
            physical_pages > logical_pages,
            "physical pages ({physical_pages}) must exceed logical pages ({logical_pages})"
        );
        let mut dies = HashMap::new();
        for c in 0..channels {
            for w in 0..ways {
                dies.insert(
                    (c, w),
                    DieState {
                        // Highest block index last so pop() hands out block 0 first.
                        free_blocks: (0..blocks_per_die).rev().collect(),
                        frontier: None,
                    },
                );
            }
        }
        Ftl {
            channels,
            ways,
            blocks_per_die_cache: blocks_per_die,
            pages_per_block,
            logical_pages,
            map: vec![None; logical_pages as usize],
            reverse: HashMap::new(),
            valid_count: HashMap::new(),
            dies,
            next_die: 0,
            gc_reserve_blocks: 1,
            gc_runs: 0,
            relocated_total: 0,
            bad: HashSet::new(),
            remapped_total: 0,
            journal: Journal::new(logical_pages, DEFAULT_CHECKPOINT_INTERVAL),
            dead: None,
            user_writes: 0,
            total_programs: 0,
        }
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Looks up the physical location of `lpn`, if mapped.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for addresses beyond capacity,
    /// or [`FtlError::PowerLoss`] on a crashed, unrecovered device.
    pub fn lookup(&self, lpn: u64) -> Result<Option<Ppa>, FtlError> {
        self.check_alive()?;
        self.check(lpn)?;
        Ok(self.map[lpn as usize])
    }

    fn check(&self, lpn: u64) -> Result<(), FtlError> {
        if lpn < self.logical_pages {
            Ok(())
        } else {
            Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages,
            })
        }
    }

    fn check_alive(&self) -> Result<(), FtlError> {
        match self.dead {
            Some(during_gc) => Err(FtlError::PowerLoss { during_gc }),
            None => Ok(()),
        }
    }

    /// Writes `data` to logical page `lpn`, out-of-place. Returns GC and
    /// journal work performed so the device layer can charge its time and
    /// update metrics. `plan` is consulted at every persistence operation
    /// (this write, each GC relocation, each GC erase) for a seeded
    /// power-loss instant; on a crash the device halts and only
    /// [`Ftl::recover`] revives it.
    ///
    /// Write-ahead ordering: the journal record is appended before the
    /// NAND program, and the volatile map is updated only after the
    /// program completes. An `Ok` return therefore means the write is
    /// durable — journal replay will always reproduce it.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`], [`FtlError::CapacityExhausted`],
    /// or [`FtlError::PowerLoss`].
    pub fn write(
        &mut self,
        nand: &mut NandArray,
        lpn: u64,
        data: PageData,
        plan: &FaultPlan,
    ) -> Result<WriteOutcome, FtlError> {
        self.check_alive()?;
        self.check(lpn)?;
        let mut outcome = WriteOutcome::default();
        let records_before = self.journal.appended_total();
        let checkpoints_before = self.journal.checkpoints_total();
        let ppa = self.allocate(nand, plan, &mut outcome)?;
        // Capture the rollback target *after* allocation: GC inside
        // `allocate` may itself relocate this lpn, and the journal must
        // point at wherever the previous version currently lives.
        let old = self.map[lpn as usize];
        if let Some(point) = plan.power_loss(false) {
            // Crash at this write. A torn crash lands between the journal
            // append and the NAND program: the record exists but the page
            // does not, which recovery detects and rolls back to `old`.
            if point.torn {
                self.journal
                    .append(JournalRecord::Write { lpn, new: ppa, old });
            }
            self.dead = Some(false);
            return Err(FtlError::PowerLoss { during_gc: false });
        }
        self.journal
            .append(JournalRecord::Write { lpn, new: ppa, old });
        nand.program(ppa, data).expect("allocator produced bad ppa");
        self.invalidate(lpn);
        self.map[lpn as usize] = Some(ppa);
        self.reverse.insert(ppa, lpn);
        *self
            .valid_count
            .entry((ppa.channel, ppa.way, ppa.block))
            .or_insert(0) += 1;
        self.user_writes += 1;
        self.total_programs += 1;
        self.maybe_checkpoint();
        outcome.journal_records = self.journal.appended_total() - records_before;
        outcome.checkpoints = self.journal.checkpoints_total() - checkpoints_before;
        Ok(outcome)
    }

    /// Unmaps a logical page (TRIM). The trim is journaled before the map
    /// is touched, so an acknowledged trim is never resurrected by replay.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LpnOutOfRange`] for addresses beyond capacity,
    /// or [`FtlError::PowerLoss`] on a crashed, unrecovered device.
    pub fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        self.check_alive()?;
        self.check(lpn)?;
        if self.map[lpn as usize].is_some() {
            self.journal.append(JournalRecord::Trim { lpn });
            self.invalidate(lpn);
            self.maybe_checkpoint();
        }
        Ok(())
    }

    fn invalidate(&mut self, lpn: u64) {
        if let Some(old) = self.map[lpn as usize].take() {
            self.reverse.remove(&old);
            let key = (old.channel, old.way, old.block);
            let count = self
                .valid_count
                .get_mut(&key)
                .expect("mapped page with no valid count");
            *count -= 1;
            if *count == 0 {
                self.valid_count.remove(&key);
            }
        }
    }

    fn maybe_checkpoint(&mut self) {
        if self.journal.checkpoint_due() {
            let mut bad: Vec<(u32, u32, u32)> = self.bad.iter().copied().collect();
            bad.sort_unstable();
            self.journal.install_checkpoint(self.map.clone(), bad);
        }
    }

    /// Picks the next physical page on the striped write frontier, running
    /// GC first if free blocks run low.
    fn allocate(
        &mut self,
        nand: &mut NandArray,
        plan: &FaultPlan,
        outcome: &mut WriteOutcome,
    ) -> Result<Ppa, FtlError> {
        // Proactive, best-effort collection to keep a small free reserve.
        if self.total_free_blocks() < self.gc_watermark() {
            self.collect_garbage(nand, plan, outcome)?;
        }
        if let Some(ppa) = self.try_allocate(nand) {
            return Ok(ppa);
        }
        // Out of frontier space everywhere: collection is now mandatory.
        self.collect_garbage(nand, plan, outcome)?;
        self.try_allocate(nand).ok_or(FtlError::CapacityExhausted)
    }

    /// Free-block level below which collection kicks in.
    fn gc_watermark(&self) -> usize {
        self.gc_reserve_blocks.max(2).max(self.dies.len() / 16)
    }

    /// One round-robin allocation attempt across all dies, no GC.
    fn try_allocate(&mut self, nand: &NandArray) -> Option<Ppa> {
        let die_count = self.dies.len();
        for _ in 0..die_count {
            let die = self.die_at(self.next_die);
            self.next_die = (self.next_die + 1) % die_count;
            if let Some(ppa) = self.allocate_on(nand, die) {
                return Some(ppa);
            }
        }
        None
    }

    fn die_at(&self, idx: usize) -> Die {
        let c = (idx as u32) % self.channels;
        let w = (idx as u32) / self.channels % self.ways;
        (c, w)
    }

    fn allocate_on(&mut self, nand: &NandArray, die: Die) -> Option<Ppa> {
        let pages_per_block = self.pages_per_block;
        // Pick the least-worn free block when opening a new frontier
        // (dynamic wear leveling).
        let least_worn = |state: &mut DieState| -> Option<u32> {
            if state.free_blocks.is_empty() {
                return None;
            }
            let (pos, _) = state
                .free_blocks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &b)| (nand.erase_count(die.0, die.1, b), b))?;
            Some(state.free_blocks.swap_remove(pos))
        };
        let state = self.dies.get_mut(&die).expect("die exists");
        if state.frontier.is_none() {
            state.frontier = least_worn(state).map(|b| (b, 0));
        }
        let (block, page) = state.frontier?;
        let ppa = Ppa {
            channel: die.0,
            way: die.1,
            block,
            page,
        };
        state.frontier = if page + 1 < pages_per_block {
            Some((block, page + 1))
        } else {
            None
        };
        Some(ppa)
    }

    fn total_free_blocks(&self) -> usize {
        self.dies.values().map(|d| d.free_blocks.len()).sum()
    }

    /// Greedy garbage collection: repeatedly pick the block with the fewest
    /// valid pages, relocate them, and erase — until the free reserve is
    /// restored or no reclaimable victim remains. Running out of victims
    /// is not an error here (the allocator reports exhaustion if it still
    /// cannot place the write); a power loss is.
    fn collect_garbage(
        &mut self,
        nand: &mut NandArray,
        plan: &FaultPlan,
        outcome: &mut WriteOutcome,
    ) -> Result<(), FtlError> {
        self.gc_runs += 1;
        outcome.gc_runs += 1;
        let target = self.gc_watermark() + 1;
        while self.total_free_blocks() < target {
            let Some(victim) = self.pick_victim() else {
                return Ok(());
            };
            match self.reclaim_block(nand, victim, plan, outcome) {
                Ok(()) => {}
                Err(e @ FtlError::PowerLoss { .. }) => return Err(e),
                Err(_) => return Ok(()),
            }
        }
        Ok(())
    }

    /// The non-frontier block with the fewest valid pages. Fully-invalid
    /// blocks (zero valid pages) are ideal victims but absent from
    /// `valid_count`, so scan those first.
    fn pick_victim(&self) -> Option<(u32, u32, u32)> {
        let frontier: Vec<(u32, u32, u32)> = self
            .dies
            .iter()
            .filter_map(|(&(c, w), st)| st.frontier.map(|(b, _)| (c, w, b)))
            .collect();
        // Candidate blocks = programmed blocks not free and not frontier.
        let mut best: Option<((u32, u32, u32), u32)> = None;
        for c in 0..self.channels {
            for w in 0..self.ways {
                let die = self.dies.get(&(c, w)).expect("die exists");
                let free = &die.free_blocks;
                for b in 0..nand_blocks(self) {
                    if free.contains(&b)
                        || frontier.contains(&(c, w, b))
                        || self.bad.contains(&(c, w, b))
                    {
                        continue;
                    }
                    let valid = self.valid_count.get(&(c, w, b)).copied().unwrap_or(0);
                    // Skip blocks that were never written (not free-listed
                    // but also not programmed cannot happen; free list covers
                    // unwritten blocks).
                    match best {
                        Some((_, v)) if v <= valid => {}
                        _ => best = Some(((c, w, b), valid)),
                    }
                }
            }
        }
        // A victim with every page still valid reclaims nothing.
        best.filter(|&(_, v)| v < self.pages_per_block)
            .map(|(k, _)| k)
    }

    fn reclaim_block(
        &mut self,
        nand: &mut NandArray,
        (c, w, b): (u32, u32, u32),
        plan: &FaultPlan,
        outcome: &mut WriteOutcome,
    ) -> Result<(), FtlError> {
        // Relocate every valid page. Each relocation is journaled
        // write-ahead exactly like a host write; the victim is erased only
        // after every relocation out of it is durable, so a crash at any
        // instant leaves each logical page with exactly one live copy.
        for p in 0..self.pages_per_block {
            let ppa = Ppa {
                channel: c,
                way: w,
                block: b,
                page: p,
            };
            let Some(&lpn) = self.reverse.get(&ppa) else {
                continue;
            };
            let data = nand
                .read(ppa)
                .expect("geometry checked")
                .expect("valid page has data")
                .clone();
            // Allocate a fresh location; allocation during GC must not
            // recurse into GC (we are already freeing space). Aborting here
            // is safe — the victim is only erased after every valid page is
            // relocated, so data is never lost.
            let new_ppa = self.try_allocate(nand).ok_or(FtlError::CapacityExhausted)?;
            if let Some(point) = plan.power_loss(true) {
                if point.torn {
                    self.journal.append(JournalRecord::Write {
                        lpn,
                        new: new_ppa,
                        old: Some(ppa),
                    });
                }
                self.dead = Some(true);
                return Err(FtlError::PowerLoss { during_gc: true });
            }
            self.journal.append(JournalRecord::Write {
                lpn,
                new: new_ppa,
                old: Some(ppa),
            });
            nand.program(new_ppa, data)
                .expect("allocator produced bad ppa");
            self.reverse.remove(&ppa);
            self.reverse.insert(new_ppa, lpn);
            self.map[lpn as usize] = Some(new_ppa);
            let old_key = (c, w, b);
            if let Some(count) = self.valid_count.get_mut(&old_key) {
                *count -= 1;
                if *count == 0 {
                    self.valid_count.remove(&old_key);
                }
            }
            *self
                .valid_count
                .entry((new_ppa.channel, new_ppa.way, new_ppa.block))
                .or_insert(0) += 1;
            outcome.relocated += 1;
            self.relocated_total += 1;
            self.total_programs += 1;
        }
        // The erase itself is a crash-eligible persistence operation. No
        // journal record is needed: free space is rebuilt from a physical
        // census at recovery, so a block that died un-erased simply stays
        // closed until GC picks it again (it now has zero valid pages).
        if plan.power_loss(true).is_some() {
            self.dead = Some(true);
            return Err(FtlError::PowerLoss { during_gc: true });
        }
        nand.erase_block(c, w, b).expect("geometry checked");
        self.valid_count.remove(&(c, w, b));
        self.dies
            .get_mut(&(c, w))
            .expect("die exists")
            .free_blocks
            .push(b);
        outcome.erased_blocks += 1;
        Ok(())
    }

    /// Retires a failing block: every valid page is remapped to a fresh
    /// location and the block is withdrawn from circulation for good — it
    /// leaves the free list, loses frontier status, and is skipped by both
    /// the allocator and the garbage collector from then on. This is the
    /// firmware's uncorrectable-ECC escalation path: the data survives
    /// (rescued via the read-retry copy) while the worn-out block does not.
    /// The retirement and every remap are journaled, so recovery preserves
    /// both the bad-block set and the rescued data.
    ///
    /// Returns the number of pages remapped. Retiring an already-bad block
    /// is a no-op returning zero.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::CapacityExhausted`] if no fresh location exists
    /// for a valid page; pages remapped before the failure keep their new
    /// locations, so no data is ever lost. Returns [`FtlError::PowerLoss`]
    /// on a crashed, unrecovered device.
    pub fn retire_block(
        &mut self,
        nand: &mut NandArray,
        (c, w, b): (u32, u32, u32),
    ) -> Result<u64, FtlError> {
        self.check_alive()?;
        if self.bad.contains(&(c, w, b)) {
            return Ok(0);
        }
        // Withdraw the block first so relocation can never allocate into it.
        {
            let state = self.dies.get_mut(&(c, w)).expect("die exists");
            state.free_blocks.retain(|&blk| blk != b);
            if matches!(state.frontier, Some((blk, _)) if blk == b) {
                state.frontier = None;
            }
        }
        self.journal.append(JournalRecord::Retire {
            channel: c,
            way: w,
            block: b,
        });
        self.bad.insert((c, w, b));
        let mut moved = 0u64;
        for p in 0..self.pages_per_block {
            let ppa = Ppa {
                channel: c,
                way: w,
                block: b,
                page: p,
            };
            let Some(&lpn) = self.reverse.get(&ppa) else {
                continue;
            };
            let data = nand
                .read(ppa)
                .expect("geometry checked")
                .expect("valid page has data")
                .clone();
            let new_ppa = self.try_allocate(nand).ok_or(FtlError::CapacityExhausted)?;
            self.journal.append(JournalRecord::Write {
                lpn,
                new: new_ppa,
                old: Some(ppa),
            });
            nand.program(new_ppa, data)
                .expect("allocator produced bad ppa");
            self.reverse.remove(&ppa);
            self.reverse.insert(new_ppa, lpn);
            self.map[lpn as usize] = Some(new_ppa);
            if let Some(count) = self.valid_count.get_mut(&(c, w, b)) {
                *count -= 1;
                if *count == 0 {
                    self.valid_count.remove(&(c, w, b));
                }
            }
            *self
                .valid_count
                .entry((new_ppa.channel, new_ppa.way, new_ppa.block))
                .or_insert(0) += 1;
            moved += 1;
            self.remapped_total += 1;
            self.total_programs += 1;
        }
        self.valid_count.remove(&(c, w, b));
        self.maybe_checkpoint();
        Ok(moved)
    }

    /// Rebuilds the FTL after a power loss by replaying the journal, the
    /// only state besides the NAND array that survives a crash. Volatile
    /// state — the L2P map, reverse map, valid counts, free lists, open
    /// frontiers, and metering counters — is discarded and reconstructed:
    ///
    /// 1. Restore the last checkpoint's map and bad-block set.
    /// 2. Replay the redo tail in order. A `Write` whose target page was
    ///    never programmed is a torn write (power failed between the
    ///    journal append and the program) and rolls back to its `old`
    ///    mapping, which is still on flash because blocks are only erased
    ///    after every relocation out of them is durable.
    /// 3. Rebuild free lists from a physical census: a non-bad block with
    ///    zero programmed pages is free; every other block stays closed
    ///    (GC reclaims blocks holding only stale/torn pages later). All
    ///    write frontiers are closed, so a partially-programmed block is
    ///    never programmed again before an erase.
    /// 4. Install a fresh checkpoint, so a repeated crash replays from
    ///    the recovered state — replay is idempotent.
    ///
    /// Safe to call on a live (non-crashed) FTL too, modeling a clean
    /// remount; acknowledged state is preserved either way.
    pub fn recover(&mut self, nand: &mut NandArray) -> RecoveryReport {
        let journal = std::mem::take(&mut self.journal);
        let interval = journal.interval();
        let checkpoint = journal.checkpoint();
        let mut report = RecoveryReport {
            checkpoint_seq: checkpoint.seq,
            ..RecoveryReport::default()
        };

        // 1. + 2. — checkpoint restore, then ordered redo replay.
        let mut map = checkpoint.map.clone();
        map.resize(self.logical_pages as usize, None);
        let mut bad: HashSet<(u32, u32, u32)> = checkpoint.bad.iter().copied().collect();
        for rec in journal.records() {
            report.replayed_records += 1;
            match *rec {
                JournalRecord::Write { lpn, new, old } => {
                    let programmed = matches!(nand.read(new), Ok(Some(_)));
                    if programmed {
                        map[lpn as usize] = Some(new);
                    } else {
                        // Torn program (or a completed program whose block
                        // a later journaled relocation already erased — in
                        // which case that later record re-points the lpn).
                        map[lpn as usize] = old;
                        report.torn_reverted += 1;
                    }
                }
                JournalRecord::Trim { lpn } => {
                    map[lpn as usize] = None;
                }
                JournalRecord::Retire {
                    channel,
                    way,
                    block,
                } => {
                    bad.insert((channel, way, block));
                }
            }
        }

        // 3. — physical census: rebuild reverse/valid/free and frontiers.
        let mut reverse = HashMap::new();
        let mut valid_count: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for (lpn, ppa) in map.iter().enumerate() {
            if let Some(ppa) = ppa {
                reverse.insert(*ppa, lpn as u64);
                *valid_count
                    .entry((ppa.channel, ppa.way, ppa.block))
                    .or_insert(0) += 1;
            }
        }
        let programmed = nand.programmed_blocks();
        let mut dies = HashMap::new();
        for c in 0..self.channels {
            for w in 0..self.ways {
                let free_blocks: Vec<u32> = (0..self.blocks_per_die_cache)
                    .rev()
                    .filter(|&b| !bad.contains(&(c, w, b)) && !programmed.contains(&(c, w, b)))
                    .collect();
                report.free_blocks += free_blocks.len() as u64;
                dies.insert(
                    (c, w),
                    DieState {
                        free_blocks,
                        frontier: None,
                    },
                );
            }
        }
        report.dirty_blocks = programmed.iter().filter(|blk| !bad.contains(blk)).count() as u64;

        // 3b. — reopen each die's write frontier. Programs within a block
        // are strictly sequential, so a partially-programmed block is a
        // contiguous prefix and the die's surviving frontier (at most one
        // such block) resumes at its first unprogrammed page. Leaving it
        // closed would strand the tail — and after a crash in a GC-tight
        // state (empty free list, no fully-invalid victim) that tail is
        // the only space relocation can write into, so closing it would
        // deadlock the collector with a spurious capacity exhaustion.
        for (&(c, w), state) in dies.iter_mut() {
            'scan: for b in 0..self.blocks_per_die_cache {
                if bad.contains(&(c, w, b)) || !programmed.contains(&(c, w, b)) {
                    continue;
                }
                for p in 0..self.pages_per_block {
                    let ppa = Ppa {
                        channel: c,
                        way: w,
                        block: b,
                        page: p,
                    };
                    if matches!(nand.read(ppa), Ok(None)) {
                        state.frontier = Some((b, p));
                        break 'scan;
                    }
                }
            }
        }

        let mut recovered_journal = Journal::new(self.logical_pages, interval);
        self.map = map;
        self.reverse = reverse;
        self.valid_count = valid_count;
        self.dies = dies;
        self.next_die = 0;
        self.gc_runs = 0;
        self.relocated_total = 0;
        self.bad = bad;
        self.remapped_total = 0;
        self.dead = None;
        self.user_writes = 0;
        self.total_programs = 0;

        // 4. — fresh checkpoint of the recovered state.
        let mut bad_sorted: Vec<(u32, u32, u32)> = self.bad.iter().copied().collect();
        bad_sorted.sort_unstable();
        recovered_journal.install_checkpoint(self.map.clone(), bad_sorted);
        self.journal = recovered_journal;
        report
    }

    /// Whether a block has been retired as bad.
    pub fn is_bad(&self, block: (u32, u32, u32)) -> bool {
        self.bad.contains(&block)
    }

    /// Number of blocks retired as bad so far.
    pub fn bad_blocks(&self) -> u64 {
        self.bad.len() as u64
    }

    /// Total pages remapped off retired blocks so far.
    pub fn remapped_total(&self) -> u64 {
        self.remapped_total
    }

    /// Number of GC invocations so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Total pages relocated by GC so far.
    pub fn relocated_total(&self) -> u64 {
        self.relocated_total
    }

    /// Host (user) page writes acknowledged so far.
    pub fn user_writes_total(&self) -> u64 {
        self.user_writes
    }

    /// Total NAND programs issued (user writes + GC relocations + bad-block
    /// remaps); `programs / user_writes` is the write amplification factor.
    pub fn programs_total(&self) -> u64 {
        self.total_programs
    }

    /// Write amplification in fixed-point milli-units (1000 = 1.0x).
    /// Reports 1000 before any user write.
    pub fn write_amp_milli(&self) -> u64 {
        (self.total_programs * 1000)
            .checked_div(self.user_writes)
            .unwrap_or(1000)
    }

    /// Whether a power loss has halted the device (recovery pending).
    pub fn is_dead(&self) -> bool {
        self.dead.is_some()
    }

    /// The journaled metadata region (checkpoint + redo tail).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Changes the journal checkpoint interval (records between
    /// checkpoints).
    pub fn set_checkpoint_interval(&mut self, interval: usize) {
        self.journal.set_interval(interval);
    }

    /// Forces a checkpoint of the current state — the host's sync/flush
    /// barrier — truncating the redo tail so later recovery replays only
    /// writes issued after this point.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::PowerLoss`] on a crashed, unrecovered device.
    pub fn checkpoint_now(&mut self) -> Result<(), FtlError> {
        self.check_alive()?;
        let mut bad: Vec<(u32, u32, u32)> = self.bad.iter().copied().collect();
        bad.sort_unstable();
        self.journal.install_checkpoint(self.map.clone(), bad);
        Ok(())
    }

    /// Deterministic **logical** state export: one line per mapped logical
    /// page with an FNV-1a fingerprint of its contents, independent of
    /// physical placement. Two devices holding the same logical data
    /// export identical bytes even if their FTLs placed pages differently
    /// — this is the "byte-identical exported state" a recovered crash run
    /// is held to versus its uncrashed twin.
    pub fn export_state(&self, nand: &NandArray) -> String {
        let page_size = nand.page_size();
        let mut out = String::new();
        let _ = writeln!(out, "logical_pages={}", self.logical_pages);
        let _ = writeln!(out, "bad_blocks={}", self.bad.len());
        for lpn in 0..self.logical_pages {
            if let Some(ppa) = self.map[lpn as usize] {
                let data = nand
                    .read(ppa)
                    .expect("mapped ppa in geometry")
                    .expect("mapped ppa programmed");
                let fp = fnv64(data.materialize(page_size).as_slice());
                let _ = writeln!(out, "{lpn}={fp:016x}");
            }
        }
        out
    }

    /// Deterministic **physical** state export: the full L2P map, free
    /// lists, and bad set. Two same-seed runs of the same operation
    /// sequence (including same-seed crashes and recoveries) must export
    /// identical bytes; used by the crash proptests.
    pub fn export_physical(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "seq={} dead={}",
            self.journal.seq(),
            self.dead.is_some()
        );
        for lpn in 0..self.logical_pages {
            if let Some(p) = self.map[lpn as usize] {
                let _ = writeln!(
                    out,
                    "{lpn}=({},{},{},{})",
                    p.channel, p.way, p.block, p.page
                );
            }
        }
        let mut dies: Vec<&Die> = self.dies.keys().collect();
        dies.sort();
        for die in dies {
            let st = &self.dies[die];
            let _ = writeln!(
                out,
                "die({},{}) free={:?} frontier={:?}",
                die.0, die.1, st.free_blocks, st.frontier
            );
        }
        let mut bad: Vec<(u32, u32, u32)> = self.bad.iter().copied().collect();
        bad.sort_unstable();
        let _ = writeln!(out, "bad={bad:?}");
        out
    }
}

fn nand_blocks(ftl: &Ftl) -> u32 {
    ftl.blocks_per_die_cache
}

impl Ftl {
    /// Erase blocks per die (geometry accessor).
    pub fn blocks_per_die(&self) -> u32 {
        self.blocks_per_die_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_sim::fault::{FaultConfig, PowerLossPhase};

    fn page(fill: u8, size: usize) -> PageData {
        PageData::Bytes(biscuit_proto::Buf::from_vec(vec![fill; size]))
    }

    fn setup(blocks_per_die: u32, logical_pages: u64) -> (NandArray, Ftl) {
        let nand = NandArray::new(2, 2, blocks_per_die, 4, 32);
        let ftl = Ftl::new(2, 2, blocks_per_die, 4, logical_pages);
        (nand, ftl)
    }

    fn read_lpn(nand: &NandArray, ftl: &Ftl, lpn: u64) -> Option<Vec<u8>> {
        let ppa = ftl.lookup(lpn).unwrap()?;
        nand.read(ppa)
            .unwrap()
            .map(|d| d.materialize(32).as_ref().to_vec())
    }

    fn w(
        ftl: &mut Ftl,
        nand: &mut NandArray,
        lpn: u64,
        fill: u8,
    ) -> Result<WriteOutcome, FtlError> {
        ftl.write(nand, lpn, page(fill, 32), &FaultPlan::none())
    }

    #[test]
    fn write_then_read_back() {
        let (mut nand, mut ftl) = setup(8, 32);
        w(&mut ftl, &mut nand, 5, 0xAA).unwrap();
        assert_eq!(read_lpn(&nand, &ftl, 5).unwrap(), vec![0xAA; 32]);
        assert_eq!(read_lpn(&nand, &ftl, 6), None);
    }

    #[test]
    fn overwrite_goes_out_of_place() {
        let (mut nand, mut ftl) = setup(8, 32);
        w(&mut ftl, &mut nand, 0, 1).unwrap();
        let first = ftl.lookup(0).unwrap().unwrap();
        w(&mut ftl, &mut nand, 0, 2).unwrap();
        let second = ftl.lookup(0).unwrap().unwrap();
        assert_ne!(first, second);
        assert_eq!(read_lpn(&nand, &ftl, 0).unwrap(), vec![2; 32]);
    }

    #[test]
    fn writes_stripe_across_dies() {
        let (mut nand, mut ftl) = setup(8, 32);
        let mut dies_used = std::collections::HashSet::new();
        for lpn in 0..4 {
            w(&mut ftl, &mut nand, lpn, lpn as u8).unwrap();
            let ppa = ftl.lookup(lpn).unwrap().unwrap();
            dies_used.insert((ppa.channel, ppa.way));
        }
        assert_eq!(dies_used.len(), 4, "4 writes should hit 4 distinct dies");
    }

    #[test]
    fn gc_reclaims_and_preserves_data() {
        // Tiny device: 2x2 dies x 4 blocks x 4 pages = 64 physical pages,
        // 40 logical. Overwriting repeatedly must trigger GC.
        let (mut nand, mut ftl) = setup(4, 40);
        for round in 0..20u32 {
            for lpn in 0..40u64 {
                w(&mut ftl, &mut nand, lpn, (round as u8) ^ (lpn as u8)).unwrap();
            }
        }
        assert!(ftl.gc_runs() > 0, "expected GC under heavy overwrite");
        for lpn in 0..40u64 {
            assert_eq!(
                read_lpn(&nand, &ftl, lpn).unwrap(),
                vec![19u8 ^ (lpn as u8); 32],
                "lpn {lpn} corrupted after GC"
            );
        }
    }

    #[test]
    fn trim_unmaps() {
        let (mut nand, mut ftl) = setup(8, 32);
        w(&mut ftl, &mut nand, 3, 9).unwrap();
        ftl.trim(3).unwrap();
        assert_eq!(read_lpn(&nand, &ftl, 3), None);
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut nand, mut ftl) = setup(8, 32);
        assert!(matches!(
            w(&mut ftl, &mut nand, 32, 0),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(ftl.lookup(99).is_err());
    }

    #[test]
    fn retire_remaps_valid_pages_and_preserves_data() {
        let (mut nand, mut ftl) = setup(8, 32);
        for lpn in 0..8u64 {
            w(&mut ftl, &mut nand, lpn, 0x10 + lpn as u8).unwrap();
        }
        // Retire the block holding lpn 0; its valid pages must move.
        let victim = ftl.lookup(0).unwrap().unwrap();
        let blk = (victim.channel, victim.way, victim.block);
        let moved = ftl.retire_block(&mut nand, blk).unwrap();
        assert!(moved > 0, "retired block held valid pages");
        assert!(ftl.is_bad(blk));
        assert_eq!(ftl.bad_blocks(), 1);
        assert_eq!(ftl.remapped_total(), moved);
        let relocated = ftl.lookup(0).unwrap().unwrap();
        assert_ne!(
            (relocated.channel, relocated.way, relocated.block),
            blk,
            "remapped page must leave the bad block"
        );
        for lpn in 0..8u64 {
            assert_eq!(
                read_lpn(&nand, &ftl, lpn).unwrap(),
                vec![0x10 + lpn as u8; 32],
                "lpn {lpn} corrupted by retirement"
            );
        }
        // Retiring again is a no-op.
        assert_eq!(ftl.retire_block(&mut nand, blk).unwrap(), 0);
        assert_eq!(ftl.bad_blocks(), 1);
    }

    #[test]
    fn retired_block_is_never_reused() {
        let (mut nand, mut ftl) = setup(4, 40);
        w(&mut ftl, &mut nand, 0, 1).unwrap();
        let victim = ftl.lookup(0).unwrap().unwrap();
        let blk = (victim.channel, victim.way, victim.block);
        ftl.retire_block(&mut nand, blk).unwrap();
        let erases_before = nand.erase_count(blk.0, blk.1, blk.2);
        // Heavy overwrite traffic forces GC; the bad block must stay out.
        for round in 0..20u32 {
            for lpn in 0..40u64 {
                w(&mut ftl, &mut nand, lpn, round as u8 ^ lpn as u8).unwrap();
            }
        }
        assert!(ftl.gc_runs() > 0, "expected GC under heavy overwrite");
        assert_eq!(
            nand.erase_count(blk.0, blk.1, blk.2),
            erases_before,
            "bad block must never be erased for reuse"
        );
        for lpn in 0..40u64 {
            let ppa = ftl.lookup(lpn).unwrap().unwrap();
            assert_ne!(
                (ppa.channel, ppa.way, ppa.block),
                blk,
                "lpn {lpn} allocated onto a retired block"
            );
        }
    }

    #[test]
    fn wear_spreads_over_blocks() {
        let (mut nand, mut ftl) = setup(4, 40);
        for round in 0..40u32 {
            for lpn in 0..40u64 {
                w(&mut ftl, &mut nand, lpn, round as u8).unwrap();
            }
        }
        // Every die should have erased more than one distinct block.
        let mut per_die_erased: HashMap<(u32, u32), u32> = HashMap::new();
        for c in 0..2 {
            for w in 0..2 {
                for b in 0..4 {
                    if nand.erase_count(c, w, b) > 0 {
                        *per_die_erased.entry((c, w)).or_insert(0) += 1;
                    }
                }
            }
        }
        assert!(
            per_die_erased.values().all(|&n| n >= 2),
            "wear concentrated: {per_die_erased:?}"
        );
    }

    #[test]
    fn wear_spread_stays_within_tolerance() {
        // Uniform overwrite traffic: dynamic wear leveling (least-worn
        // free block opens each frontier) must keep the max-min erase
        // spread small relative to the mean.
        let (mut nand, mut ftl) = setup(4, 40);
        for round in 0..100u32 {
            for lpn in 0..40u64 {
                w(
                    &mut ftl,
                    &mut nand,
                    lpn,
                    (round as u8).wrapping_mul(lpn as u8),
                )
                .unwrap();
            }
        }
        let counts: Vec<u64> = (0..2)
            .flat_map(|c| (0..2).flat_map(move |w| (0..4).map(move |b| (c, w, b))))
            .map(|(c, w, b)| nand.erase_count(c, w, b))
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        let mean = counts.iter().sum::<u64>() / counts.len() as u64;
        assert!(mean > 5, "workload must actually wear the device");
        assert!(
            max - min <= mean,
            "wear spread too wide: max={max} min={min} mean={mean}"
        );
    }

    #[test]
    fn zipf_overwrite_write_amp_stays_bounded() {
        // Zipf-like skewed overwrites (most traffic on few hot pages).
        // Greedy fewest-valid victim selection must keep amplification
        // well under the pathological bound.
        let (mut nand, mut ftl) = setup(4, 40);
        let mut x = 0x9E37_79B9u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            // Power-law skew toward low lpns.
            let lpn = ((u * u) * 40.0) as u64 % 40;
            w(&mut ftl, &mut nand, lpn, x as u8).unwrap();
        }
        let amp = ftl.write_amp_milli();
        assert!(
            ftl.gc_runs() > 0 && amp > 1000,
            "workload must trigger GC (amp={amp})"
        );
        assert!(amp < 3000, "write amp {amp} milli exceeds 3.0x bound");
        assert_eq!(
            ftl.programs_total() * 1000 / ftl.user_writes_total(),
            amp,
            "write amp derives from program/user counters"
        );
    }

    #[test]
    fn over_provisioning_exhaustion_is_a_typed_error() {
        // Retire every block in the device; the next write must surface
        // CapacityExhausted instead of panicking.
        let (mut nand, mut ftl) = setup(4, 40);
        w(&mut ftl, &mut nand, 0, 1).unwrap();
        let mut err = None;
        'outer: for c in 0..2 {
            for way in 0..2 {
                for b in 0..4 {
                    match ftl.retire_block(&mut nand, (c, way, b)) {
                        Ok(_) => {}
                        Err(e) => {
                            err = Some(e);
                            break 'outer;
                        }
                    }
                }
            }
        }
        let exhausted = match err {
            Some(e) => e,
            // All retires succeeded (data fit in shrinking space): the
            // next write over the dead device must fail typed.
            None => w(&mut ftl, &mut nand, 1, 2).unwrap_err(),
        };
        assert_eq!(exhausted, FtlError::CapacityExhausted);
        assert!(!exhausted.to_string().is_empty());
    }

    #[test]
    fn journal_checkpoints_roll_over() {
        let (mut nand, mut ftl) = setup(8, 32);
        ftl.set_checkpoint_interval(4);
        for i in 0..10u64 {
            w(&mut ftl, &mut nand, i % 8, i as u8).unwrap();
        }
        assert!(ftl.journal().checkpoints_total() >= 2);
        assert!(ftl.journal().records().len() < 4);
        assert_eq!(ftl.journal().appended_total(), 10);
    }

    #[test]
    fn recover_on_clean_device_preserves_state() {
        let (mut nand, mut ftl) = setup(4, 40);
        for round in 0..10u32 {
            for lpn in 0..40u64 {
                w(&mut ftl, &mut nand, lpn, round as u8 ^ lpn as u8).unwrap();
            }
        }
        ftl.trim(7).unwrap();
        let before = ftl.export_state(&nand);
        let report = ftl.recover(&mut nand);
        assert_eq!(ftl.export_state(&nand), before, "clean remount is lossless");
        assert!(report.free_blocks + report.dirty_blocks > 0);
        // Device keeps working after recovery.
        w(&mut ftl, &mut nand, 7, 0x55).unwrap();
        assert_eq!(read_lpn(&nand, &ftl, 7).unwrap(), vec![0x55; 32]);
    }

    #[test]
    fn power_loss_mid_write_halts_then_recovers() {
        let cfg = FaultConfig {
            power_losses: 1,
            power_loss_phase: PowerLossPhase::MidWrite,
            power_loss_window: 16,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::seeded(0xB15C, cfg);
        let (mut nand, mut ftl) = setup(8, 32);
        let mut acked: HashMap<u64, u8> = HashMap::new();
        let mut crashed = false;
        for i in 0..64u64 {
            let lpn = i % 16;
            let fill = i as u8;
            match ftl.write(&mut nand, lpn, page(fill, 32), &plan) {
                Ok(_) => {
                    acked.insert(lpn, fill);
                }
                Err(FtlError::PowerLoss { during_gc }) => {
                    assert!(!during_gc);
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(crashed, "window 16 must crash within 64 writes");
        assert!(ftl.is_dead());
        assert_eq!(
            ftl.lookup(0),
            Err(FtlError::PowerLoss { during_gc: false }),
            "dead device rejects reads"
        );
        let report = ftl.recover(&mut nand);
        assert!(report.replayed_records >= acked.len() as u64);
        for (lpn, fill) in &acked {
            assert_eq!(
                read_lpn(&nand, &ftl, *lpn).unwrap(),
                vec![*fill; 32],
                "acked write to lpn {lpn} lost"
            );
        }
    }

    #[test]
    fn power_loss_mid_gc_recovers_all_acked_data() {
        let cfg = FaultConfig {
            power_losses: 1,
            power_loss_phase: PowerLossPhase::MidGc,
            power_loss_window: 4,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::seeded(7, cfg);
        let (mut nand, mut ftl) = setup(4, 40);
        let mut acked: HashMap<u64, u8> = HashMap::new();
        let mut crashed = false;
        'outer: for round in 0..20u32 {
            for lpn in 0..40u64 {
                let fill = round as u8 ^ lpn as u8;
                match ftl.write(&mut nand, lpn, page(fill, 32), &plan) {
                    Ok(_) => {
                        acked.insert(lpn, fill);
                    }
                    Err(FtlError::PowerLoss { during_gc }) => {
                        assert!(during_gc);
                        crashed = true;
                        break 'outer;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
        assert!(crashed, "overwrite workload must crash in GC");
        ftl.recover(&mut nand);
        for (lpn, fill) in &acked {
            assert_eq!(
                read_lpn(&nand, &ftl, *lpn).unwrap(),
                vec![*fill; 32],
                "acked write to lpn {lpn} lost in GC crash"
            );
        }
        // And the device keeps taking writes without tripping the NAND
        // double-program panic.
        for lpn in 0..40u64 {
            w(&mut ftl, &mut nand, lpn, 0xEE).unwrap();
        }
    }
}
