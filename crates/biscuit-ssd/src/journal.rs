//! Write-ahead redo journal for the FTL's logical-to-physical mapping.
//!
//! The journal is the only FTL state that survives a power loss (it models
//! the metadata region real drives keep on flash or in capacitor-backed
//! SRAM). It is a classic redo log in the style of Memento's
//! checkpoint-and-replay: a periodic full **checkpoint** of the L2P map
//! plus an ordered tail of **records**, each appended *before* the
//! physical operation it describes (write-ahead ordering). Recovery
//! restores the checkpoint, replays the tail in order, and cross-checks
//! every replayed mapping against the physical NAND array: a record whose
//! target page was never programmed is a *torn write* — the power failed
//! between the journal append and the NAND program — and rolls back to the
//! previous mapping, which is still intact on flash because blocks are
//! only erased after every relocation out of them is journaled and
//! programmed.
//!
//! Replay is idempotent by construction: records are applied in sequence
//! order to a state snapshot that the replay itself never feeds back into
//! the log, so replaying once, twice, or after a crash-during-recovery
//! always converges to the same map. `tests/unit/crash_proptests.rs` proves
//! this for arbitrary write/GC interleavings and crash instants.
//!
//! Free-space bookkeeping is deliberately *not* journaled. Which blocks
//! are free is derivable from physics: a non-bad block with zero
//! programmed pages is erased and reusable; any other block stays closed
//! until garbage collection erases it. Deriving the free list from a
//! physical census (`NandArray::programmed_blocks`) makes it impossible
//! for a stale journal to direct a program at a dirty page — the NAND
//! model's double-program panic enforces exactly the invariant real flash
//! enforces with read-only pages.

use crate::nand::Ppa;

/// One redo record, appended before the physical operation it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JournalRecord {
    /// `lpn` is about to be programmed at `new`; it previously lived at
    /// `old` (`None` for a first write). Covers both host writes and GC
    /// relocations — recovery treats them identically.
    Write {
        /// Logical page being written.
        lpn: u64,
        /// Destination physical page (programmed *after* this record).
        new: Ppa,
        /// Previous mapping to roll back to if the program was torn.
        old: Option<Ppa>,
    },
    /// Block `(channel, way, block)` is about to be retired as bad.
    Retire {
        /// Flash channel of the retired block.
        channel: u32,
        /// Die (way) of the retired block.
        way: u32,
        /// Block index of the retired block.
        block: u32,
    },
}

/// A full snapshot of the durable FTL state at one journal sequence
/// number. Checkpoint writes are modeled as atomic (real implementations
/// double-buffer two checkpoint slots and flip a sequence-stamped header,
/// so a torn checkpoint write leaves the previous slot valid).
#[derive(Debug, Clone, Default)]
pub(crate) struct Checkpoint {
    /// Journal sequence number this checkpoint covers through.
    pub seq: u64,
    /// The L2P map at `seq` (indexed by lpn).
    pub map: Vec<Option<Ppa>>,
    /// Retired (bad) blocks at `seq`, sorted for determinism.
    pub bad: Vec<(u32, u32, u32)>,
}

/// The journaled metadata region: checkpoint + redo tail.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    checkpoint: Checkpoint,
    records: Vec<JournalRecord>,
    seq: u64,
    interval: usize,
    appended_total: u64,
    checkpoints_total: u64,
}

impl Journal {
    /// An empty journal for a freshly formatted device with `logical_pages`
    /// logical pages, checkpointing every `interval` records.
    pub(crate) fn new(logical_pages: u64, interval: usize) -> Self {
        Journal {
            checkpoint: Checkpoint {
                seq: 0,
                map: vec![None; logical_pages as usize],
                bad: Vec::new(),
            },
            records: Vec::new(),
            seq: 0,
            interval: interval.max(1),
            appended_total: 0,
            checkpoints_total: 0,
        }
    }

    /// Appends one record (write-ahead: call *before* the physical op).
    pub(crate) fn append(&mut self, rec: JournalRecord) {
        self.records.push(rec);
        self.seq += 1;
        self.appended_total += 1;
    }

    /// True when the redo tail has reached the checkpoint interval.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.records.len() >= self.interval
    }

    /// Installs a new checkpoint covering everything appended so far and
    /// truncates the redo tail.
    pub(crate) fn install_checkpoint(
        &mut self,
        map: Vec<Option<Ppa>>,
        mut bad: Vec<(u32, u32, u32)>,
    ) {
        bad.sort_unstable();
        self.checkpoint = Checkpoint {
            seq: self.seq,
            map,
            bad,
        };
        self.records.clear();
        self.checkpoints_total += 1;
    }

    /// The current checkpoint.
    pub(crate) fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// The redo tail (records appended after the checkpoint), in order.
    pub(crate) fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Sequence number of the most recent record.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Total records ever appended (metering).
    pub(crate) fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Total checkpoints ever installed (metering).
    pub(crate) fn checkpoints_total(&self) -> u64 {
        self.checkpoints_total
    }

    /// Current checkpoint interval in records.
    pub(crate) fn interval(&self) -> usize {
        self.interval
    }

    /// Changes the checkpoint interval (takes effect at the next append).
    pub(crate) fn set_interval(&mut self, interval: usize) {
        self.interval = interval.max(1);
    }
}

/// What journal replay did, returned by `Ftl::recover`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint replay started from.
    pub checkpoint_seq: u64,
    /// Redo records replayed after the checkpoint.
    pub replayed_records: u64,
    /// Write records whose program was torn and rolled back to `old`.
    pub torn_reverted: u64,
    /// Blocks found physically erased and returned to the free lists.
    pub free_blocks: u64,
    /// Non-free, non-bad blocks left closed for GC to reclaim (includes
    /// blocks holding only stale or torn pages).
    pub dirty_blocks: u64,
}

/// FNV-1a 64-bit content fingerprint, used by the deterministic state
/// exports to compare logical page contents without embedding raw bytes.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ppa(block: u32, page: u32) -> Ppa {
        Ppa {
            channel: 0,
            way: 0,
            block,
            page,
        }
    }

    #[test]
    fn append_then_checkpoint_truncates_tail() {
        let mut j = Journal::new(4, 3);
        assert_eq!(j.checkpoint().map.len(), 4);
        j.append(JournalRecord::Write {
            lpn: 0,
            new: ppa(0, 0),
            old: None,
        });
        j.append(JournalRecord::Write {
            lpn: 0,
            new: ppa(0, 1),
            old: Some(ppa(0, 0)),
        });
        assert!(!j.checkpoint_due());
        j.append(JournalRecord::Retire {
            channel: 0,
            way: 0,
            block: 1,
        });
        assert!(j.checkpoint_due());
        assert_eq!(j.records().len(), 3);
        assert_eq!(j.seq(), 3);
        j.install_checkpoint(vec![None; 4], vec![(0, 0, 1)]);
        assert_eq!(j.records().len(), 0);
        assert_eq!(j.checkpoint().seq, 3);
        assert_eq!(j.checkpoint().bad, vec![(0, 0, 1)]);
        assert_eq!(j.appended_total(), 3);
        assert_eq!(j.checkpoints_total(), 1);
        // Sequence keeps rising after the checkpoint.
        j.append(JournalRecord::Write {
            lpn: 1,
            new: ppa(0, 2),
            old: None,
        });
        assert_eq!(j.seq(), 4);
    }

    #[test]
    fn fnv64_is_stable_and_content_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"biscuit"), fnv64(b"biscuit"));
        assert_ne!(fnv64(b"biscuit"), fnv64(b"biscuif"));
    }
}
