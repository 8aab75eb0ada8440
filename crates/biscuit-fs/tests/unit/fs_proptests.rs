//! Property tests: filesystem round-trips and allocator invariants under
//! arbitrary operation schedules.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use biscuit_proto::packet::PacketBuilder;
use biscuit_sim::Simulation;

use crate::alloc::{Extent, ExtentAllocator};
use crate::fs::MAGIC;
use crate::{Fs, FsError, FsResult, Mode};
use biscuit_ssd::{SsdConfig, SsdDevice};

fn device() -> Arc<SsdDevice> {
    Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 32 << 20,
        ..SsdConfig::paper_default()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of appends to multiple files reads back intact, both
    /// before and after a remount.
    #[test]
    fn appends_round_trip_across_remount(
        ops in proptest::collection::vec((0usize..3, 1usize..5000), 1..20)
    ) {
        let dev = device();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        {
            let fs = Fs::format(Arc::clone(&dev));
            for (i, &(file_idx, len)) in ops.iter().enumerate() {
                let name = format!("file{file_idx}");
                if !fs.exists(&name) {
                    fs.create(&name).unwrap();
                }
                let chunk: Vec<u8> = (0..len).map(|j| ((i * 37 + j) % 251) as u8).collect();
                fs.append_untimed(&name, &chunk).unwrap();
                model.entry(name).or_default().extend_from_slice(&chunk);
            }
        }
        let fs = Fs::mount(dev).unwrap();
        let sim = Simulation::new(0);
        let model2 = model.clone();
        let fs2 = fs.clone();
        sim.spawn("verify", move |ctx| {
            for (name, expect) in &model2 {
                let f = fs2.open(name, Mode::ReadOnly).unwrap();
                assert_eq!(f.len(), expect.len() as u64);
                let got = f.read_at(ctx, 0, expect.len() as u64).unwrap();
                assert_eq!(&got, expect, "file {name} corrupted");
            }
        });
        sim.run().assert_quiescent();
    }

    /// Arbitrary offset/length slices read back exactly what a byte-array
    /// model says they should.
    #[test]
    fn random_slices_match_model(
        total in 1usize..200_000,
        reads in proptest::collection::vec((any::<u32>(), any::<u16>()), 1..16)
    ) {
        let dev = device();
        let fs = Fs::format(dev);
        fs.create("blob").unwrap();
        let data: Vec<u8> = (0..total).map(|i| (i % 249) as u8).collect();
        fs.append_untimed("blob", &data).unwrap();
        let f = fs.open("blob", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        sim.spawn("r", move |ctx| {
            for &(off_seed, len_seed) in &reads {
                let offset = off_seed as u64 % total as u64;
                let len = (len_seed as u64).min(total as u64 - offset);
                let got = f.read_at(ctx, offset, len).unwrap();
                assert_eq!(
                    &got[..],
                    &data[offset as usize..(offset + len) as usize]
                );
            }
        });
        sim.run().assert_quiescent();
    }

    /// The allocator hands out back-to-back extents that never overlap and
    /// never loses a page, however the requests are sized.
    #[test]
    fn allocator_conserves_pages(
        ops in proptest::collection::vec(1u64..64, 1..200)
    ) {
        let total = 1000u64;
        let mut alloc = ExtentAllocator::new(0, total);
        let mut held: Vec<Extent> = Vec::new();
        for n in ops {
            let before = alloc.largest_free();
            match alloc.allocate_up_to(n) {
                Some(e) => {
                    // Starts where the last extent ended: no overlap, no gap.
                    prop_assert_eq!(e.start, held.last().map_or(0, Extent::end));
                    prop_assert_eq!(e.pages, n.min(before));
                    held.push(e);
                }
                None => prop_assert_eq!(before, 0),
            }
            let held_pages: u64 = held.iter().map(|e| e.pages).sum();
            prop_assert_eq!(alloc.largest_free() + held_pages, total);
        }
    }
}

#[test]
fn write_async_flush_round_trip() {
    use biscuit_sim::Simulation;
    let dev = device();
    let fs = Fs::format(dev);
    let mut f = fs.create("buffered").unwrap();
    let sim = Simulation::new(0);
    sim.spawn("w", move |ctx| {
        // Buffered writes cost no time until the flush.
        let t0 = ctx.now();
        f.write_async(b"hello ").unwrap();
        f.write_async(b"buffered ").unwrap();
        f.write_async(b"world").unwrap();
        assert_eq!(ctx.now(), t0, "write_async is free until flush");
        assert_eq!(f.buffered(), 20);
        f.flush(ctx).unwrap();
        assert!(ctx.now() > t0, "flush charges program time");
        assert_eq!(f.buffered(), 0);
        assert_eq!(f.read_at(ctx, 0, 20).unwrap(), b"hello buffered world");
        // Second flush with nothing buffered is a no-op.
        let t1 = ctx.now();
        f.flush(ctx).unwrap();
        assert_eq!(ctx.now(), t1);
        // Read-only handles reject buffered writes.
        let mut ro = f.read_only();
        assert!(ro.write_async(b"no").is_err());
    });
    sim.run().assert_quiescent();
}

#[test]
fn filesystem_survives_remount_with_device_state() {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    {
        let fs = Fs::format(Arc::clone(&device));
        fs.create("a").unwrap();
        fs.append_untimed("a", b"persistent payload").unwrap();
    }
    let fs = Fs::mount(device).unwrap();
    let sim = Simulation::new(0);
    let f = fs.open("a", Mode::ReadOnly).unwrap();
    sim.spawn("host", move |ctx| {
        assert_eq!(f.read_at(ctx, 0, 18).unwrap(), b"persistent payload");
    });
    sim.run().assert_quiescent();
}

/// Formats a volume, overwrites its metadata with one file per
/// `(name, size, (start, pages))` entry, and mounts it again.
fn mount_with_files(files: &[(String, u64, (u64, u64))]) -> FsResult<Fs> {
    let dev = device();
    drop(Fs::format(Arc::clone(&dev)));
    let mut b = PacketBuilder::new();
    b.put_u64(MAGIC);
    b.put_u32(files.len() as u32);
    for (name, size, (start, pages)) in files {
        b.put_str(name);
        b.put_u64(*size);
        b.put_u32(1);
        b.put_u64(*start);
        b.put_u64(*pages);
    }
    dev.store_bytes(None, 0, &b.build().into_buf()).unwrap();
    Fs::mount(dev)
}

/// [`mount_with_files`] with one full file per `(start, pages)` extent.
fn mount_with_extents(extents: &[(u64, u64)]) -> FsResult<Fs> {
    let ps = SsdConfig::paper_default().page_size as u64;
    let files: Vec<_> = extents
        .iter()
        .enumerate()
        .map(|(i, &(start, pages))| (format!("f{i}"), pages.saturating_mul(ps), (start, pages)))
        .collect();
    mount_with_files(&files)
}

#[test]
fn mount_rejects_an_extent_two_files_share() {
    assert!(mount_with_extents(&[(64, 1), (65, 1)]).is_ok());
    let err = mount_with_extents(&[(64, 1), (64, 1)]).unwrap_err();
    assert!(matches!(err, FsError::Corrupt(_)), "{err}");
}

#[test]
fn mount_rejects_an_extent_past_the_volume_end() {
    let pages = device().config().logical_pages();
    assert!(mount_with_extents(&[(pages - 1, 1)]).is_ok());
    for extent in [(pages - 1, 2), (pages, 1), (u64::MAX, 2)] {
        let err = mount_with_extents(&[extent]).unwrap_err();
        assert!(matches!(err, FsError::Corrupt(_)), "{extent:?}: {err}");
    }
}

#[test]
fn mount_rejects_an_extent_in_the_metadata_region() {
    for extent in [(0, 1), (63, 2)] {
        let err = mount_with_extents(&[extent]).unwrap_err();
        assert!(matches!(err, FsError::Corrupt(_)), "{extent:?}: {err}");
    }
}

/// A size past the extents' pages would panic the first read beyond them.
#[test]
fn mount_rejects_a_size_its_extents_cannot_hold() {
    let ps = SsdConfig::paper_default().page_size as u64;
    assert!(mount_with_files(&[("f".into(), ps, (64, 1))]).is_ok());
    for size in [ps + 1, 1 << 20, u64::MAX] {
        let err = mount_with_files(&[("f".into(), size, (64, 1))]).unwrap_err();
        assert!(matches!(err, FsError::Corrupt(_)), "{size}: {err}");
    }
}

/// A second entry of one name would hide the first and leak its extent.
#[test]
fn mount_rejects_a_name_listed_twice() {
    let ps = SsdConfig::paper_default().page_size as u64;
    let twice = [("f".into(), ps, (64, 1)), ("f".into(), ps, (65, 1))];
    let err = mount_with_files(&twice).unwrap_err();
    assert!(matches!(err, FsError::Corrupt(_)), "{err}");
}
