//! Pointer chasing over an on-SSD graph store (paper §V-C, Table IV).
//!
//! The paper traverses a Twitter-derived social graph in Neo4j; the work is
//! "essentially the sum of individual time needed for subsequent read
//! operations" — pure read-latency chasing. We reproduce the access
//! pattern: a synthetic power-law graph stored as fixed 128-byte adjacency
//! records, walked by reading one 4 KiB block per hop. Conv pays the full
//! host round-trip per hop (and degrades under host load); the Biscuit
//! walker chases pointers entirely inside the device.

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::{Application, BiscuitResult, Ssd, SsdletModule};
use biscuit_fs::File;
use biscuit_host::{ConvIo, HostLoad};
use biscuit_sim::rng::Rng;
use biscuit_sim::Ctx;

/// Neighbor slots per vertex record.
pub(crate) const MAX_DEGREE: usize = 15;
/// Bytes per vertex record: 8 (degree) + 15 x 8 (neighbors).
pub(crate) const RECORD_SIZE: usize = 128;
/// Read granularity per hop (a Neo4j-like store page).
pub(crate) const BLOCK_SIZE: u64 = 4096;

/// A synthetic social graph serialized as adjacency records.
#[derive(Debug)]
pub struct SocialGraph {
    /// Vertex count.
    pub vertices: u64,
    bytes: Vec<u8>,
}

impl SocialGraph {
    /// Generates a power-law-ish graph: high-degree hubs at low vertex ids,
    /// every vertex with at least one out-neighbor.
    pub fn generate(vertices: u64, seed: u64) -> SocialGraph {
        assert!(vertices > 1, "graph needs at least two vertices");
        let mut rng = Rng::seed_from_u64(seed);
        let mut bytes = Vec::with_capacity(vertices as usize * RECORD_SIZE);
        for _v in 0..vertices {
            let degree = rng.range(1..=MAX_DEGREE as u64);
            bytes.extend_from_slice(&degree.to_le_bytes());
            for slot in 0..MAX_DEGREE as u64 {
                let neighbor = if slot < degree {
                    // Quadratic skew: most edges point at low-id hubs.
                    let u = rng.f64();
                    (u * u * vertices as f64) as u64 % vertices
                } else {
                    0
                };
                bytes.extend_from_slice(&neighbor.to_le_bytes());
            }
        }
        SocialGraph { vertices, bytes }
    }

    /// The serialized store (page-padded by the filesystem on load).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reference walk over the in-memory store (ground truth for tests).
    pub fn reference_walk(&self, walks: u64, steps: u64, seed: u64) -> u64 {
        let mut checksum = 0u64;
        for w in 0..walks {
            let mut rng = Rng::seed_from_u64(seed ^ w);
            let mut v = rng.range(0..self.vertices);
            for _ in 0..steps {
                let off = v as usize * RECORD_SIZE;
                let record = &self.bytes[off..off + RECORD_SIZE];
                v = next_vertex(record, &mut rng);
                checksum = checksum.wrapping_mul(31).wrapping_add(v);
            }
        }
        checksum
    }
}

/// Decodes a record and picks the walk's next vertex.
fn next_vertex(record: &[u8], rng: &mut Rng) -> u64 {
    let degree =
        u64::from_le_bytes(record[..8].try_into().expect("8 bytes")).clamp(1, MAX_DEGREE as u64);
    let pick = rng.range(0..degree) as usize;
    let start = 8 + pick * 8;
    u64::from_le_bytes(record[start..start + 8].try_into().expect("8 bytes"))
}

/// Reads the 4 KiB block holding `vertex`'s record via `read_block` and
/// returns the record slice offsets.
fn record_in_block(vertex: u64) -> (u64, usize) {
    let offset = vertex * RECORD_SIZE as u64;
    let block = offset / BLOCK_SIZE * BLOCK_SIZE;
    (block, (offset - block) as usize)
}

/// Host-side pointer chasing: one Conv read round-trip per hop.
///
/// # Errors
///
/// Returns filesystem errors.
#[allow(clippy::too_many_arguments)] // flat benchmark-driver signature
pub fn conv_chase(
    ctx: &Ctx,
    conv: &ConvIo,
    file: &File,
    walks: u64,
    steps: u64,
    seed: u64,
    vertices: u64,
    load: HostLoad,
) -> biscuit_fs::FsResult<u64> {
    let mut checksum = 0u64;
    for w in 0..walks {
        let mut rng = Rng::seed_from_u64(seed ^ w);
        let mut v = rng.range(0..vertices);
        for _ in 0..steps {
            let (block, rec_off) = record_in_block(v);
            let bytes = conv.read(ctx, file, block, BLOCK_SIZE, load)?;
            v = next_vertex(&bytes[rec_off..rec_off + RECORD_SIZE], &mut rng);
            checksum = checksum.wrapping_mul(31).wrapping_add(v);
        }
    }
    Ok(checksum)
}

/// Arguments for the chase SSDlet.
#[derive(Debug, Clone)]
pub struct ChaseArgs {
    /// Graph store file.
    pub file: File,
    /// Number of random walks.
    pub walks: u64,
    /// Steps per walk.
    pub steps: u64,
    /// Walk seed (same seed ⇒ same path as the Conv walker).
    pub seed: u64,
    /// Vertex count.
    pub vertices: u64,
}

/// SSDlet identifier inside [`chase_module`].
pub(crate) const CHASE_ID: &str = "idChase";

/// Builds the `chaser` module.
pub fn chase_module() -> SsdletModule {
    ModuleBuilder::new("chaser")
        .binary_size(64 << 10)
        .register(
            CHASE_ID,
            SsdletSpec::new().output::<u64>().memory(128 << 10),
            |args| {
                let args = args_as::<ChaseArgs>(args)?;
                Ok(Box::new(Chaser { args }))
            },
        )
        .build()
}

struct Chaser {
    args: ChaseArgs,
}

impl Ssdlet for Chaser {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let mut checksum = 0u64;
        for w in 0..self.args.walks {
            let mut rng = Rng::seed_from_u64(self.args.seed ^ w);
            let mut v = rng.range(0..self.args.vertices);
            for _ in 0..self.args.steps {
                let (block, rec_off) = record_in_block(v);
                let bytes = self
                    .args
                    .file
                    .read_at(ctx.sim(), block, BLOCK_SIZE)
                    .expect("graph store read");
                // Decode on the device CPU.
                ctx.compute_bytes(RECORD_SIZE as u64);
                v = next_vertex(&bytes[rec_off..rec_off + RECORD_SIZE], &mut rng);
                checksum = checksum.wrapping_mul(31).wrapping_add(v);
            }
        }
        ctx.send(0, checksum).expect("host port open");
    }
}

/// Device-side pointer chasing over the framework.
///
/// # Errors
///
/// Returns framework errors.
pub fn biscuit_chase(
    ctx: &Ctx,
    ssd: &Ssd,
    module: biscuit_core::ModuleId,
    args: ChaseArgs,
) -> BiscuitResult<u64> {
    let app = Application::new(ssd, "chase");
    let t = app.ssdlet_with(module, CHASE_ID, args)?;
    let rx = app.connect_to::<u64>(t.out(0))?;
    app.start(ctx)?;
    let checksum = rx.get(ctx).unwrap_or(0);
    app.join(ctx);
    Ok(checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_core::CoreConfig;
    use biscuit_fs::{Fs, Mode};
    use biscuit_host::HostConfig;
    use biscuit_sim::sync::Mutex;
    use biscuit_sim::Simulation;
    use biscuit_ssd::{SsdConfig, SsdDevice};
    use std::sync::Arc;

    fn setup(vertices: u64) -> (Ssd, ConvIo, File, SocialGraph) {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 256 << 20,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(Arc::clone(&dev));
        let graph = SocialGraph::generate(vertices, 5);
        fs.create("graph").unwrap();
        fs.append_untimed("graph", graph.as_bytes()).unwrap();
        let file = fs.open("graph", Mode::ReadOnly).unwrap();
        let ssd = Ssd::new(fs, CoreConfig::paper_default());
        let conv = ConvIo::new(
            Arc::clone(ssd.device()),
            Arc::clone(ssd.link()),
            HostConfig::paper_default(),
        );
        (ssd, conv, file, graph)
    }

    #[test]
    fn generator_records_are_well_formed() {
        let g = SocialGraph::generate(100, 1);
        assert_eq!(g.as_bytes().len(), 100 * RECORD_SIZE);
        for v in 0..100 {
            let rec = &g.as_bytes()[v * RECORD_SIZE..(v + 1) * RECORD_SIZE];
            let degree = u64::from_le_bytes(rec[..8].try_into().unwrap());
            assert!((1..=MAX_DEGREE as u64).contains(&degree));
            for slot in 0..degree as usize {
                let n = u64::from_le_bytes(rec[8 + slot * 8..16 + slot * 8].try_into().unwrap());
                assert!(n < 100);
            }
        }
    }

    #[test]
    fn all_three_walkers_agree() {
        let (ssd, conv, file, graph) = setup(2000);
        let expected = graph.reference_walk(4, 50, 99);
        let sim = Simulation::new(0);
        let results: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&results);
        sim.spawn("host", move |ctx| {
            let c = conv_chase(ctx, &conv, &file, 4, 50, 99, 2000, HostLoad::IDLE).unwrap();
            let module = ssd.load_module(ctx, chase_module()).unwrap();
            let b = biscuit_chase(
                ctx,
                &ssd,
                module,
                ChaseArgs {
                    file: file.clone(),
                    walks: 4,
                    steps: 50,
                    seed: 99,
                    vertices: 2000,
                },
            )
            .unwrap();
            r.lock().extend([c, b]);
        });
        sim.run().assert_quiescent();
        let results = results.lock();
        assert_eq!(results[0], expected, "conv checksum");
        assert_eq!(results[1], expected, "biscuit checksum");
    }

    #[test]
    fn biscuit_gains_match_table4_shape() {
        let (ssd, conv, file, _graph) = setup(5000);
        let sim = Simulation::new(0);
        let times: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&times);
        sim.spawn("host", move |ctx| {
            let module = ssd.load_module(ctx, chase_module()).unwrap();
            for load in [HostLoad::IDLE, HostLoad::new(24)] {
                let t0 = ctx.now();
                conv_chase(ctx, &conv, &file, 4, 100, 7, 5000, load).unwrap();
                let conv_t = (ctx.now() - t0).as_secs_f64();
                let t1 = ctx.now();
                biscuit_chase(
                    ctx,
                    &ssd,
                    module,
                    ChaseArgs {
                        file: file.clone(),
                        walks: 4,
                        steps: 100,
                        seed: 7,
                        vertices: 5000,
                    },
                )
                .unwrap();
                let bis_t = (ctx.now() - t1).as_secs_f64();
                t.lock().extend([conv_t, bis_t]);
            }
        });
        sim.run().assert_quiescent();
        let t = times.lock();
        let (conv0, bis0, conv24, bis24) = (t[0], t[1], t[2], t[3]);
        // Paper: ~11% gain idle, ~25% under load; Biscuit flat.
        let gain_idle = conv0 / bis0;
        let gain_loaded = conv24 / bis24;
        assert!(
            (1.05..1.35).contains(&gain_idle),
            "idle pointer-chasing gain {gain_idle:.3}, paper ~1.11"
        );
        assert!(gain_loaded > gain_idle, "gain must grow with load");
        assert!(
            (bis24 - bis0).abs() / bis0 < 0.05,
            "biscuit flat under load: {bis0} vs {bis24}"
        );
        assert!(conv24 / conv0 > 1.08, "conv degrades under load");
    }
}
