//! Every name the benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! `biscuit-perf manifest` written to a file; a test keeps the two equal.

use crate::json::Json;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "grep_hot",
        why: "48 MiB weblog fits the 4096-page synth cache, 1 Conv + 4 NDP grep passes: the pattern matcher and host Boyer-Moore do the work",
    },
    WorkloadInfo {
        name: "grep_cold",
        why: "96 MiB weblog is 1.5x the synth cache, so FIFO eviction misses every page: page synthesis does the work, the matcher barely shows",
    },
    WorkloadInfo {
        name: "tpch_q",
        why: "TPC-H SF 0.02, Q1 Q3 (host-bound) and Q6 Q12 Q14 (offloaded), Conv then Biscuit: DB exec, planner sampling, ports and wire codec",
    },
    WorkloadInfo {
        name: "qos_soak",
        why: "131072 open-loop Zipf arrivals through the WFQ scheduler, jobs are sleeps: event-bound, kernel dispatch and fiber hand-off, no data plane",
    },
    WorkloadInfo {
        name: "write_gc",
        why: "18 scattered overwrite rounds on a near-full 16 MiB 2x2-die drive, sync, read back: fs staging, FTL GC, wear levelling, journal beside reads",
    },
    WorkloadInfo {
        name: "array_scan",
        why: "4-drive in-sim scatter/merge grep plus a 4-shard PDES fleet grep on one thread: array coordinator and the sim.par window driver",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports all eight. A workload with none of a metric's
/// activity reports the identity: speed-up 1 with no offloadable pass,
/// 100 % accepted in a closed loop, amplification 1 with nothing written.
///
/// Each bound is at least three times the widest spread (quartile distance
/// over median) seen over ten seeds on any workload in the authoring
/// sandbox; README, "Steadiness", has the numbers. The wall clock there
/// follows the host's other tenants, hence 25 %. The virtual metrics repeat
/// exactly for one seed, so their bounds only cover the spread over seeds.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.1),
    e2e("virt_ms", "ms", Better::Lower, 0.05),
    e2e("virt_p99_us", "us", Better::Lower, 0.15),
    e2e("ndp_speedup", "x", Better::Higher, 0.05),
    e2e("accepted_pct", "%", Better::Higher, 0.05),
    e2e("write_amp", "x", Better::Lower, 0.05),
];

/// The end-to-end metrics measured on the host clock; the other five are
/// virtual and repeat exactly for one commit and seed.
pub const WALL_METRICS: [&str; 3] = ["setup_s", "wall_ms", "peak_rss_mib"];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// `_n` exact count per iteration; `_ns_per_*`/`_us_per_*` unit cost from
/// replaying the layer's public function on the workload's inputs;
/// `_est_ms` unit cost x count; `_ms` self time of a benchmark-side span;
/// `_virt_pct` share of query virtual time from `qprof`. A metric that does
/// not apply to a workload is printed as 0.
pub const PER_LAYER: [Metric; 123] = [
    hi("run.iters_n", "count"),
    lo("run.first_iter_ms", "ms"),
    lo("run.wall_ms_median", "ms"),
    lo("run.wall_ms_hi", "ms"),
    hi("run.wall_hi_pctl", "%"),
    lo("run.wall_ms_iqr", "ms"),
    hi("run.events_per_wall_s", "1/s"),
    hi("run.sim_mib_per_wall_s", "MiB/s"),
    lo("run.unattributed_ms", "ms"),
    lo("sim.kernel.events_n", "count"),
    lo("sim.kernel.events_heap_n", "count"),
    lo("sim.kernel.events_at_now_n", "count"),
    lo("sim.kernel.fiber_switches_n", "count"),
    lo("sim.kernel.fibers_spawned_n", "count"),
    hi("sim.kernel.threads_reused_n", "count"),
    lo("sim.kernel.ns_per_event", "ns"),
    lo("sim.kernel.dispatch_est_ms", "ms"),
    hi("sim.fuse.chains_fused_n", "count"),
    lo("sim.fuse.fused_ns_per_hop", "ns"),
    lo("sim.fuse.unfused_ns_per_hop", "ns"),
    lo("sim.queue.pushes_n", "count"),
    lo("sim.par.single_ms", "ms"),
    lo("sim.par.pershard_ms", "ms"),
    hi("sim.par.speedup", "x"),
    lo("sim.obs.overhead_pct", "%"),
    lo("sim.obs.trace_events_n", "count"),
    lo("sim.obs.trace_dropped_n", "count"),
    lo("sim.obs.series_n", "count"),
    hi("sim.obs.qprof_queries_n", "count"),
    lo("sim.obs.export_ms", "ms"),
    lo("proto.buf.frames_allocated_n", "count"),
    hi("proto.buf.frames_recycled_n", "count"),
    lo("proto.buf.copied_bytes_n", "B"),
    lo("proto.buf.copied_nand_synth_n", "B"),
    lo("proto.buf.copied_host_assemble_n", "B"),
    lo("proto.buf.copied_write_stage_n", "B"),
    lo("proto.buf.copied_port_encode_n", "B"),
    lo("proto.buf.copied_port_decode_n", "B"),
    lo("proto.link.to_host_bytes_n", "B"),
    lo("proto.link.to_device_bytes_n", "B"),
    lo("proto.link.virt_pct", "%"),
    lo("proto.wire.encode_ns_per_row", "ns"),
    lo("proto.wire.decode_ns_per_row", "ns"),
    lo("proto.wire.codec_est_ms", "ms"),
    lo("ssd.nand.reads_n", "count"),
    lo("ssd.nand.programs_n", "count"),
    lo("ssd.nand.erases_n", "count"),
    lo("ssd.nand.virt_pct", "%"),
    lo("ssd.nand.bus_virt_pct", "%"),
    lo("ssd.device.pages_read_n", "count"),
    lo("ssd.device.pages_scanned_n", "count"),
    lo("ssd.device.pages_matched_n", "count"),
    lo("ssd.device.pages_written_n", "count"),
    lo("ssd.device.synth_miss_n", "count"),
    hi("ssd.device.synth_hit_pct", "%"),
    lo("ssd.pattern.scan_ns_per_page", "ns"),
    lo("ssd.pattern.scan_est_ms", "ms"),
    lo("ssd.pattern.match_pct", "%"),
    lo("ssd.pattern.virt_pct", "%"),
    lo("ssd.ftl.lookups_n", "count"),
    lo("ssd.ftl.user_writes_n", "count"),
    lo("ssd.ftl.programs_n", "count"),
    lo("ssd.ftl.gc_runs_n", "count"),
    lo("ssd.ftl.gc_relocated_n", "count"),
    lo("ssd.ftl.gc_erased_n", "count"),
    lo("ssd.ftl.gc_pause_p99_virt_us", "us"),
    lo("ssd.journal.records_n", "count"),
    lo("ssd.journal.checkpoints_n", "count"),
    lo("ssd.journal.replayed_n", "count"),
    lo("ssd.journal.replay_us", "us"),
    lo("ssd.journal.lost_bytes_n", "B"),
    lo("fs.create_synthetic_ms", "ms"),
    lo("fs.write_at_ms", "ms"),
    lo("fs.sync_ms", "ms"),
    lo("fs.read_at_ms", "ms"),
    lo("core.port.sends_n", "count"),
    lo("core.port.bytes_n", "B"),
    lo("core.port.module_load_ms", "ms"),
    lo("core.port.ssdlet_virt_pct", "%"),
    lo("host.search.bm_ns_per_page", "ns"),
    lo("host.search.bm_est_ms", "ms"),
    lo("host.array.conv_ms", "ms"),
    lo("host.array.scatter_ms", "ms"),
    lo("host.array.merge_virt_pct", "%"),
    hi("host.sched.offered_n", "count"),
    hi("host.sched.accepted_n", "count"),
    lo("host.sched.shed_n", "count"),
    lo("host.sched.backpressure_n", "count"),
    lo("host.sched.starved_n", "count"),
    lo("host.sched.reconcile_err_n", "count"),
    lo("host.sched.queue_wait_p99_virt_us", "us"),
    lo("host.sched.virt_lat_p50_us", "us"),
    lo("host.sched.virt_lat_p999_us", "us"),
    lo("host.sched.queue_virt_pct", "%"),
    lo("host.workload.gen_ns_per_arrival", "ns"),
    lo("host.workload.gen_est_ms", "ms"),
    lo("db.tpch_gen.generate_ms", "ms"),
    lo("db.tpch_gen.load_ms", "ms"),
    hi("db.tpch_gen.rows_n", "count"),
    lo("db.table.parse_us_per_page", "us"),
    lo("db.table.parse_est_ms", "ms"),
    lo("db.exec.filter_ns_per_row", "ns"),
    lo("db.exec.aggregate_ns_per_row", "ns"),
    lo("db.exec.probe_ns_per_row", "ns"),
    lo("db.exec.host_virt_pct", "%"),
    lo("db.engine.q1_conv_ms", "ms"),
    lo("db.engine.q1_ndp_ms", "ms"),
    lo("db.engine.q3_conv_ms", "ms"),
    lo("db.engine.q3_ndp_ms", "ms"),
    lo("db.engine.q6_conv_ms", "ms"),
    lo("db.engine.q6_ndp_ms", "ms"),
    lo("db.engine.q12_conv_ms", "ms"),
    lo("db.engine.q12_ndp_ms", "ms"),
    lo("db.engine.q14_conv_ms", "ms"),
    lo("db.engine.q14_ndp_ms", "ms"),
    hi("db.engine.offloaded_n", "count"),
    hi("db.engine.io_reduction", "x"),
    lo("apps.weblog.synth_us_per_page", "us"),
    lo("apps.weblog.synth_est_ms", "ms"),
    lo("apps.search.conv_pass_ms", "ms"),
    lo("apps.search.ndp_pass_ms", "ms"),
    hi("model.paper_speedup", "x"),
    lo("model.paper_err_pct", "%"),
];

/// The benchmark contract, as `BENCHMARK.json` holds it.
pub fn manifest() -> Json {
    let metric = |m: &Metric, bounded: bool| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if bounded {
            members.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(members)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![
                Json::str("python3"),
                Json::str("crates/biscuit-perf/bench.py"),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::str("crates/biscuit-perf")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
