//! Aggregate, deterministic metrics for the simulation.
//!
//! Where [`crate::trace`] answers *"what happened, in order?"* with an event
//! stream, this module answers *"how much, in total?"* with an aggregate
//! [`MetricsRegistry`]: monotonic [`Counter`]s, [`Gauge`]s with high-water
//! marks, and log-bucketed [`Histogram`]s with `p50/p95/p99/p99.9/max`. Every layer
//! of the Biscuit stack registers instruments against the per-simulation
//! registry — per-channel NAND operations and busy time, channel-bus and
//! PCIe-link bytes, device-core scheduling, port traffic and queue occupancy,
//! FTL lookups, pattern-matcher hits, and DB-planner offload verdicts.
//!
//! A [`MetricsSnapshot`] exports two ways, both byte-deterministic for a
//! given seed:
//!
//! - [`MetricsSnapshot::to_json`] — a stable JSON document keyed by metric
//!   name + labels (consumed by the `BENCH_<id>.json` reports and the
//!   regression gate in `scripts/bench_check.sh`);
//! - [`MetricsSnapshot::to_prometheus`] — the Prometheus text exposition
//!   format, for humans and future live endpoints.
//!
//! Collection is **off by default** and costs one relaxed atomic load per
//! instrumentation site when disabled — instruments share the registry's
//! enabled flag, and every recording method checks it first. Enable it per
//! simulation:
//!
//! ```
//! use biscuit_sim::{Simulation, time::SimDuration};
//!
//! let sim = Simulation::new(0);
//! sim.enable_metrics();
//! let c = sim.metrics().counter("demo_total", &[("stage", "early")]);
//! sim.spawn("worker", move |ctx| {
//!     ctx.sleep(SimDuration::from_micros(5));
//!     c.inc();
//! });
//! let report = sim.run();
//! assert_eq!(report.metrics.counter_value("demo_total", &[("stage", "early")]), Some(1));
//! assert!(report.metrics.to_json().starts_with("{\"horizon_ps\":"));
//! ```
//!
//! Naming follows Prometheus conventions (`docs/METRICS.md` has the full
//! taxonomy): counters end in `_total`, virtual-time totals in `_ps_total`,
//! and duration histograms in `_span_ps`. Busy-time counters ending in
//! `_busy_ps_total` additionally export a derived `*_utilization` sample
//! (busy time over the simulation horizon).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

use crate::time::SimTime;
use crate::trace::escape_json_into;

/// Number of power-of-two histogram buckets (`u64` bit widths 0..=64).
pub const HISTOGRAM_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Histogram core
// ---------------------------------------------------------------------------

/// Index of the power-of-two bucket holding `v`: the number of significant
/// bits, so bucket `i` covers `[2^(i-1), 2^i - 1]` (bucket 0 holds only 0).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The summary-statistics implementation behind [`Histogram`]: a fixed
/// array of power-of-two buckets plus exact count, sum, sum of squares,
/// min, and max.
///
/// Memory is constant (65 buckets) regardless of sample count; percentiles
/// are nearest-rank over the buckets, clamped to the observed `[min, max]`
/// range so single-valued distributions report exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u128,
    /// Exact sum of squared samples (for standard deviation).
    pub sum_sq: u128,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket `i` covers values of `i` significant bits.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramData {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
        self.sum_sq += (v as u128) * (v as u128);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Arithmetic mean, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// The `p`-th percentile (0.0–100.0) by nearest rank over the buckets:
    /// the upper bound of the bucket holding the ranked sample, clamped to
    /// the observed `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Sample standard deviation (0 for fewer than two samples), exact from
    /// the running sums.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sum_sq as f64 / n - mean * mean) * n / (n - 1.0);
        var.max(0.0).sqrt()
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonic counter. Cheap to clone; recording is a no-op costing one
/// relaxed atomic load while the owning registry is disabled.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest value plus its high-water mark. Negative
/// values are supported (`i64`).
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
    high: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge to `v`, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
            self.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative), updating the high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            let v = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
            self.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set (at least 0).
    pub fn high_water(&self) -> i64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram over `u64` samples (virtual-time picoseconds,
/// byte counts, depths). Summaries come from the shared [`HistogramData`]
/// core; recording takes an uncontended mutex when enabled and costs one
/// relaxed atomic load when disabled.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    data: Arc<Mutex<HistogramData>>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.data.lock().record(v);
        }
    }

    /// A copy of the current summary state.
    pub fn data(&self) -> HistogramData {
        self.data.lock().clone()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Registered {
    name: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

#[derive(Debug)]
struct RegistryInner {
    enabled: Arc<AtomicBool>,
    horizon_ps: AtomicU64,
    /// Keyed by the rendered `name{label="v",...}` identity — the same
    /// ordering the exports use, so iteration is deterministic.
    metrics: Mutex<BTreeMap<String, Registered>>,
}

/// Renders the canonical `name{k="v",...}` identity of a metric. Labels are
/// sorted by key, so the identity is order-independent.
fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::from(name);
    if !sorted.is_empty() {
        key.push('{');
        for (i, (k, v)) in sorted.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let _ = write!(key, "{k}=\"{v}\"");
        }
        key.push('}');
    }
    key
}

/// A cheaply cloneable handle to a simulation's metrics registry.
///
/// Every [`crate::Simulation`] owns one (disabled by default); library code
/// reaches it through the calling fiber's [`crate::Ctx::metrics`] and
/// registers its instruments on its first metered call. Instruments keep
/// working after the registry is enabled or disabled because they share its
/// flag.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            enabled: Arc::new(AtomicBool::new(false)),
            horizon_ps: AtomicU64::new(0),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// Creates a disabled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collection. Already-registered instruments begin recording.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Stops collection (recorded values are kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Release);
    }

    /// True while instruments record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) the monotonic counter `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the same name + labels was registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = render_key(name, labels);
        let mut metrics = self.inner.metrics.lock();
        let slot = metrics.entry(key).or_insert_with(|| Registered {
            name: name.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Counter(Counter {
                enabled: Arc::clone(&self.inner.enabled),
                value: Arc::new(AtomicU64::new(0)),
            }),
        });
        match &slot.instrument {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Registers (or retrieves) the gauge `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the same name + labels was registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = render_key(name, labels);
        let mut metrics = self.inner.metrics.lock();
        let slot = metrics.entry(key).or_insert_with(|| Registered {
            name: name.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Gauge(Gauge {
                enabled: Arc::clone(&self.inner.enabled),
                value: Arc::new(AtomicI64::new(0)),
                high: Arc::new(AtomicI64::new(0)),
            }),
        });
        match &slot.instrument {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Registers (or retrieves) the log-bucketed histogram `name` with
    /// `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the same name + labels was registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = render_key(name, labels);
        let mut metrics = self.inner.metrics.lock();
        let slot = metrics.entry(key).or_insert_with(|| Registered {
            name: name.to_string(),
            labels: owned_labels(labels),
            instrument: Instrument::Histogram(Histogram {
                enabled: Arc::clone(&self.inner.enabled),
                data: Arc::new(Mutex::new(HistogramData::new())),
            }),
        });
        match &slot.instrument {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Sets the horizon (simulation end time) used for derived utilization
    /// samples. The kernel calls this when a run completes.
    pub fn set_horizon(&self, t: SimTime) {
        self.inner.horizon_ps.store(t.as_ps(), Ordering::Relaxed);
    }

    /// Snapshots every registered instrument into an immutable, sorted
    /// [`MetricsSnapshot`]. Returns an empty snapshot while disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.is_enabled() {
            return MetricsSnapshot::default();
        }
        let metrics = self.inner.metrics.lock();
        let samples = metrics
            .iter()
            .map(|(key, reg)| MetricSample {
                key: key.clone(),
                name: reg.name.clone(),
                labels: reg.labels.clone(),
                value: match &reg.instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge {
                        value: g.get(),
                        high_water: g.high_water(),
                    },
                    Instrument::Histogram(h) => SampleValue::Histogram(h.data()),
                },
            })
            .collect();
        MetricsSnapshot {
            horizon_ps: self.inner.horizon_ps.load(Ordering::Relaxed),
            samples,
        }
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Snapshot + exports
// ---------------------------------------------------------------------------

/// The recorded value of one instrument at snapshot time.
// A histogram is 64 buckets inline: snapshots are built once per export and
// read by value everywhere, so boxing it would buy nothing but a pub API
// change.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value and its high-water mark.
    Gauge {
        /// Latest value set.
        value: i64,
        /// Highest value ever set.
        high_water: i64,
    },
    /// Full histogram summary state.
    Histogram(HistogramData),
}

/// One instrument's identity and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Canonical `name{label="v",...}` identity.
    pub key: String,
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Recorded value.
    pub value: SampleValue,
}

/// An immutable snapshot of every registered instrument, sorted by
/// canonical key — the unit of export and comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Simulation end time in picoseconds (0 if never set), the denominator
    /// for derived utilization samples.
    pub horizon_ps: u64,
    /// Samples sorted by canonical key.
    pub samples: Vec<MetricSample>,
}

/// Renders `busy / horizon` as a fixed six-decimal fraction without going
/// through float formatting, so exports stay byte-deterministic.
fn utilization_fixed(busy_ps: u64, horizon_ps: u64) -> String {
    if horizon_ps == 0 {
        return "0.000000".to_string();
    }
    let scaled = (busy_ps as u128 * 1_000_000) / horizon_ps as u128;
    let scaled = scaled.min(1_000_000) as u64; // clamp parallel banks to 1.0
    format!("{}.{:06}", scaled / 1_000_000, scaled % 1_000_000)
}

impl MetricsSnapshot {
    /// True when nothing was recorded (registry disabled or no instruments).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Looks up a sample by name and labels (label order irrelevant).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        let key = render_key(name, labels);
        self.samples.iter().find(|s| s.key == key)
    }

    /// Convenience: the value of a counter sample, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)?.value {
            SampleValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Sum of all counters with the given name across every label set.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Exports the stable JSON snapshot: an object with `horizon_ps` and a
    /// `metrics` array sorted by canonical key. Counters carry `value`;
    /// gauges `value` + `high_water`; histograms `count/sum/min/max/
    /// mean/p50/p95/p99/p999` plus the nonzero `buckets` as `[upper_bound,
    /// count]` pairs. Byte-deterministic: integer arithmetic only.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.samples.len() * 96);
        let _ = write!(out, "{{\"horizon_ps\":{},\"metrics\":[", self.horizon_ps);
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &s.name);
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json_into(&mut out, k);
                out.push_str("\":\"");
                escape_json_into(&mut out, v);
                out.push('"');
            }
            out.push_str("},");
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
                }
                SampleValue::Gauge { value, high_water } => {
                    let _ = write!(
                        out,
                        "\"type\":\"gauge\",\"value\":{value},\"high_water\":{high_water}"
                    );
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean(),
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                        h.percentile(99.9)
                    );
                    let mut first = true;
                    for (b, &n) in h.buckets.iter().enumerate() {
                        if n > 0 {
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            let _ = write!(out, "[{},{}]", bucket_upper(b), n);
                        }
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        // Derived utilization samples for busy-time counters.
        for s in &self.samples {
            if let (Some(base), SampleValue::Counter(busy)) =
                (s.name.strip_suffix("_busy_ps_total"), &s.value)
            {
                if !self.samples.is_empty() {
                    out.push(',');
                }
                out.push_str("{\"name\":\"");
                escape_json_into(&mut out, &format!("{base}_utilization"));
                out.push_str("\",\"labels\":{");
                for (j, (k, v)) in s.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(&mut out, k);
                    out.push_str("\":\"");
                    escape_json_into(&mut out, v);
                    out.push('"');
                }
                let _ = write!(
                    out,
                    "}},\"type\":\"gauge\",\"value\":{}}}",
                    utilization_fixed(*busy, self.horizon_ps)
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Exports the Prometheus text exposition format. Histograms use the
    /// conventional `_bucket{le=...}` / `_sum` / `_count` series plus
    /// non-standard-but-useful `_p50/_p95/_p99/_p999` gauges; gauges export their
    /// value and a `<name>_high_water` companion; `*_busy_ps_total` counters
    /// also yield a derived `*_utilization` gauge. Output order follows the
    /// sorted canonical keys, so it is byte-deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256 + self.samples.len() * 128);
        let mut typed: BTreeMap<&str, &str> = BTreeMap::new();
        for s in &self.samples {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge { .. } => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            typed.insert(s.name.as_str(), kind);
        }
        let mut last_name = "";
        for s in &self.samples {
            if s.name != last_name {
                let _ = writeln!(out, "# TYPE {} {}", s.name, typed[s.name.as_str()]);
                last_name = &s.name;
            }
            let labels = prom_labels(&s.labels, None);
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, labels, v);
                }
                SampleValue::Gauge { value, high_water } => {
                    let _ = writeln!(out, "{}{} {}", s.name, labels, value);
                    let _ = writeln!(out, "{}_high_water{} {}", s.name, labels, high_water);
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (b, &n) in h.buckets.iter().enumerate() {
                        if n > 0 {
                            cumulative += n;
                            let le = bucket_upper(b).to_string();
                            let with_le = prom_labels(&s.labels, Some(("le", &le)));
                            let _ = writeln!(out, "{}_bucket{} {}", s.name, with_le, cumulative);
                        }
                    }
                    let inf = prom_labels(&s.labels, Some(("le", "+Inf")));
                    let _ = writeln!(out, "{}_bucket{} {}", s.name, inf, h.count);
                    let _ = writeln!(out, "{}_sum{} {}", s.name, labels, h.sum);
                    let _ = writeln!(out, "{}_count{} {}", s.name, labels, h.count);
                    for (suffix, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9)]
                    {
                        let _ = writeln!(out, "{}_{suffix}{} {}", s.name, labels, h.percentile(p));
                    }
                }
            }
        }
        let _ = writeln!(out, "# TYPE sim_horizon_ps gauge");
        let _ = writeln!(out, "sim_horizon_ps {}", self.horizon_ps);
        for s in &self.samples {
            if let (Some(base), SampleValue::Counter(busy)) =
                (s.name.strip_suffix("_busy_ps_total"), &s.value)
            {
                let _ = writeln!(out, "# TYPE {base}_utilization gauge");
                let _ = writeln!(
                    out,
                    "{base}_utilization{} {}",
                    prom_labels(&s.labels, None),
                    utilization_fixed(*busy, self.horizon_ps)
                );
            }
        }
        out
    }

    /// Writes [`MetricsSnapshot::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h_span_ps", &[]);
        c.inc();
        g.set(5);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.data().count, 0);
        assert!(reg.snapshot().is_empty(), "disabled snapshot is empty");
    }

    #[test]
    fn counter_accumulates() {
        let reg = MetricsRegistry::new();
        reg.enable();
        let c = reg.counter("ops_total", &[("channel", "3")]);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Re-registration returns the same underlying cell.
        let again = reg.counter("ops_total", &[("channel", "3")]);
        again.inc();
        assert_eq!(c.get(), 43);
        assert_eq!(
            reg.snapshot()
                .counter_value("ops_total", &[("channel", "3")]),
            Some(43)
        );
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = MetricsRegistry::new();
        reg.enable();
        let g = reg.gauge("depth", &[]);
        g.set(3);
        g.add(4);
        g.add(-6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i covers [2^(i-1), 2^i - 1]; bucket 0 holds only zero.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);

        let mut h = HistogramData::new();
        for v in [1u64, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2); // 2 and 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1023
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1024);
    }

    #[test]
    fn histogram_percentiles_clamp_to_observed_range() {
        let mut h = HistogramData::new();
        for _ in 0..100 {
            h.record(700);
        }
        // All samples share one bucket; the clamp reports the exact value.
        assert_eq!(h.percentile(50.0), 700);
        assert_eq!(h.percentile(99.0), 700);
        h.record(100_000);
        // With a larger max the clamp no longer tightens the bucket bound:
        // p50 reports the upper edge of 700's bucket ([512, 1023]).
        assert_eq!(h.percentile(50.0), 1023);
        assert_eq!(h.percentile(100.0), 100_000);
        assert_eq!(h.mean(), (700 * 100 + 100_000) / 101);
    }

    #[test]
    fn histogram_stddev_is_exact() {
        let mut h = HistogramData::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            h.record(v);
        }
        // Known dataset: population stddev 2, sample stddev ~2.138.
        assert!((h.stddev() - 2.13809).abs() < 1e-4);
        assert_eq!(HistogramData::new().stddev(), 0.0);
    }

    #[test]
    fn identity_is_label_order_independent() {
        assert_eq!(
            render_key("m", &[("b", "2"), ("a", "1")]),
            render_key("m", &[("a", "1"), ("b", "2")])
        );
        assert_eq!(render_key("m", &[]), "m");
        assert_eq!(render_key("m", &[("k", "v")]), "m{k=\"v\"}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn json_export_is_sorted_and_deterministic() {
        fn build() -> String {
            let reg = MetricsRegistry::new();
            reg.enable();
            reg.counter("z_total", &[]).add(9);
            reg.counter("a_total", &[("ch", "1")]).add(1);
            reg.counter("a_total", &[("ch", "0")]).add(2);
            let h = reg.histogram("lat_span_ps", &[]);
            h.record(10);
            h.record(1000);
            reg.gauge("depth", &[]).set(4);
            reg.set_horizon(SimTime::from_us(10));
            reg.snapshot().to_json()
        }
        let json = build();
        assert_eq!(json, build(), "same inputs export byte-identically");
        let a0 = json.find("\"ch\":\"0\"").unwrap();
        let a1 = json.find("\"ch\":\"1\"").unwrap();
        assert!(a0 < a1, "samples sorted by canonical key");
        assert!(json.starts_with("{\"horizon_ps\":10000000,"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":2"));
        assert!(json.contains("\"high_water\":4"));
    }

    #[test]
    fn utilization_derived_from_busy_counters() {
        let reg = MetricsRegistry::new();
        reg.enable();
        reg.counter("link_busy_ps_total", &[("dir", "to_host")])
            .add(250_000);
        reg.set_horizon(SimTime::from_ps(1_000_000));
        let json = reg.snapshot().to_json();
        assert!(
            json.contains("\"name\":\"link_utilization\""),
            "derived sample present: {json}"
        );
        assert!(json.contains("\"value\":0.250000"));
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("link_utilization{dir=\"to_host\"} 0.250000"));
        assert_eq!(utilization_fixed(5, 0), "0.000000");
        assert_eq!(utilization_fixed(2_000, 1_000), "1.000000", "clamped");
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.enable();
        reg.counter("ops_total", &[("ch", "0")]).add(3);
        let h = reg.histogram("lat_span_ps", &[]);
        for v in [1u64, 2, 3, 900] {
            h.record(v);
        }
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE ops_total counter"));
        assert!(prom.contains("ops_total{ch=\"0\"} 3"));
        assert!(prom.contains("# TYPE lat_span_ps histogram"));
        assert!(prom.contains("lat_span_ps_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("lat_span_ps_sum 906"));
        assert!(prom.contains("lat_span_ps_count 4"));
        assert!(prom.contains("sim_horizon_ps 0"));
        // Cumulative bucket counts.
        assert!(prom.contains("lat_span_ps_bucket{le=\"1\"} 1"));
        assert!(prom.contains("lat_span_ps_bucket{le=\"3\"} 3"));
    }
}
