//! System power and energy accounting (paper Fig. 9 and Table VI).
//!
//! The paper measures wall power of the whole server + SSD: 103 W idle,
//! ~122 W during Conv query execution, ~136 W during Biscuit execution. We
//! model this with per-component two-state (idle/active) power and integrate
//! energy over virtual time, recording a step trace that the Fig. 9 harness
//! replays.

use crate::sync::Mutex;

use crate::time::{SimDuration, SimTime};

/// Identifier for a registered power component.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ComponentId(usize);

#[derive(Debug)]
struct Component {
    idle_w: f64,
    active_w: f64,
    active: bool,
}

#[derive(Debug)]
struct MeterInner {
    components: Vec<Component>,
    last_update: SimTime,
    energy_j: f64,
    trace: Vec<(SimTime, f64)>,
}

/// Integrates system power over virtual time.
///
/// # Examples
///
/// ```
/// use biscuit_sim::power::PowerMeter;
/// use biscuit_sim::time::{SimTime, SimDuration};
///
/// let meter = PowerMeter::new();
/// let base = meter.register(103.0, 103.0);
/// let cpu = meter.register(0.0, 19.0);
/// let _ = base; // always-on baseline
/// meter.set_active(SimTime::ZERO, cpu, true);
/// let t = SimTime::ZERO + SimDuration::from_secs(10);
/// meter.set_active(t, cpu, false);
/// assert!((meter.energy_joules(t) - 1220.0).abs() < 1e-6);
/// ```
#[derive(Debug, Default)]
pub struct PowerMeter {
    inner: Mutex<MeterInner>,
}

impl Default for MeterInner {
    fn default() -> Self {
        MeterInner {
            components: Vec::new(),
            last_update: SimTime::ZERO,
            energy_j: 0.0,
            trace: Vec::new(),
        }
    }
}

impl PowerMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component with its idle and active draw in Watts.
    ///
    /// # Panics
    ///
    /// Panics if either wattage is negative or NaN.
    pub fn register(&self, idle_w: f64, active_w: f64) -> ComponentId {
        assert!(idle_w >= 0.0 && active_w >= 0.0, "wattage must be >= 0");
        let mut inner = self.inner.lock();
        let id = ComponentId(inner.components.len());
        inner.components.push(Component {
            idle_w,
            active_w,
            active: false,
        });
        let p = total_power(&inner.components);
        let t = inner.last_update;
        inner.trace.push((t, p));
        id
    }

    /// Marks a component active/idle at virtual time `now`, accumulating
    /// energy for the elapsed interval first.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the last update.
    pub fn set_active(&self, now: SimTime, id: ComponentId, active: bool) {
        let mut inner = self.inner.lock();
        integrate_to(&mut inner, now);
        if inner.components[id.0].active != active {
            inner.components[id.0].active = active;
            let p = total_power(&inner.components);
            inner.trace.push((now, p));
        }
    }

    /// Total power draw right now (Watts).
    pub fn power_watts(&self) -> f64 {
        total_power(&self.inner.lock().components)
    }

    /// Energy consumed from the epoch through `now`, in Joules.
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        let mut inner = self.inner.lock();
        integrate_to(&mut inner, now);
        inner.energy_j
    }

    /// The recorded `(time, total power)` step trace.
    pub fn trace(&self) -> Vec<(SimTime, f64)> {
        self.inner.lock().trace.clone()
    }

    /// Samples the step trace at a fixed interval over `[0, end]`, producing
    /// a plottable series like the paper's Fig. 9.
    pub fn sample(&self, end: SimTime, interval: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!interval.is_zero(), "sample interval must be positive");
        let trace = self.trace();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            out.push((t, power_at(&trace, t)));
            t = t.saturating_add(interval);
            if t == SimTime::MAX {
                break;
            }
        }
        out
    }
}

fn total_power(components: &[Component]) -> f64 {
    components
        .iter()
        .map(|c| if c.active { c.active_w } else { c.idle_w })
        .sum()
}

fn integrate_to(inner: &mut MeterInner, now: SimTime) {
    assert!(
        now >= inner.last_update,
        "power meter updated backwards in time"
    );
    let dt = now.duration_since(inner.last_update).as_secs_f64();
    inner.energy_j += total_power(&inner.components) * dt;
    inner.last_update = now;
}

fn power_at(trace: &[(SimTime, f64)], t: SimTime) -> f64 {
    match trace.partition_point(|&(ts, _)| ts <= t) {
        0 => 0.0,
        n => trace[n - 1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn idle_baseline_integrates() {
        let m = PowerMeter::new();
        m.register(103.0, 103.0);
        assert!((m.energy_joules(secs(10)) - 1030.0).abs() < 1e-9);
    }

    #[test]
    fn active_intervals_add_energy() {
        let m = PowerMeter::new();
        m.register(100.0, 100.0);
        let dev = m.register(0.0, 33.0);
        m.set_active(secs(2), dev, true);
        m.set_active(secs(5), dev, false);
        // 100W for 10s + 33W for 3s
        assert!((m.energy_joules(secs(10)) - 1099.0).abs() < 1e-9);
    }

    #[test]
    fn trace_records_steps() {
        let m = PowerMeter::new();
        m.register(50.0, 50.0);
        let c = m.register(0.0, 10.0);
        m.set_active(secs(1), c, true);
        m.set_active(secs(3), c, false);
        let tr = m.trace();
        let powers: Vec<f64> = tr.iter().map(|&(_, p)| p).collect();
        assert_eq!(powers, vec![50.0, 50.0, 60.0, 50.0]);
    }

    #[test]
    fn sample_produces_series() {
        let m = PowerMeter::new();
        m.register(10.0, 10.0);
        let c = m.register(0.0, 5.0);
        m.set_active(secs(2), c, true);
        m.set_active(secs(4), c, false);
        let s = m.sample(secs(5), SimDuration::from_secs(1));
        let powers: Vec<f64> = s.iter().map(|&(_, p)| p).collect();
        assert_eq!(powers, vec![10.0, 10.0, 15.0, 15.0, 10.0, 10.0]);
    }

    #[test]
    fn redundant_set_active_is_noop_in_trace() {
        let m = PowerMeter::new();
        let c = m.register(1.0, 2.0);
        m.set_active(secs(1), c, false);
        assert_eq!(m.trace().len(), 1); // only the registration step
        let _ = c;
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn backwards_update_panics() {
        let m = PowerMeter::new();
        let c = m.register(0.0, 1.0);
        m.set_active(secs(5), c, true);
        m.set_active(secs(1), c, false);
    }
}
