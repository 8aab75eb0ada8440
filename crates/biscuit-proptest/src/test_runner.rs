//! Running a property: configuration, the per-case sampling context, and
//! the failure report.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use biscuit_sim::rng::{splitmix64, Rng};

use crate::strategy::Strategy;

/// How many cases each property in a `proptest!` block runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Sampled inputs per property.
    pub cases: u32,
}

impl Config {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    /// 256 cases, the published crate's default.
    fn default() -> Self {
        Config { cases: 256 }
    }
}

/// Why one case failed; what `prop_assert!` returns early with.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError(message.into())
    }
}

/// What strategies sample from: one case's generator and its size ramp.
#[derive(Debug)]
pub struct TestRunner {
    rng: Rng,
    /// In `(0, 1]`: the share of each collection's size range this case
    /// may use.
    size: f64,
}

impl TestRunner {
    /// The context of case `case` (0-based) of `cases`. Sizes ramp
    /// linearly over the first half of the cases and stay full after.
    fn for_case(seed: u64, case: u32, cases: u32) -> Self {
        let ramp = (cases as f64 / 2.0).max(1.0);
        TestRunner {
            rng: Rng::seed_from_u64(seed.wrapping_add(case as u64)),
            size: ((case + 1) as f64 / ramp).min(1.0),
        }
    }

    pub(crate) fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A length in `lo..=hi`, with `hi` pulled towards `lo` by the ramp.
    pub(crate) fn len(&mut self, lo: usize, hi: usize) -> usize {
        let reach = ((hi - lo) as f64 * self.size).ceil() as usize;
        self.rng.range(lo..=lo + reach)
    }
}

/// One failed property: everything needed to see and replay the case.
#[derive(Debug, PartialEq, Eq)]
pub struct Failure {
    /// Module path and name of the property.
    pub test: String,
    /// The property's seed (a hash of [`test`](Failure::test)).
    pub seed: u64,
    /// 0-based index of the failing case.
    pub case: u32,
    /// Cases the property was configured to run.
    pub cases: u32,
    /// The assertion or panic message.
    pub message: String,
    /// `Debug` of the sampled inputs (long ones truncated).
    pub inputs: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "property {} failed at case {} of {} (seed {:#018x}): {}\n\
             inputs: {}\n\
             the harness is deterministic: running the test again replays this case",
            self.test, self.case, self.cases, self.seed, self.message, self.inputs
        )
    }
}

/// A hash of the property's name, so its seed depends on nothing else.
fn seed_of(test: &str) -> u64 {
    test.bytes().fold(0, |h, b| splitmix64(h ^ b as u64))
}

const MAX_INPUT_BYTES: usize = 4000;

fn describe(value: &impl fmt::Debug) -> String {
    let mut text = format!("{value:?}");
    if text.len() > MAX_INPUT_BYTES {
        let cut = text.floor_char_boundary(MAX_INPUT_BYTES);
        let dropped = text.len() - cut;
        text.truncate(cut);
        text.push_str(&format!("… ({dropped} more bytes)"));
    }
    text
}

/// Runs `body` on `config.cases` samples of `strategy` and returns the
/// first failure, whether an `Err` or a panic.
pub fn check<S: Strategy>(
    config: &Config,
    test: &str,
    strategy: &S,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) -> Result<(), Failure> {
    let seed = seed_of(test);
    for case in 0..config.cases {
        let input = strategy.sample(&mut TestRunner::for_case(seed, case, config.cases));
        let message = match panic::catch_unwind(AssertUnwindSafe(|| body(input))) {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e.0,
            Err(payload) => {
                let text = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "a non-string payload".to_owned());
                format!("panicked: {text}")
            }
        };
        // The body consumed its input; sampling is deterministic, so the
        // same case yields the same value again.
        let again = strategy.sample(&mut TestRunner::for_case(seed, case, config.cases));
        return Err(Failure {
            test: test.to_owned(),
            seed,
            case,
            cases: config.cases,
            message,
            inputs: describe(&again),
        });
    }
    Ok(())
}

/// [`check`], panicking with the failure's report: what `proptest!` calls.
pub fn run<S: Strategy>(
    config: &Config,
    test: &str,
    strategy: &S,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    if let Err(failure) = check(config, test, strategy, body) {
        panic!("{failure}");
    }
}
