//! # biscuit-proptest — the workspace's deterministic property-test harness
//!
//! The subset of the `proptest` API the workspace's fourteen property files
//! use, over [`biscuit_sim::rng`] and `std` alone, so the property tests
//! build and run wherever the workspace does. The lib target is named
//! `proptest`: a property file reads `use proptest::prelude::*;` and is
//! written exactly as it would be against the published crate.
//!
//! What differs from the published crate, on purpose:
//!
//! - **Deterministic.** A test's seed is a hash of its module path and
//!   name, and case `k` draws from a generator seeded `seed + k`. There is
//!   no entropy source, no persistence file and no environment variable:
//!   a failure is replayed by running the test again.
//! - **No shrinking.** Instead, collection and string lengths ramp from
//!   small to the strategy's full range over the first half of the cases
//!   (see [`test_runner::TestRunner`]), so the first failing case is
//!   usually already a small one. A failure reports the seed, the case
//!   index and the `Debug` of the inputs.
//! - **Edge bias.** Integer ranges return an endpoint, and `any::<int>()`
//!   one of `0`, `1`, `MIN`, `MAX`, one draw in eight each.
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!
//!     // In a test file: `#[test]` here.
//!     fn reversing_twice_is_identity(v in proptest::collection::vec(any::<u8>(), 0..100)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(v, w);
//!     }
//! }
//! reversing_twice_is_identity();
//! ```

#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod num;
pub mod option;
pub mod sample;
pub mod strategy;
mod string;
pub mod test_runner;

/// What a property file imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// The crate's modules under a short name: `prop::collection::vec`.
    pub mod prop {
        pub use crate::{collection, num, option, sample};
    }
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a plain `fn name()` that runs `body` on
/// [`ProptestConfig::cases`](test_runner::Config::cases) sampled inputs. An
/// optional leading `#![proptest_config(expr)]` sets the configuration for
/// every test in the block; attributes (`#[test]`, doc comments) pass
/// through.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let strategy = ($($strategy,)+);
            $crate::test_runner::run(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
                &strategy,
                |($($arg,)+)| {
                    $body;
                    Ok(())
                },
            );
        }
    )*};
}

/// Fails the current case unless the condition holds. Usable wherever the
/// enclosing function returns `Result<_, TestCaseError>`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless the two values are equal, reporting both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    format_args!($($fmt)+),
                    left,
                    right
                );
            }
        }
    };
}

/// A strategy that samples one of its arms: `prop_oneof![a, b]` picks
/// uniformly, `prop_oneof![4 => a, 1 => b]` by weight.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $arm),+]
    };
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use crate::prelude::*;
    use crate::test_runner::{check, Failure};

    fn sorted_is_a_no_op() -> Failure {
        let strategy = (crate::collection::vec(0u32..1000, 0..50),);
        check(
            &ProptestConfig::with_cases(64),
            "tests::sorted_is_a_no_op",
            &strategy,
            |(v,)| {
                let mut sorted = v.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&sorted, &v, "sorting changed the vector");
                Ok(())
            },
        )
        .expect_err("a vector of random draws is not sorted")
    }

    /// The harness bites, says where, and says the same thing every time.
    #[test]
    fn a_false_property_fails_with_seed_case_and_input_and_replays_identically() {
        let first = sorted_is_a_no_op();
        assert_eq!(first, sorted_is_a_no_op());
        assert!(first.case < 64);
        let report = first.to_string();
        assert!(report.contains("tests::sorted_is_a_no_op"), "{report}");
        assert!(
            report.contains(&format!("case {} of 64", first.case)),
            "{report}"
        );
        assert!(
            report.contains(&format!("seed {:#018x}", first.seed)),
            "{report}"
        );
        assert!(report.contains("sorting changed the vector"), "{report}");
        // The inputs are the 1-tuple of the sampled vector, e.g. `([3, 1],)`.
        assert!(first.inputs.starts_with("([") && first.inputs.ends_with("],)"));
        assert!(report.contains(&first.inputs), "{report}");
    }

    #[test]
    fn a_panicking_body_is_reported_like_a_failed_assertion() {
        let failure = check(
            &ProptestConfig::with_cases(8),
            "tests::panics",
            &(any::<u8>(),),
            |(v,)| {
                assert!(u16::from(v) > 255, "bytes are small");
                Ok(())
            },
        )
        .expect_err("every case panics");
        assert_eq!(failure.case, 0);
        assert_eq!(failure.message, "panicked: bytes are small");
    }

    #[test]
    fn with_cases_is_honoured_and_sizes_ramp_up_to_the_full_range() {
        let calls = Cell::new(0u32);
        let (first_len, max_len) = (Cell::new(usize::MAX), Cell::new(0));
        check(
            &ProptestConfig::with_cases(40),
            "tests::ramp",
            &(crate::collection::vec(any::<bool>(), 2..200),),
            |(v,)| {
                if calls.get() == 0 {
                    first_len.set(v.len());
                }
                calls.set(calls.get() + 1);
                max_len.set(max_len.get().max(v.len()));
                prop_assert!((2..200).contains(&v.len()));
                Ok(())
            },
        )
        .expect("the property holds");
        assert_eq!(calls.get(), 40);
        // Case 0 of 40 may use a twentieth of the 2..=199 span.
        assert!(first_len.get() <= 2 + 10, "{}", first_len.get());
        assert!(max_len.get() > 150, "{}", max_len.get());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn integer_strategies_stay_in_range(
            a in 3u8..7,
            b in -5i64..=5,
            c in any::<i16>(),
            pick in crate::sample::select(vec![2u32, 3, 5]),
            o in crate::option::of(10usize..20),
        ) {
            prop_assert!((3..7).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            let _ = c;
            prop_assert!([2, 3, 5].contains(&pick));
            prop_assert!(o.is_none_or(|v| (10..20).contains(&v)));
        }

        #[test]
        fn float_classes_and_ranges(
            n in crate::num::f64::NORMAL,
            z in crate::num::f64::ZERO,
            either in crate::num::f64::NORMAL | crate::num::f64::ZERO,
            r in 0.5f64..2.0,
        ) {
            prop_assert!(n.is_normal());
            prop_assert_eq!(z, 0.0);
            prop_assert!(either.is_normal() || either == 0.0);
            prop_assert!((0.5..2.0).contains(&r));
        }

        #[test]
        fn string_patterns_match_themselves(
            word in "[a-z]{0,12}",
            any_text in ".*",
            mixed in "id-[0-9A-F]{4}x?",
        ) {
            prop_assert!(word.len() <= 12 && word.bytes().all(|b| b.is_ascii_lowercase()));
            prop_assert!(any_text.chars().count() <= 32 && !any_text.contains('\n'));
            let hex = mixed.strip_prefix("id-").expect("literal prefix");
            let hex = hex.strip_suffix('x').unwrap_or(hex);
            prop_assert!(hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit()));
        }

        #[test]
        fn oneof_map_and_recursion_compose(
            weighted in prop_oneof![3 => Just(0u8), 1 => 10u8..20],
            plain in prop_oneof![Just("a"), Just("b")],
            depth in Just(0u32).prop_recursive(3, 8, 2, |inner| inner.prop_map(|d| d + 1)),
        ) {
            prop_assert!(weighted == 0 || (10..20).contains(&weighted));
            prop_assert!(plain == "a" || plain == "b");
            prop_assert!(depth <= 3);
        }
    }

    /// Weights, not arm order, decide how often an arm is drawn.
    #[test]
    fn weighted_arms_are_drawn_in_proportion() {
        let zeros = Cell::new(0u32);
        check(
            &ProptestConfig::with_cases(400),
            "tests::weights",
            &(prop_oneof![3 => Just(0u8), 1 => Just(1u8)],),
            |(v,)| {
                zeros.set(zeros.get() + u32::from(v == 0));
                Ok(())
            },
        )
        .expect("no assertion");
        assert!((260..340).contains(&zeros.get()), "{}", zeros.get());
    }
}
