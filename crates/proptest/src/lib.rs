//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate implements
//! the subset of proptest that the workspace's property tests use:
//!
//! - the [`proptest!`] macro with `#![proptest_config(...)]`, multiple
//!   `#[test]` functions per block, and `pattern in strategy` arguments;
//! - [`strategy::Strategy`] with `prop_map` and `boxed`, integer range
//!   strategies, tuple strategies, [`strategy::Just`], [`prop_oneof!`],
//!   [`collection::vec`], and [`arbitrary::any`];
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`] with global reject accounting;
//! - [`test_runner::ProptestConfig`] (`cases`, `max_global_rejects`,
//!   `with_cases`, struct-update from `default()`).
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports the per-case seed instead of
//!   a minimized input. Cases are a pure function of the test's module path
//!   and name, so failures reproduce exactly by re-running the test.
//! - **Fixed derivation.** There is no `PROPTEST_CASES` env handling or
//!   failure persistence file; every run executes the same case sequence.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines deterministic property tests over strategy-drawn inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(
                &($cfg),
                concat!(module_path!(), "::", stringify!($name)),
                |__case_rng| {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), __case_rng);
                    )+
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!("{}", concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                    __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    ::std::format!($($fmt)+), __l, __r
                ),
            ));
        }
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: `left != right`\n  both: {:?}", __l
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!("{}\n  both: {:?}", ::std::format!($($fmt)+), __l),
            ));
        }
    }};
}

/// Rejects the current case (retried without counting) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).into(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $( $crate::strategy::Strategy::boxed($strategy) ),+
        ])
    };
}
