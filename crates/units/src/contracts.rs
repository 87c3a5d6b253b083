//! Runtime model contracts: debug-assert invariants for the physical and
//! economic models.
//!
//! The paper's results are pure model outputs — capital-cost,
//! performability, and TCO numbers — so a silent conservation or bounds
//! violation (a battery delivering more energy than it holds, a probability
//! leaving `[0, 1]`, a negative cost) would corrupt every figure without
//! failing a single test. The model crates thread [`contract!`](crate::contract) checks
//! through their hot paths:
//!
//! * `dcb-battery` — energy conservation and state-of-charge bounds on
//!   every draw;
//! * `dcb-power` — diesel ramp bounds and non-negative UPS draws;
//! * `dcb-core` — probability bounds in the availability analysis and
//!   non-negativity / normalizer idempotence in the cost model.
//!
//! Checks are active in debug builds (like `debug_assert!`), and can be
//! forced on in release builds with [`force_enable`]: `dcb-audit sweep`
//! calls it so CI can replay the paper's sweeps under full contract
//! checking at release speed, and so do the tests that need checking in
//! a release test run.
//!
//! ```
//! use dcb_units::contract;
//!
//! let spent = 1.0_f64;
//! let budget = 2.0_f64;
//! contract!(spent <= budget, "spent {spent} exceeds budget {budget}");
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static FORCED: AtomicBool = AtomicBool::new(false);
static CHECKED: AtomicU64 = AtomicU64::new(0);

/// Whether contract checks run: always in debug builds, and in release
/// builds once forced ([`force_enable`]).
#[must_use]
pub fn enabled() -> bool {
    cfg!(debug_assertions) || FORCED.load(Ordering::Relaxed)
}

/// Turns contract checking on for the rest of the process, regardless of
/// build profile. Used by `dcb-audit sweep` to replay the paper's grids
/// under checking in a release build.
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

/// Records one evaluated contract. Called by the [`contract!`] macro; not
/// meant for direct use.
#[doc(hidden)]
pub fn note_check() {
    CHECKED.fetch_add(1, Ordering::Relaxed);
}

/// Number of contract conditions evaluated by this process so far. A sweep
/// that reports thousands of checks and no panic demonstrates the
/// invariants actually ran, not merely that nothing crashed.
#[must_use]
pub fn checked_count() -> u64 {
    CHECKED.load(Ordering::Relaxed)
}

/// Asserts a model invariant when contract checking is [`enabled`].
///
/// Behaves like `debug_assert!` in ordinary builds but can also run in
/// release builds (see the [module docs](self)). A violated contract
/// panics with the formatted message: contracts guard *model correctness*,
/// so continuing past a violation would only launder a corrupt number into
/// a result table.
#[macro_export]
macro_rules! contract {
    ($cond:expr, $($arg:tt)+) => {
        if $crate::contracts::enabled() {
            $crate::contracts::note_check();
            assert!($cond, $($arg)+);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_are_counted() {
        // Forced on, so a release test run counts too.
        force_enable();
        let before = checked_count();
        contract!(1 + 1 == 2, "arithmetic broke");
        contract!(true, "tautology");
        assert!(checked_count() >= before + 2);
    }

    #[test]
    #[should_panic(expected = "spent 3 exceeds budget 2")]
    fn violations_panic_with_message() {
        force_enable();
        let (spent, budget) = (3, 2);
        contract!(spent <= budget, "spent {spent} exceeds budget {budget}");
    }

    #[test]
    fn force_enable_is_sticky() {
        force_enable();
        assert!(enabled());
    }
}
