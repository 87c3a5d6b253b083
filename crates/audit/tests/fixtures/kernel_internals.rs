//! Fixture: model code reaching into the sim kernel's private machinery
//! instead of the `OutageSim` facade (2 expected `kernel-internals`
//! findings: the `RunState` accumulator and the fixed-step oracle's
//! `StepWorld`).

pub fn inspect(st: &RunState, world: &StepWorld) -> bool {
    st.state_lost || world.state_lost
}
