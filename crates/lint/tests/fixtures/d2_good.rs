//! D2 fixture (clean): time flows from the simulated clock.
#[derive(Clone, Copy)]
pub struct SimTime(pub u64);

pub fn stamp(now: SimTime) -> SimTime {
    now
}
