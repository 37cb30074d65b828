//! D2 fixture: wall-clock time in deterministic code.
//! rejected-by: clippy::disallowed_types std::time::Instant
pub fn stamp_ms() -> u128 {
    std::time::Instant::now().elapsed().as_millis()
}
