#![forbid(unsafe_code)]
//! P4 fixture: the trace vocabulary under audit. Whether each variant
//! is live depends on which emitter fixture rides along.
pub enum Ev {
    Sent,
    Delivered,
    Dropped,
}
