//! H1 fixture: `unsafe` code, which the workspace forbids; an inner
//! `allow` cannot lower a `forbid`.
//! rejected-by: E0453 unsafe_code
//! rejected-by: unsafe_code unsafe
#![allow(unsafe_code)]

pub fn first(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() }
}
