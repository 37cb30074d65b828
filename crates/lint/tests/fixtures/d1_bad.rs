//! D1 fixture: `HashMap` field, whose iteration order is not reproducible.
//! rejected-by: clippy::disallowed_types std::collections::HashMap
use std::collections::HashMap;

pub struct Tally {
    pub votes: HashMap<u64, u32>,
}
