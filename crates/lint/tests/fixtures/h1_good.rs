//! H1 fixture (clean): the same read, checked.
pub fn first(xs: &[u8]) -> Option<u8> {
    xs.first().copied()
}
