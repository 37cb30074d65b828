//! Suppression fixture: a P2 finding with an audit-trail annotation.
pub fn weak_quorum(f: u32) -> u32 {
    // lint: allow(P2, fixture demonstrates the escape hatch)
    f + 1
}
