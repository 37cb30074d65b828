//! Suppression fixture: an S1 finding with an audit-trail annotation.
// lint: allow(S1, fixture demonstrates the escape hatch)
pub fn on_prepare(sp: SignedPrepare) -> u64 {
    sp.payload.slot
}
