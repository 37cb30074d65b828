//! Test-code exemption fixture: violations inside `#[cfg(test)]` and
//! `#[test]` items are out of scope for every pass.
#[cfg(test)]
mod tests {
    fn slot_of(sp: SignedPrepare) -> u64 {
        sp.payload.slot
    }
}

#[test]
fn view_of(sp: SignedPrepare) -> u64 {
    sp.payload.view
}
