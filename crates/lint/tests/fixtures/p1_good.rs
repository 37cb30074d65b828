//! P1 fixture (clean): every variant is routed by name.
pub enum WireMsg {
    Ping,
    Pong,
    Sync,
    Reset,
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
pub fn handle_message(m: WireMsg) -> u8 {
    match m {
        WireMsg::Ping => 1,
        WireMsg::Pong => 2,
        WireMsg::Sync => 3,
        WireMsg::Reset => 4,
    }
}
