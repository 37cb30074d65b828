//! P1 fixture: handlers whose wildcard arm swallows wire variants —
//! several, or a single one (clippy names the two cases apart).
//! rejected-by: clippy::wildcard_enum_match_arm wildcard
//! rejected-by: clippy::match_wildcard_for_single_variants wildcard
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
        _ => 0,
    }
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
pub fn handle_control(m: WireMsg) -> u8 {
    match m {
        WireMsg::Ping => 1,
        WireMsg::Pong => 2,
        WireMsg::Sync => 3,
        _ => 0,
    }
}
