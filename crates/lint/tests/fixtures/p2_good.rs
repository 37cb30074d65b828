//! P2 fixture (clean): thresholds routed through the central module.
use qsel_types::{thresholds, ClusterConfig};

pub fn reply_ready(cfg: &ClusterConfig, matching: usize) -> bool {
    thresholds::reply_quorum_reached(cfg.f(), matching)
}

pub fn prepare_quorum(cfg: &ClusterConfig, participants: usize) -> usize {
    thresholds::pbft_prepare_quorum(participants, cfg.f())
}

pub fn quorum(cfg: &ClusterConfig) -> u32 {
    cfg.quorum_size()
}
