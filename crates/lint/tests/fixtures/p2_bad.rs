//! P2 fixture: hand-written quorum arithmetic on a cluster's fault bound.
//! `Faults` implements no arithmetic operator, so none of it compiles.
//! rejected-by: E0369 Faults
//! rejected-by: E0277 Faults
use qsel_types::ClusterConfig;

pub fn reply_ready(cfg: &ClusterConfig, matching: usize) -> bool {
    matching >= cfg.f() + 1
}

pub fn prepare_quorum(cfg: &ClusterConfig) -> u32 {
    2 * cfg.f()
}

pub fn quorum(cfg: &ClusterConfig) -> u32 {
    cfg.n() - cfg.f()
}
