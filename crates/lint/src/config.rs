//! Lint configuration: which crates S1 applies to.
//!
//! The scoping encodes the workspace's trust architecture rather than
//! per-file whims: the crates that handle signed protocol messages get
//! S1. Every other workspace invariant is enforced by rustc and clippy
//! (root `Cargo.toml`, `clippy.toml`, and the opaque
//! `qsel_types::thresholds::Faults`) or by a test, not here.

/// Per-pass crate scoping. Crate names are the directory names under
/// `crates/` (plus the synthetic names `qsel-repro` for the root package
/// and `examples` for example binaries).
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// S1 (verify before use) applies to these crates.
    pub s1_crates: Vec<String>,
    /// How far up the call graph S1 chases caller-side verification
    /// before giving up and flagging.
    pub s1_max_caller_depth: usize,
    /// Identifier prefixes that count as verify-family calls for S1
    /// domination (`verify_sig`, `authenticate_peer`, ...).
    pub verify_prefixes: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        LintConfig {
            // Crates that handle signed protocol messages.
            s1_crates: v(&["core", "xpaxos", "pbft", "detector"]),
            s1_max_caller_depth: 3,
            verify_prefixes: v(&["verify", "authenticate"]),
        }
    }
}

impl LintConfig {
    /// Whether S1 applies to `krate`.
    pub fn s1_applies(&self, krate: &str) -> bool {
        self.s1_crates.iter().any(|c| c == krate)
    }
}
