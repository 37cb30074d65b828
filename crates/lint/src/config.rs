//! Lint configuration: which crates each pass applies to.
//!
//! The scoping encodes the workspace's trust architecture rather than
//! per-file whims: the crates that handle signed protocol messages get
//! S1, the crates that compute quorum thresholds get P2, and P4 audits
//! the one trace vocabulary. The determinism, panic, unsafe and sans-io
//! bans are enforced by rustc and clippy (root `Cargo.toml` and
//! `clippy.toml`), not here.

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
    /// P2 (hand-written quorum arithmetic) applies to these crates.
    pub p2_crates: Vec<String>,
    /// Path substrings exempt from P2 — the one place allowed to spell
    /// the arithmetic out is the central thresholds module itself.
    pub p2_exempt_paths: Vec<String>,
    /// Crate defining the trace-event enum (P4).
    pub p4_event_crate: String,
    /// The trace-event enum's name (P4).
    pub p4_event_enum: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        LintConfig {
            // Crates that handle signed protocol messages.
            s1_crates: v(&["core", "xpaxos", "pbft", "detector"]),
            s1_max_caller_depth: 3,
            verify_prefixes: v(&["verify", "authenticate"]),
            p2_crates: v(&["types", "core", "detector", "xpaxos", "pbft", "scenario"]),
            p2_exempt_paths: v(&["types/src/thresholds.rs"]),
            p4_event_crate: "obs".into(),
            p4_event_enum: "TraceEvent".into(),
        }
    }
}

impl LintConfig {
    /// Whether S1 applies to `krate`.
    pub fn s1_applies(&self, krate: &str) -> bool {
        self.s1_crates.iter().any(|c| c == krate)
    }

    /// Whether P2 applies to `krate`.
    pub fn p2_applies(&self, krate: &str) -> bool {
        self.p2_crates.iter().any(|c| c == krate)
    }

    /// Whether `path` is exempt from P2.
    pub fn p2_exempt(&self, path: &str) -> bool {
        self.p2_exempt_paths.iter().any(|p| path.contains(p.as_str()))
    }
}
