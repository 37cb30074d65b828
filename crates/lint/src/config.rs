//! Lint configuration: which crates each lint applies to.
//!
//! The scoping encodes the workspace's determinism architecture rather
//! than per-file whims:
//!
//! * protocol/simulation crates must be reproducible byte-for-byte, so
//!   they get the determinism lints (D1–D3) and the protocol-safety
//!   lints (S1–S2);
//! * `bench` measures wall-clock time on purpose — it is the only place
//!   D2 permits `Instant`;
//! * the vendored `rand` shim *implements* the seeded generators all
//!   randomness must flow from, so it is exempt from D3 by definition.

/// A wire enum + the handler fn that must match it exhaustively (P1).
#[derive(Clone, Debug)]
pub struct HandlerSpec {
    /// Crate (dir name) defining the wire enum.
    pub enum_crate: String,
    /// The wire enum's name.
    pub enum_name: String,
    /// Crate defining the handler function.
    pub handler_crate: String,
    /// The handler function's name; every enum variant must be named in
    /// code reachable from it.
    pub handler_fn: String,
}

/// Per-lint crate scoping. Crate names are the directory names under
/// `crates/` (plus the synthetic names `qsel-repro` for the root package
/// and `examples` for example binaries).
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// D1 (nondeterministic iteration) applies to these crates.
    pub d1_crates: Vec<String>,
    /// D2 (wall clock) applies everywhere *except* these crates.
    pub d2_exempt_crates: Vec<String>,
    /// D3 (ambient rng) applies everywhere *except* these crates.
    pub d3_exempt_crates: Vec<String>,
    /// S1 (verify before use) applies to these crates.
    pub s1_crates: Vec<String>,
    /// How far up the call graph S1 chases caller-side verification
    /// before giving up and flagging.
    pub s1_max_caller_depth: usize,
    /// Identifier prefixes that count as verify-family calls for S1
    /// domination (`verify_sig`, `authenticate_peer`, ...).
    pub verify_prefixes: Vec<String>,
    /// S2 (panic in protocol code) applies to these crates.
    pub s2_crates: Vec<String>,
    /// Path substrings exempt from H1 (crate roots allowed to omit
    /// `#![forbid(unsafe_code)]`). Empty by default: the whole workspace
    /// carries the header.
    pub h1_exempt: Vec<String>,
    /// P1 handler-exhaustiveness specs.
    pub p1_handlers: Vec<HandlerSpec>,
    /// P2 (hand-written quorum arithmetic) applies to these crates.
    pub p2_crates: Vec<String>,
    /// Path substrings exempt from P2 — the one place allowed to spell
    /// the arithmetic out is the central thresholds module itself.
    pub p2_exempt_paths: Vec<String>,
    /// P3 sans-io crates: no call chain from these may reach io/clock.
    pub p3_pure_crates: Vec<String>,
    /// P3 boundary crates: impure by contract; taint does not propagate
    /// outward through calls into them.
    pub p3_boundary_crates: Vec<String>,
    /// Crates whose `std::fs` use is contractual (result writers): the
    /// fs anchor class is skipped there, net/thread stay banned.
    pub p3_fs_exempt_crates: Vec<String>,
    /// Crate defining the trace-event enum (P4).
    pub p4_event_crate: String,
    /// The trace-event enum's name (P4).
    pub p4_event_enum: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        LintConfig {
            // Crates whose iteration order can reach messages, traces,
            // or stats of a seeded simulation. The scenario layer compiles
            // specs into fault plans and actor placements, so its iteration
            // order reaches the trace too.
            d1_crates: v(&["core", "xpaxos", "pbft", "detector", "simnet", "scenario", "mmr"]),
            d2_exempt_crates: v(&["bench"]),
            d3_exempt_crates: v(&["rand"]),
            // Crates that handle signed protocol messages.
            s1_crates: v(&["core", "xpaxos", "pbft", "detector"]),
            s1_max_caller_depth: 3,
            verify_prefixes: v(&["verify", "authenticate"]),
            s2_crates: v(&["core", "xpaxos", "pbft", "detector", "mmr"]),
            h1_exempt: Vec::new(),
            p1_handlers: vec![
                HandlerSpec {
                    enum_crate: "xpaxos".into(),
                    enum_name: "XpMsg".into(),
                    handler_crate: "xpaxos".into(),
                    handler_fn: "handle_message".into(),
                },
                HandlerSpec {
                    enum_crate: "pbft".into(),
                    enum_name: "PbftMsg".into(),
                    handler_crate: "pbft".into(),
                    handler_fn: "on_message".into(),
                },
            ],
            p2_crates: v(&["types", "core", "detector", "xpaxos", "pbft", "scenario"]),
            p2_exempt_paths: v(&["types/src/thresholds.rs"]),
            // Everything that feeds the deterministic simulation, plus
            // the experiment driver (`bench`), which may *measure* time
            // (D2-exempt) but must not open sockets or spawn threads.
            p3_pure_crates: v(&[
                "types", "core", "detector", "graph", "xpaxos", "pbft", "mmr", "obs", "simnet",
                "scenario", "adversary", "bench",
            ]),
            p3_boundary_crates: Vec::new(),
            // The experiment driver's whole job is writing result files;
            // it still must not open sockets or spawn threads.
            p3_fs_exempt_crates: v(&["bench"]),
            p4_event_crate: "obs".into(),
            p4_event_enum: "TraceEvent".into(),
        }
    }
}

impl LintConfig {
    /// Whether D1 applies to `krate`.
    pub fn d1_applies(&self, krate: &str) -> bool {
        self.d1_crates.iter().any(|c| c == krate)
    }

    /// Whether D2 applies to `krate`.
    pub fn d2_applies(&self, krate: &str) -> bool {
        !self.d2_exempt_crates.iter().any(|c| c == krate)
    }

    /// Whether D3 applies to `krate`.
    pub fn d3_applies(&self, krate: &str) -> bool {
        !self.d3_exempt_crates.iter().any(|c| c == krate)
    }

    /// Whether S1 applies to `krate`.
    pub fn s1_applies(&self, krate: &str) -> bool {
        self.s1_crates.iter().any(|c| c == krate)
    }

    /// Whether S2 applies to `krate`.
    pub fn s2_applies(&self, krate: &str) -> bool {
        self.s2_crates.iter().any(|c| c == krate)
    }

    /// Whether `path` (workspace-relative, `/`-separated) is exempt from H1.
    pub fn h1_exempt(&self, path: &str) -> bool {
        self.h1_exempt.iter().any(|p| path.contains(p.as_str()))
    }

    /// Whether P2 applies to `krate`.
    pub fn p2_applies(&self, krate: &str) -> bool {
        self.p2_crates.iter().any(|c| c == krate)
    }

    /// Whether `path` is exempt from P2.
    pub fn p2_exempt(&self, path: &str) -> bool {
        self.p2_exempt_paths.iter().any(|p| path.contains(p.as_str()))
    }

    /// Whether `krate` must stay sans-io (P3).
    pub fn p3_pure(&self, krate: &str) -> bool {
        self.p3_pure_crates.iter().any(|c| c == krate)
    }

    /// Whether `krate` is a P3 taint boundary.
    pub fn p3_boundary(&self, krate: &str) -> bool {
        self.p3_boundary_crates.iter().any(|c| c == krate)
    }

    /// Whether `krate` may use `std::fs` (P3 fs-anchor exemption).
    pub fn p3_fs_exempt(&self, krate: &str) -> bool {
        self.p3_fs_exempt_crates.iter().any(|c| c == krate)
    }
}
