//! `qsel-lint` — protocol-aware static analysis for the one invariant
//! the compiler cannot see yet.
//!
//! The paper's guarantees hold here only if every signed payload is
//! verified before use. `Signed<T>` still has public fields, so that is
//! a property of the protocol code, not of its types, and this crate
//! checks it: a dependency-free (no `syn` — the workspace is offline)
//! hand-rolled lexer feeds an item-level parser, a per-crate symbol
//! table, and a name-resolved reverse call graph, over which the passes
//! run.
//!
//! | id | name | invariant |
//! |----|------|-----------|
//! | S1 | verify-before-use | a fn reading a `Signed*` payload is dominated by a verify-family call — in its own body or in every caller (interprocedural, depth-bounded) |
//! | A1 | stale-allow | every `// lint: allow(...)` annotation matches a live finding |
//!
//! The other workspace invariants are enforced by the toolchain, with
//! type information this crate does not have, or by tests (DESIGN.md
//! §15): H1 no `unsafe` (`[workspace.lints.rust]` in the root manifest),
//! D1–D3 determinism and P3 sans-io purity (`clippy.toml`), S2 no panics
//! and P1 exhaustive message handlers (`#[deny(clippy::…)]` in the crates
//! they cover), P2 quorum arithmetic (the opaque
//! `qsel_types::thresholds::Faults`, which has no arithmetic operators),
//! and P4 trace coverage (the `every_trace_event_kind_is_emitted`
//! integration test, over real traces).
//!
//! Escape hatch: `// lint: allow(ID, reason)` on the finding's line or
//! the line directly above. Suppressed findings still appear in
//! `lint_report.json` (with their reasons) — the annotation trail is an
//! audit log, not a mute button. A1 closes the loop: an allow that no
//! longer matches anything is itself a finding, and is not suppressible.
//!
//! Run with `cargo run -p qsel-lint`; exits non-zero on any unsuppressed
//! finding.

pub mod config;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod passes;
pub mod report;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use config::LintConfig;
pub use model::Workspace;
pub use parser::{FileMeta, ParsedFile};
pub use report::{Finding, Report};

/// Lints every workspace source file under `root` with `cfg`, resolving
/// the crate dependency graph from the Cargo manifests.
///
/// Scanned: `crates/*/src/**/*.rs` (including `src/bin/`), the root
/// package's `src/**/*.rs`, and `examples/*.rs`. Integration-test
/// directories (`tests/`) are not scanned — every pass exempts test
/// code, and fixtures under `crates/lint/tests/fixtures/` contain
/// deliberate violations.
pub fn run(root: &Path, cfg: &LintConfig) -> std::io::Result<Report> {
    let mut files: Vec<(PathBuf, FileMeta)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in files::entries(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut |p| {
                    files.push((p.to_path_buf(), file_meta(root, p)));
                })?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut |p| {
            files.push((p.to_path_buf(), file_meta(root, p)));
        })?;
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, &mut |p| {
            files.push((p.to_path_buf(), file_meta(root, p)));
        })?;
    }
    let deps = workspace_deps(root)?;
    lint_paths_with_deps(&files, cfg, deps)
}

/// Lints an explicit file set with no cross-crate dependency edges (the
/// fixture tests use this directly; same-crate resolution still works).
pub fn lint_paths(files: &[(PathBuf, FileMeta)], cfg: &LintConfig) -> std::io::Result<Report> {
    lint_paths_with_deps(files, cfg, BTreeMap::new())
}

/// Lints an explicit file set with an explicit crate dependency map
/// (crate dir name → dep crate dir names).
pub fn lint_paths_with_deps(
    files: &[(PathBuf, FileMeta)],
    cfg: &LintConfig,
    deps: BTreeMap<String, Vec<String>>,
) -> std::io::Result<Report> {
    let mut parsed = Vec::with_capacity(files.len());
    for (path, meta) in files {
        let src = files::read(path)?;
        parsed.push(ParsedFile::parse(&src, meta));
    }
    let ws = Workspace::build(parsed, deps);
    let mut report = Report {
        findings: analyze(&ws, cfg),
        files_scanned: ws.files.len(),
    };
    report.sort();
    Ok(report)
}

/// Lints a single in-memory source file (unit tests use this). The
/// workspace passes run too, so S1's caller analysis sees same-file
/// callers.
pub fn lint_source(src: &str, meta: &FileMeta, cfg: &LintConfig) -> Vec<Finding> {
    let ws = Workspace::build(vec![ParsedFile::parse(src, meta)], BTreeMap::new());
    analyze(&ws, cfg)
}

/// The full pipeline over a built workspace: S1, suppression
/// application, then the stale-allow audit.
pub fn analyze(ws: &Workspace, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    passes::pass_s1(ws, cfg, &mut findings);
    apply_suppressions(ws, &mut findings);
    let mut stale = Vec::new();
    passes::pass_a1(ws, &findings, &mut stale);
    findings.extend(stale);
    findings
}

/// Marks findings covered by a `// lint: allow(ID, reason)` annotation
/// on the same or the directly preceding line. A1 findings are exempt —
/// the stale-allow audit cannot be allowed away.
fn apply_suppressions(ws: &Workspace, findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        if f.lint == "A1" {
            continue;
        }
        let Some(file) = ws.files.iter().find(|x| x.meta.path == f.file) else {
            continue;
        };
        for s in &file.suppressions {
            if s.lint == f.lint && (s.line == f.line || s.line + 1 == f.line) {
                f.suppressed = Some(s.reason.clone());
                break;
            }
        }
    }
}

/// Reads the crate dependency graph (crate dir name → dep dir names)
/// from the Cargo manifests. A minimal TOML scan — the workspace pins
/// every internal dependency through `[workspace.dependencies]`, so the
/// package-name → directory mapping lives in the root manifest and the
/// per-crate manifests only need their `[dependencies]` name lists.
pub fn workspace_deps(root: &Path) -> std::io::Result<BTreeMap<String, Vec<String>>> {
    // 1. Package name → crate dir, from the root manifest's
    //    `[workspace.dependencies]` (`qsel = { path = "crates/core" }`).
    let root_toml = files::read(&root.join("Cargo.toml")).unwrap_or_default();
    let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
    for (section, line) in toml_lines(&root_toml) {
        if section != "workspace.dependencies" {
            continue;
        }
        let Some((name, rest)) = line.split_once('=') else { continue };
        let Some(path) = toml_str_value(rest, "path") else { continue };
        if let Some(dir) = path.rsplit('/').next() {
            name_to_dir.insert(name.trim().to_string(), dir.to_string());
        }
    }
    let dir_of = |dep_name: &str| -> String {
        name_to_dir
            .get(dep_name)
            .cloned()
            .unwrap_or_else(|| dep_name.to_string())
    };
    // 2. Per-crate `[dependencies]` (and the root package's, which maps
    //    to the synthetic crate `qsel-repro`).
    let mut deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut add_manifest = |krate: &str, toml: &str| {
        let mut list: Vec<String> = Vec::new();
        for (section, line) in toml_lines(toml) {
            if section != "dependencies" {
                continue;
            }
            // `qsel-types.workspace = true` or `qsel-types = { ... }`.
            let Some(head) = line.split('=').next() else { continue };
            let name = head.trim().trim_end_matches(".workspace").trim();
            if !name.is_empty() {
                list.push(dir_of(name));
            }
        }
        if !list.is_empty() {
            deps.insert(krate.to_string(), list);
        }
    };
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for p in files::entries(&crates_dir)? {
            if let (Some(dir), Ok(toml)) = (
                p.file_name().map(|s| s.to_string_lossy().to_string()),
                files::read(&p.join("Cargo.toml")),
            ) {
                add_manifest(&dir, &toml);
            }
        }
    }
    add_manifest("qsel-repro", &root_toml);
    // Examples link against the root package and (transitively, for the
    // name-based resolver) whatever it depends on.
    let mut ex: Vec<String> = deps.get("qsel-repro").cloned().unwrap_or_default();
    ex.push("qsel-repro".to_string());
    deps.insert("examples".to_string(), ex);
    Ok(deps)
}

/// Yields `(current_section, line)` for non-comment, non-header lines.
fn toml_lines(toml: &str) -> impl Iterator<Item = (String, &str)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        out.push((section.clone(), line));
    }
    out.into_iter()
}

/// Extracts `key = "value"` from an inline TOML table fragment.
fn toml_str_value(fragment: &str, key: &str) -> Option<String> {
    let pos = fragment.find(key)?;
    let rest = fragment[pos + key.len()..].trim_start().strip_prefix('=')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(rest.split('"').next()?.to_string())
}

/// Computes the [`FileMeta`] for `path` relative to the workspace root.
pub fn file_meta(root: &Path, path: &Path) -> FileMeta {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel_str = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let parts: Vec<&str> = rel_str.split('/').collect();
    let krate = match parts.first() {
        Some(&"crates") => parts.get(1).unwrap_or(&"").to_string(),
        Some(&"examples") => "examples".to_string(),
        _ => "qsel-repro".to_string(),
    };
    FileMeta {
        path: rel_str,
        krate,
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic report order.
fn collect_rs(dir: &Path, f: &mut impl FnMut(&Path)) -> std::io::Result<()> {
    for p in files::entries(dir)? {
        if p.is_dir() {
            collect_rs(&p, f)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            f(&p);
        }
    }
    Ok(())
}

/// The linter's only file access: it reads the tree it audits and
/// writes its report. `clippy.toml` bans `std::fs` workspace-wide to
/// keep protocol code sans-io; the linter is a host tool, so its one
/// exemption sits here.
#[expect(
    clippy::disallowed_methods,
    reason = "the linter reads the source tree it audits and writes its report"
)]
pub mod files {
    use std::io;
    use std::path::{Path, PathBuf};

    /// Reads a UTF-8 file.
    pub fn read(path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    /// Writes `contents` to `path`.
    pub fn write(path: &Path, contents: &str) -> io::Result<()> {
        std::fs::write(path, contents)
    }

    /// The entries of `dir`, sorted so reports do not depend on the
    /// filesystem's order.
    pub fn entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_meta_classifies_paths() {
        let root = Path::new("/ws");
        let krate = |p: &str| file_meta(root, Path::new(p)).krate;
        assert_eq!(krate("/ws/crates/xpaxos/src/log.rs"), "xpaxos");
        assert_eq!(krate("/ws/crates/bench/src/bin/exp_thm3.rs"), "bench");
        assert_eq!(krate("/ws/examples/trace_run.rs"), "examples");
        assert_eq!(krate("/ws/src/lib.rs"), "qsel-repro");
        assert_eq!(file_meta(root, Path::new("/ws/src/lib.rs")).path, "src/lib.rs");
    }

    #[test]
    fn workspace_deps_maps_names_to_dirs() {
        let toml = "[workspace.dependencies]\n\
                    qsel-types = { path = \"crates/types\" }\n\
                    qsel = { path = \"crates/core\" }\n";
        let mut map = BTreeMap::new();
        for (section, line) in toml_lines(toml) {
            assert_eq!(section, "workspace.dependencies");
            let (name, rest) = line.split_once('=').unwrap();
            let path = toml_str_value(rest, "path").unwrap();
            map.insert(name.trim().to_string(), path);
        }
        assert_eq!(map["qsel-types"], "crates/types");
        assert_eq!(map["qsel"], "crates/core");
    }

    fn core_meta() -> FileMeta {
        FileMeta {
            path: "crates/core/src/x.rs".into(),
            krate: "core".into(),
        }
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = "// lint: allow(S1, justified)\nfn g(m: SignedVote) -> u64 { m.payload.x }";
        let f = lint_source(src, &core_meta(), &LintConfig::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed.as_deref(), Some("justified"));
    }

    #[test]
    fn stale_allow_is_not_suppressible() {
        let meta = core_meta();
        // The allow matches nothing; an A1 fires; a second allow aimed
        // at the A1 itself must not mute it (and is itself stale).
        let src = "// lint: allow(A1, trying to mute the audit)\n\
                   // lint: allow(S1, stale)\nfn fine() {}";
        let f = lint_source(src, &meta, &LintConfig::default());
        let a1: Vec<_> = f.iter().filter(|x| x.lint == "A1").collect();
        assert_eq!(a1.len(), 2);
        assert!(a1.iter().all(|x| x.suppressed.is_none()));
    }
}
