//! The protocol-aware workspace passes. They run over the whole
//! [`Workspace`] (symbol table + call graph):
//!
//! * **S1 verify-before-use** (dataflow upgrade): a fn reading a signed
//!   payload is clean if a verify-family call dominates the read in its
//!   own body, *or* every non-test call site is dominated by one in the
//!   caller (recursively, depth-limited). What is left is a genuine
//!   trust-boundary hole — or a documented boundary via `allow(S1, …)`.
//! * **P2 quorum-arithmetic**: hand-written `f + 1` / `2*f` / `n − f`
//!   threshold math outside `qsel_types::thresholds`.
//! * **P4 trace-vocabulary coverage**: every trace-event variant is
//!   emitted outside its defining crate. (That every variant is written
//!   and parsed is a compile-time fact of the `trace_events!` table in
//!   `qsel-obs`, not a lint.)
//! * **A1 stale-allow**: an `allow` annotation that matches no finding
//!   is noise that hides real suppressions — remove it. A1 is itself
//!   not suppressible.

use std::collections::BTreeSet;

use crate::config::LintConfig;
use crate::lexer::{Tok, Token};
use crate::model::Workspace;
use crate::parser::{ident_at, punct_at};
use crate::report::Finding;

/// Runs every workspace pass.
pub fn workspace_passes(ws: &Workspace, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    pass_s1(ws, cfg, findings);
    pass_p2(ws, cfg, findings);
    pass_p4(ws, cfg, findings);
}

/// Whether the scan set contains `krate`'s root file. P4 keys off this
/// rather than mere crate presence: a full workspace scan always
/// includes the crate root, while unit-test and fixture subsets (single
/// files, `is_crate_root: false`) do not — and those must not be told
/// their enum is "missing".
fn has_crate_root(ws: &Workspace, krate: &str) -> bool {
    ws.files
        .iter()
        .any(|f| f.meta.krate == krate && f.meta.is_crate_root)
}

fn is_verify_ident(cfg: &LintConfig, s: &str) -> bool {
    cfg.verify_prefixes.iter().any(|p| s.starts_with(p.as_str()))
}

// ----------------------------------------------------------------------
// S1 — verify before use (interprocedural)
// ----------------------------------------------------------------------

fn pass_s1(ws: &Workspace, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    for id in 0..ws.fns.len() {
        let def = &ws.fns[id];
        if def.item.in_test || !cfg.s1_applies(&def.krate) {
            continue;
        }
        let Some((bs, be)) = def.item.body else { continue };
        let file = ws.file_of(id);
        let params = &file.code[def.item.params.0..def.item.params.1];
        for pname in signed_param_names(params) {
            let Some(rel) = first_payload_access(&file.code[bs..be], &pname) else {
                continue;
            };
            let acc = bs + rel;
            let in_body = file.code[bs..acc]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if is_verify_ident(cfg, s)));
            if in_body || callers_verify(ws, cfg, id, 0, &mut BTreeSet::new()) {
                continue;
            }
            findings.push(Finding {
                lint: "S1",
                file: file.meta.path.clone(),
                line: def.item.line,
                message: format!(
                    "fn `{}` reads `{pname}.payload` without a dominating `verify` call \
                     in its body or in every caller — signed payloads must be verified \
                     before use (σ_l assumption, PAPER.md §II)",
                    def.item.name
                ),
                suppressed: None,
            });
        }
    }
}

/// Whether *every* non-test call site of `id` is dominated by a
/// verify-family call — either textually earlier in the caller's body,
/// or (recursively) because the caller itself is only entered verified.
/// No known call sites means nobody vouches: `false`.
fn callers_verify(
    ws: &Workspace,
    cfg: &LintConfig,
    id: usize,
    depth: usize,
    visiting: &mut BTreeSet<usize>,
) -> bool {
    if depth >= cfg.s1_max_caller_depth || !visiting.insert(id) {
        return false; // depth bound or recursion cycle: assume unverified
    }
    let sites = ws.call_sites_of(id);
    if sites.is_empty() {
        visiting.remove(&id);
        return false;
    }
    for &(caller, site_idx) in sites {
        let cdef = &ws.fns[caller];
        let Some((bs, _)) = cdef.item.body else {
            visiting.remove(&id);
            return false;
        };
        let cfile = ws.file_of(caller);
        let dominated = cfile.code[bs..site_idx]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if is_verify_ident(cfg, s)));
        if !dominated && !callers_verify(ws, cfg, caller, depth + 1, visiting) {
            visiting.remove(&id);
            return false;
        }
    }
    visiting.remove(&id);
    true
}

/// Names of parameters whose type tokens mention an ident starting with
/// `Signed`, given the token slice between the parens of a `fn`.
fn signed_param_names(params: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    // Split at top-level commas, tracking (), [], {}, and <> depth.
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for (k, t) in params.iter().enumerate() {
        match t.tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') | Tok::Punct('<') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct('>') => {
                // `->` and `=>` are not closing angles.
                let arrow =
                    k > 0 && matches!(params[k - 1].tok, Tok::Punct('-') | Tok::Punct('='));
                if !arrow {
                    depth -= 1;
                }
            }
            Tok::Punct(',') if depth == 0 => {
                groups.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    groups.push((start, params.len()));
    for (a, b) in groups {
        let slice = &params[a..b];
        let Some(colon) = slice.iter().position(|t| t.tok == Tok::Punct(':')) else {
            continue; // `self`, `&mut self`, ...
        };
        let ty_signed = slice[colon + 1..]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s.starts_with("Signed")));
        if !ty_signed {
            continue;
        }
        // The binding name: last ident before the colon (skips `mut`, `&`).
        if let Some(name) = slice[..colon].iter().rev().find_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.clone()),
            _ => None,
        }) {
            out.push(name);
        }
    }
    out
}

/// Index (within `body`) of the first `name . payload` sequence.
fn first_payload_access(body: &[Token], name: &str) -> Option<usize> {
    (0..body.len().saturating_sub(2)).find(|&k| {
        matches!(&body[k].tok, Tok::Ident(s) if s == name)
            && body[k + 1].tok == Tok::Punct('.')
            && matches!(&body[k + 2].tok, Tok::Ident(s) if s == "payload")
    })
}

// ----------------------------------------------------------------------
// P2 — quorum arithmetic
// ----------------------------------------------------------------------

/// Normalized view of an expression token for threshold-pattern matching.
#[derive(Clone, Debug, PartialEq)]
enum Atom {
    /// Last path segment of an ident / field access / nullary call
    /// (`self.cluster.f()` → `f`).
    Name(String, u32, usize),
    /// A literal with its raw text.
    Lit(String, u32, usize),
    /// An arithmetic/comparison operator.
    Op(&'static str, u32, usize),
    /// Anything else (breaks adjacency).
    Other,
}

fn pass_p2(ws: &Workspace, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    for file in &ws.files {
        if !cfg.p2_applies(&file.meta.krate) || cfg.p2_exempt(&file.meta.path) {
            continue;
        }
        let atoms = normalize_exprs(&file.code);
        let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
        for w in 0..atoms.len() {
            let Some((snippet, line, idx)) = match_threshold(&atoms, w) else {
                continue;
            };
            if file.in_test(idx) || !flagged_lines.insert(line) {
                continue;
            }
            findings.push(Finding {
                lint: "P2",
                file: file.meta.path.clone(),
                line,
                message: format!(
                    "hand-written quorum threshold `{snippet}` — route it through \
                     `qsel_types::thresholds` so the off-by-one class is centralized"
                ),
                suppressed: None,
            });
        }
    }
}

/// Collapses the token stream into [`Atom`]s: path/field chains reduce
/// to their last segment, nullary calls to their method name, multi-char
/// operators are fused, and argument-taking calls become opaque.
fn normalize_exprs(code: &[Token]) -> Vec<Atom> {
    let mut out: Vec<Atom> = Vec::new();
    let mut i = 0;
    let n = code.len();
    while i < n {
        let line = code[i].line;
        match &code[i].tok {
            Tok::Ident(s) if s == "as" => {
                // A cast keeps the value: skip `as Type` so `x as u32 > f`
                // stays adjacent.
                i += 1;
                if matches!(code.get(i).map(|t| &t.tok), Some(Tok::Ident(_))) {
                    i += 1;
                }
            }
            Tok::Ident(s) => {
                push_named(&mut out, code, &mut i, s.clone(), line, false);
            }
            Tok::Literal(text) => {
                out.push(Atom::Lit(text.clone(), line, i));
                i += 1;
            }
            Tok::Punct('.') => {
                if punct_at(code, i + 1, '.') {
                    // Range operator `..` / `..=`.
                    out.push(Atom::Other);
                    i += 2;
                    if punct_at(code, i, '=') {
                        i += 1;
                    }
                } else if let Some(Tok::Ident(s)) = code.get(i + 1).map(|t| &t.tok) {
                    // Field access / method call: the chain's value is
                    // named by its last segment.
                    let name = s.clone();
                    i += 1;
                    push_named(&mut out, code, &mut i, name, line, true);
                } else {
                    // Tuple field `.0` etc.
                    if matches!(out.last(), Some(Atom::Name(..) | Atom::Lit(..))) {
                        out.pop();
                    }
                    out.push(Atom::Other);
                    i += 2;
                }
            }
            Tok::Punct(':') if punct_at(code, i + 1, ':') => {
                // Path separator: drop the qualifier, the next segment
                // re-pushes.
                if matches!(out.last(), Some(Atom::Name(..))) {
                    out.pop();
                }
                i += 2;
            }
            Tok::Punct('-') if punct_at(code, i + 1, '>') => {
                out.push(Atom::Other);
                i += 2;
            }
            Tok::Punct('=') if punct_at(code, i + 1, '>') => {
                out.push(Atom::Other);
                i += 2;
            }
            Tok::Punct('=') if punct_at(code, i + 1, '=') => {
                out.push(Atom::Op("==", line, i));
                i += 2;
            }
            Tok::Punct('!') if punct_at(code, i + 1, '=') => {
                out.push(Atom::Op("!=", line, i));
                i += 2;
            }
            Tok::Punct('<') if punct_at(code, i + 1, '=') => {
                out.push(Atom::Op("<=", line, i));
                i += 2;
            }
            Tok::Punct('>') if punct_at(code, i + 1, '=') => {
                out.push(Atom::Op(">=", line, i));
                i += 2;
            }
            Tok::Punct('<') if punct_at(code, i + 1, '<') => {
                out.push(Atom::Other);
                i += 2;
            }
            Tok::Punct('>') if punct_at(code, i + 1, '>') => {
                out.push(Atom::Other);
                i += 2;
            }
            Tok::Punct('+') => {
                out.push(Atom::Op("+", line, i));
                i += 1;
            }
            Tok::Punct('-') => {
                out.push(Atom::Op("-", line, i));
                i += 1;
            }
            Tok::Punct('*') => {
                out.push(Atom::Op("*", line, i));
                i += 1;
            }
            Tok::Punct('<') => {
                out.push(Atom::Op("<", line, i));
                i += 1;
            }
            Tok::Punct('>') => {
                out.push(Atom::Op(">", line, i));
                i += 1;
            }
            _ => {
                out.push(Atom::Other);
                i += 1;
            }
        }
    }
    out
}

/// Pushes the atom for an ident (possibly a call) at `*i`; `*i` points
/// at the ident. Nullary calls keep the name (they read a stored value:
/// `cfg.f()`); calls with arguments are opaque, but their argument
/// tokens are still scanned.
fn push_named(
    out: &mut Vec<Atom>,
    code: &[Token],
    i: &mut usize,
    name: String,
    line: u32,
    after_dot: bool,
) {
    if after_dot && matches!(out.last(), Some(Atom::Name(..) | Atom::Lit(..))) {
        out.pop(); // `self.cluster.f` — the chain names its last segment
    }
    let idx = *i;
    if punct_at(code, *i + 1, '(') {
        if punct_at(code, *i + 2, ')') {
            out.push(Atom::Name(name, line, idx));
            *i += 3; // nullary call: `f()` names its value
            return;
        }
        out.push(Atom::Other);
        *i += 1; // argument-taking call: opaque, but scan into the args
        return;
    }
    out.push(Atom::Name(name, line, idx));
    *i += 1;
}

fn is_f(a: &Atom) -> bool {
    matches!(a, Atom::Name(s, ..) if s == "f" || s == "faults")
}

fn is_nm(a: &Atom) -> bool {
    matches!(a, Atom::Name(s, ..) if s == "n" || s == "m")
}

fn is_cmp(a: &Atom) -> Option<&'static str> {
    match a {
        Atom::Op(op @ ("<" | ">" | "<=" | ">=" | "==" | "!="), ..) => Some(op),
        _ => None,
    }
}

fn atom_pos(a: &Atom) -> Option<(u32, usize)> {
    match a {
        Atom::Name(_, l, i) | Atom::Lit(_, l, i) | Atom::Op(_, l, i) => Some((*l, *i)),
        Atom::Other => None,
    }
}

fn atom_text(a: &Atom) -> String {
    match a {
        Atom::Name(s, ..) => s.clone(),
        Atom::Lit(s, ..) => s.clone(),
        Atom::Op(s, ..) => (*s).to_string(),
        Atom::Other => "_".to_string(),
    }
}

/// Threshold pattern match at window position `w`. Returns
/// `(snippet, line, token idx)` of the match.
fn match_threshold(atoms: &[Atom], w: usize) -> Option<(String, u32, usize)> {
    let a = atoms.get(w)?;
    let b = atoms.get(w + 1);
    let c = atoms.get(w + 2);
    let snippet = |k: usize| {
        atoms[w..=(w + k).min(atoms.len() - 1)]
            .iter()
            .map(atom_text)
            .collect::<Vec<_>>()
            .join(" ")
    };
    // `f <op> …` / `… <op> f` — any comparison against the fault bound.
    if is_f(a) && b.and_then(is_cmp).is_some() {
        let (l, i) = atom_pos(a)?;
        return Some((snippet(1), l, i));
    }
    if is_cmp(a).is_some() && b.is_some_and(is_f) {
        let (l, i) = atom_pos(b?)?;
        return Some((snippet(1), l, i));
    }
    // `f + <lit>` / `<lit> + f` — the f+1 family.
    if is_f(a)
        && matches!(b, Some(Atom::Op("+", ..)))
        && matches!(c, Some(Atom::Lit(..)))
    {
        let (l, i) = atom_pos(a)?;
        return Some((snippet(2), l, i));
    }
    if matches!(a, Atom::Lit(..))
        && matches!(b, Some(Atom::Op("+", ..)))
        && c.is_some_and(is_f)
    {
        let (l, i) = atom_pos(c?)?;
        return Some((snippet(2), l, i));
    }
    // `<lit> * f` / `f * <lit>` — the 2f/3f family.
    if matches!(a, Atom::Lit(..))
        && matches!(b, Some(Atom::Op("*", ..)))
        && c.is_some_and(is_f)
    {
        let (l, i) = atom_pos(c?)?;
        return Some((snippet(2), l, i));
    }
    if is_f(a)
        && matches!(b, Some(Atom::Op("*", ..)))
        && matches!(c, Some(Atom::Lit(..)))
    {
        let (l, i) = atom_pos(a)?;
        return Some((snippet(2), l, i));
    }
    // `n - f` / `m - f` — quorum size.
    if is_nm(a) && matches!(b, Some(Atom::Op("-", ..))) && c.is_some_and(is_f) {
        let (l, i) = atom_pos(a)?;
        return Some((snippet(2), l, i));
    }
    // `<cmp> n - 1` / `n - 1 <cmp>` — all-peers coverage compares.
    if is_cmp(a).is_some()
        && b.is_some_and(is_nm)
        && matches!(c, Some(Atom::Op("-", ..)))
        && matches!(atoms.get(w + 3), Some(Atom::Lit(t, ..)) if t == "1")
    {
        let (l, i) = atom_pos(b?)?;
        return Some((snippet(3), l, i));
    }
    if is_nm(a)
        && matches!(b, Some(Atom::Op("-", ..)))
        && matches!(c, Some(Atom::Lit(t, ..)) if t == "1")
        && atoms.get(w + 3).and_then(is_cmp).is_some()
    {
        let (l, i) = atom_pos(a)?;
        return Some((snippet(3), l, i));
    }
    None
}

// ----------------------------------------------------------------------
// P4 — trace vocabulary coverage
// ----------------------------------------------------------------------

fn pass_p4(ws: &Workspace, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    if !has_crate_root(ws, &cfg.p4_event_crate) {
        return; // fixture subset without the obs crate
    }
    let enum_item = ws.files.iter().find_map(|f| {
        if f.meta.krate != cfg.p4_event_crate {
            return None;
        }
        f.enums
            .iter()
            .find(|e| e.name == cfg.p4_event_enum && !e.in_test)
            .map(|e| (f.meta.path.clone(), e.clone()))
    });
    let Some((enum_path, enum_item)) = enum_item else {
        findings.push(Finding {
            lint: "P4",
            file: format!("crates/{}/src", cfg.p4_event_crate),
            line: 1,
            message: format!(
                "trace-event enum `{}` not found in crate `{}` — update the P4 \
                 config in qsel-lint",
                cfg.p4_event_enum, cfg.p4_event_crate
            ),
            suppressed: None,
        });
        return;
    };
    // Collect `Enum::Variant` references outside the defining crate.
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for file in &ws.files {
        if file.meta.krate == cfg.p4_event_crate {
            continue;
        }
        let code = &file.code;
        for i in 0..code.len().saturating_sub(3) {
            if ident_at(code, i) == Some(cfg.p4_event_enum.as_str())
                && punct_at(code, i + 1, ':')
                && punct_at(code, i + 2, ':')
                && !file.in_test(i)
            {
                if let Some(v) = ident_at(code, i + 3) {
                    emitted.insert(v.to_string());
                }
            }
        }
    }
    for (v, line) in &enum_item.variants {
        if emitted.contains(v) {
            continue;
        }
        findings.push(Finding {
            lint: "P4",
            file: enum_path.clone(),
            line: *line,
            message: format!(
                "trace event `{}::{v}` is never emitted outside its defining crate — dead \
                 vocabulary rots the observability contract (emit it or delete the variant)",
                cfg.p4_event_enum
            ),
            suppressed: None,
        });
    }
}

// ----------------------------------------------------------------------
// A1 — stale allows
// ----------------------------------------------------------------------

/// Flags `// lint: allow(ID, …)` annotations that matched no finding.
/// Run *after* suppression application; A1 findings are themselves
/// never suppressible (an allow for A1 would be self-justifying).
pub fn pass_a1(ws: &Workspace, applied: &[Finding], findings: &mut Vec<Finding>) {
    for file in &ws.files {
        for s in &file.suppressions {
            let matched = applied.iter().any(|f| {
                f.lint != "A1"
                    && f.lint == s.lint
                    && f.file == file.meta.path
                    && (f.line == s.line || f.line == s.line + 1)
            });
            if !matched {
                findings.push(Finding {
                    lint: "A1",
                    file: file.meta.path.clone(),
                    line: s.line,
                    message: format!(
                        "stale `allow({}, {})`: no {} finding on this or the next line — \
                         remove the annotation (stale allows hide real suppressions)",
                        s.lint, s.reason, s.lint
                    ),
                    suppressed: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::parser::{FileMeta, ParsedFile};

    fn pf(krate: &str, name: &str, src: &str) -> ParsedFile {
        ParsedFile::parse(
            src,
            &FileMeta {
                path: format!("crates/{krate}/src/{name}.rs"),
                krate: krate.to_string(),
                is_crate_root: false,
            },
        )
    }

    fn ws(files: Vec<ParsedFile>) -> Workspace {
        Workspace::build(files, BTreeMap::new())
    }

    #[test]
    fn s1_requires_verify_before_payload() {
        let run = |src: &str| {
            let mut f = Vec::new();
            pass_s1(&ws(vec![pf("core", "a", src)]), &LintConfig::default(), &mut f);
            f.len()
        };
        assert_eq!(run("fn g(m: SignedVote) { let _ = m.payload.x; }"), 1);
        assert_eq!(
            run("fn g(m: SignedVote) { if verifier.verify(&m).is_err() { return } let _ = m.payload.x; }"),
            0
        );
    }

    #[test]
    fn s1_accepts_caller_side_verification() {
        let src = "fn entry(m: SignedVote) { verify_sig(&m); apply(m); }\n\
                   fn apply(m: SignedVote) { use_it(m.payload); }";
        let w = ws(vec![pf("core", "a", src)]);
        let mut f = Vec::new();
        pass_s1(&w, &LintConfig::default(), &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s1_flags_unverified_caller_chain() {
        let src = "fn entry(m: SignedVote) { apply(m); }\n\
                   fn apply(m: SignedVote) { use_it(m.payload); }";
        let w = ws(vec![pf("core", "a", src)]);
        let mut f = Vec::new();
        pass_s1(&w, &LintConfig::default(), &mut f);
        // `apply` reads unverified; `entry` never touches payload itself.
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`apply`"));
    }

    #[test]
    fn p2_flags_raw_thresholds_and_spares_helpers() {
        let src = "fn quorum(&self) -> bool { self.votes.len() as u32 > self.cluster.f() }\n\
                   fn ok(&self) -> bool { reply_quorum_reached(self.cluster.f(), self.votes.len()) }";
        let w = ws(vec![pf("xpaxos", "a", src)]);
        let mut f = Vec::new();
        pass_p2(&w, &LintConfig::default(), &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn p2_matches_literal_arithmetic() {
        let src = "fn a(f: u32) -> u32 { f + 1 }\nfn b(f: u32) -> u32 { 2 * f + 1 }\n\
                   fn c(n: u32, f: u32) -> u32 { n - f }";
        let w = ws(vec![pf("core", "t", src)]);
        let mut f = Vec::new();
        pass_p2(&w, &LintConfig::default(), &mut f);
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "{f:?}");
    }

    #[test]
    fn p2_exempts_thresholds_module_and_tests() {
        let src = "fn q(n: u32, f: u32) -> u32 { n - f }";
        let mut file = pf("types", "x", src);
        file.meta.path = "crates/types/src/thresholds.rs".into();
        let w = ws(vec![file]);
        let mut f = Vec::new();
        pass_p2(&w, &LintConfig::default(), &mut f);
        assert!(f.is_empty());
        let test_src = "#[cfg(test)]\nmod t { fn q(n: u32, f: u32) -> u32 { n - f } }";
        let w = ws(vec![pf("types", "y", test_src)]);
        let mut f = Vec::new();
        pass_p2(&w, &LintConfig::default(), &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a1_flags_unmatched_allow() {
        let file = pf("core", "a", "// lint: allow(S2, old reason)\nfn fine() {}");
        let w = ws(vec![file]);
        let mut out = Vec::new();
        pass_a1(&w, &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "A1");
    }
}
