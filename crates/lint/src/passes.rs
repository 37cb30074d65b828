//! The protocol-aware workspace passes. They run over the whole
//! [`Workspace`] (symbol table + call graph):
//!
//! * **S1 verify-before-use** (dataflow upgrade): a fn reading a signed
//!   payload is clean if a verify-family call dominates the read in its
//!   own body, *or* every non-test call site is dominated by one in the
//!   caller (recursively, depth-limited). What is left is a genuine
//!   trust-boundary hole — or a documented boundary via `allow(S1, …)`.
//! * **A1 stale-allow**: an `allow` annotation that matches no finding
//!   is noise that hides real suppressions — remove it. A1 is itself
//!   not suppressible.

use std::collections::BTreeSet;

use crate::config::LintConfig;
use crate::lexer::{Tok, Token};
use crate::model::Workspace;
use crate::report::Finding;

fn is_verify_ident(cfg: &LintConfig, s: &str) -> bool {
    cfg.verify_prefixes.iter().any(|p| s.starts_with(p.as_str()))
}

// ----------------------------------------------------------------------
// S1 — verify before use (interprocedural)
// ----------------------------------------------------------------------

/// S1 over every non-test fn of the crates it applies to.
pub fn pass_s1(ws: &Workspace, cfg: &LintConfig, findings: &mut Vec<Finding>) {
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
    fn a1_flags_unmatched_allow() {
        let file = pf("core", "a", "// lint: allow(S2, old reason)\nfn fine() {}");
        let w = ws(vec![file]);
        let mut out = Vec::new();
        pass_a1(&w, &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "A1");
    }
}
