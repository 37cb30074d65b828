//! Item-level ("ast-lite") parsing over the lexed token stream.
//!
//! The analyzer does not need a full AST: the passes operate on *items*
//! (functions with their parameter/body token ranges) plus the
//! test-region mask. Everything is positional over a comment-stripped
//! token vector, so ranges stay cheap to slice and line-accurate for
//! reporting.

use crate::lexer::{lex, Tok, Token};

/// Where a source file sits in the workspace.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Workspace-relative path, `/`-separated (reported verbatim).
    pub path: String,
    /// Owning crate (directory name under `crates/`, `qsel-repro` for
    /// the root package, `examples` for example binaries).
    pub krate: String,
}

/// A parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range (exclusive of the parens) of the parameter list,
    /// indices into [`ParsedFile::code`].
    pub params: (usize, usize),
    /// Token range (exclusive of the braces) of the body, if the item
    /// has one (trait-method declarations do not).
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// A `// lint: allow(ID, reason)` annotation.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// The lint id the annotation names.
    pub lint: String,
    /// Line the comment starts on.
    pub line: u32,
    /// The recorded justification.
    pub reason: String,
}

/// One source file, lexed and item-parsed.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    /// Where the file sits in the workspace.
    pub meta: FileMeta,
    /// Comment-stripped token stream (all item ranges index into this).
    pub code: Vec<Token>,
    /// Token-index ranges covered by test items.
    pub test_mask: Vec<(usize, usize)>,
    /// Functions declared in the file (any nesting depth).
    pub fns: Vec<FnItem>,
    /// Allow annotations found in comments.
    pub suppressions: Vec<Suppression>,
}

impl ParsedFile {
    /// Lexes and parses `src`.
    pub fn parse(src: &str, meta: &FileMeta) -> ParsedFile {
        let toks = lex(src);
        let suppressions = collect_suppressions(&toks);
        let code: Vec<Token> = toks
            .into_iter()
            .filter(|t| !matches!(t.tok, Tok::Comment(_)))
            .collect();
        let test_mask = test_regions(&code);
        let fns = parse_fns(&code, &test_mask);
        ParsedFile {
            meta: meta.clone(),
            code,
            test_mask,
            fns,
            suppressions,
        }
    }

    /// Whether token index `idx` falls in a test region.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_mask.iter().any(|(a, b)| idx >= *a && idx < *b)
    }
}

/// Parses `lint: allow(ID, reason)` annotations out of comments. The
/// reason is mandatory in spirit (it is what makes the escape hatch an
/// audit trail); an omitted reason is recorded as `"(no reason given)"`.
///
/// Only a comment that *begins* with `lint:` is an annotation. Doc
/// comments lex with a leading `/` or `!` and prose mentions sit
/// mid-sentence, so documentation *about* the escape hatch (this
/// paragraph included) never registers as a suppression — which
/// matters doubly now that A1 audits every annotation against live
/// findings.
pub fn collect_suppressions(toks: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in toks {
        let Tok::Comment(text) = &t.tok else { continue };
        let Some(mut rest) = text.trim_start().strip_prefix("lint:") else {
            continue;
        };
        while let Some(ap) = rest.find("allow(") {
            rest = &rest[ap + 6..];
            let end = rest.find(')').unwrap_or(rest.len());
            let inner = &rest[..end];
            rest = &rest[end..];
            let (id, reason) = match inner.split_once(',') {
                Some((id, r)) => (id.trim(), r.trim()),
                None => (inner.trim(), ""),
            };
            if id.is_empty() {
                continue;
            }
            out.push(Suppression {
                lint: id.to_string(),
                line: t.line,
                reason: if reason.is_empty() {
                    "(no reason given)".to_string()
                } else {
                    reason.to_string()
                },
            });
        }
    }
    out
}

/// Token-index ranges (over the comment-stripped stream) covered by
/// `#[cfg(test)]` or `#[test]` items. Test code is exempt from every
/// pass.
pub fn test_regions(code: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_test_attr(code, i) {
            i += 1;
            continue;
        }
        // Skip this attribute and any further attributes.
        let mut j = skip_attr(code, i);
        while j < code.len() && code[j].tok == Tok::Punct('#') {
            j = skip_attr(code, j);
        }
        // The annotated item runs to its closing brace (or `;` for
        // brace-less items like `#[cfg(test)] use ...;`).
        let mut depth = 0usize;
        let mut entered = false;
        while j < code.len() {
            match code[j].tok {
                Tok::Punct('{') => {
                    depth += 1;
                    entered = true;
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        j += 1;
                        break;
                    }
                }
                Tok::Punct(';') if !entered => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        regions.push((i, j));
        i = j;
    }
    regions
}

/// Whether the attribute starting at `i` is `#[test]`, `#[cfg(test)]`,
/// or `#[cfg(all(test, ...))]`-shaped (any cfg mentioning `test`).
fn is_test_attr(code: &[Token], i: usize) -> bool {
    if code.get(i).map(|t| &t.tok) != Some(&Tok::Punct('#')) {
        return false;
    }
    if code.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
        return false;
    }
    match code.get(i + 2).map(|t| &t.tok) {
        Some(Tok::Ident(s)) if s == "test" => true,
        Some(Tok::Ident(s)) if s == "cfg" => {
            // Scan the attribute tokens for a `test` ident.
            let end = skip_attr(code, i);
            code[i..end]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"))
        }
        _ => false,
    }
}

/// Returns the index one past the `]` closing the attribute at `i`
/// (which must point at `#`).
fn skip_attr(code: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at '['
    let mut depth = 0usize;
    while j < code.len() {
        match code[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index of the token closing the group opened at `open_idx`.
pub fn matching_close(code: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open_idx) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

pub(crate) fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    match code.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(code: &[Token], i: usize, c: char) -> bool {
    code.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c))
}

/// Extracts every `fn` item (at any nesting depth). Function-pointer
/// types (`fn(...)` with no name) are skipped.
fn parse_fns(code: &[Token], mask: &[(usize, usize)]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if ident_at(code, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(code, i + 1) else {
            i += 1; // `fn(` — a function-pointer type
            continue;
        };
        let fn_line = code[i].line;
        let in_test = mask.iter().any(|(a, b)| i >= *a && i < *b);
        // Parameter list: the first `(` after the name (skips generics;
        // `<` inside generics never contains a bare `(` before the list).
        let Some(lp) = (i + 2..code.len()).find(|&j| punct_at(code, j, '(')) else {
            i += 1;
            continue;
        };
        let Some(rp) = matching_close(code, lp, '(', ')') else {
            i += 1;
            continue;
        };
        // Body: the next `{` before a `;` (trait declarations end at `;`).
        let mut j = rp + 1;
        let mut body = None;
        while j < code.len() {
            match code[j].tok {
                Tok::Punct(';') => break,
                Tok::Punct('{') => {
                    if let Some(close) = matching_close(code, j, '{', '}') {
                        body = Some((j + 1, close));
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        out.push(FnItem {
            name: name.to_string(),
            line: fn_line,
            params: (lp + 1, rp),
            body,
            in_test,
        });
        // Continue *inside* the body so nested fns are found too.
        i = body.map(|(s, _)| s).unwrap_or(j + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> FileMeta {
        FileMeta {
            path: "crates/x/src/a.rs".into(),
            krate: "x".into(),
        }
    }

    #[test]
    fn fns_with_bodies_and_nesting() {
        let src = "fn outer(a: u32) { fn inner() {} }\ntrait T { fn decl(&self); }";
        let p = ParsedFile::parse(src, &meta());
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "decl"]);
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[2].body.is_none());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = ParsedFile::parse("struct S { cb: fn(u32) -> u32 }", &meta());
        assert!(p.fns.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t { fn helper() {} }";
        let p = ParsedFile::parse(src, &meta());
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }
}
