//! Workspace model: per-crate symbol table and interprocedural call graph.
//!
//! Resolution is name-based (the analyzer has no type information): a
//! call `foo(...)` / `x.foo(...)` / `path::foo(...)` resolves to every
//! non-test function named `foo` in the caller's crate, or — only if the
//! caller's crate defines none — in the crates it declares as
//! dependencies. That over-approximates (two unrelated methods named
//! `len` alias) but never misses an edge inside the workspace, which is
//! the direction the verify-before-use proof needs.

use std::collections::BTreeMap;

use crate::lexer::Tok;
use crate::parser::{FnItem, ParsedFile};

/// A call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (last path segment before the `(`).
    pub name: String,
    /// Token index of the callee ident in the file's `code`.
    pub idx: usize,
}

/// A function in the workspace: its parsed item plus extracted call sites.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index of the owning file in [`Workspace::files`].
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
    /// Owning crate (directory name, as in [`FileMeta::krate`]).
    ///
    /// [`FileMeta::krate`]: crate::parser::FileMeta::krate
    pub krate: String,
    /// Calls made from the body, in token order.
    pub calls: Vec<CallSite>,
}

/// The parsed workspace: files, functions, and the reverse call graph.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All parsed files, in scan order.
    pub files: Vec<ParsedFile>,
    /// Crate dependency map: crate dir name → dep crate dir names.
    pub deps: BTreeMap<String, Vec<String>>,
    /// All functions, flattened across files.
    pub fns: Vec<FnDef>,
    /// Function name → indices into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Reverse edges: callee fn id → (caller fn id, call-site token idx).
    callers: Vec<Vec<(usize, usize)>>,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "in", "loop", "return", "let", "fn", "move", "as",
    "break", "continue", "where", "impl", "dyn",
];

impl Workspace {
    /// Builds the model: extracts call sites, indexes functions by name,
    /// and resolves each call to its callees.
    pub fn build(files: Vec<ParsedFile>, deps: BTreeMap<String, Vec<String>>) -> Workspace {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for item in &file.fns {
                let calls = item
                    .body
                    .map(|(s, e)| extract_calls(file, s, e))
                    .unwrap_or_default();
                fns.push(FnDef {
                    file: fi,
                    item: item.clone(),
                    krate: file.meta.krate.clone(),
                    calls,
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.clone()).or_default().push(id);
        }
        let mut ws = Workspace {
            files,
            deps,
            fns,
            by_name,
            callers: Vec::new(),
        };
        let mut callers = vec![Vec::new(); ws.fns.len()];
        for (caller, def) in ws.fns.iter().enumerate() {
            if def.item.in_test {
                continue; // test code never vouches
            }
            for call in &def.calls {
                for callee in ws.resolve(&call.name, &def.krate) {
                    callers[callee].push((caller, call.idx));
                }
            }
        }
        ws.callers = callers;
        ws
    }

    /// Resolves a callee name from `from_crate`: same-crate candidates
    /// win; otherwise candidates in declared dependency crates. Test
    /// functions are never candidates.
    pub fn resolve(&self, name: &str, from_crate: &str) -> Vec<usize> {
        let Some(cands) = self.by_name.get(name) else {
            return Vec::new();
        };
        let live = |id: &&usize| !self.fns[**id].item.in_test;
        let same: Vec<usize> = cands
            .iter()
            .filter(live)
            .filter(|id| self.fns[**id].krate == from_crate)
            .copied()
            .collect();
        if !same.is_empty() {
            return same;
        }
        let empty = Vec::new();
        let deps = self.deps.get(from_crate).unwrap_or(&empty);
        cands
            .iter()
            .filter(live)
            .filter(|id| deps.iter().any(|d| *d == self.fns[**id].krate))
            .copied()
            .collect()
    }

    /// Call sites targeting `id`: `(caller fn id, token idx of the call
    /// in the caller file's code)`.
    pub fn call_sites_of(&self, id: usize) -> &[(usize, usize)] {
        &self.callers[id]
    }

    /// The file owning function `id`.
    pub fn file_of(&self, id: usize) -> &ParsedFile {
        &self.files[self.fns[id].file]
    }
}

/// Extracts call sites from the body token range `[start, end)` of
/// `file`. A call is `ident (` where the ident is not a keyword and not
/// a macro invocation (`ident !`), and not the name in a nested `fn`
/// definition.
fn extract_calls(file: &ParsedFile, start: usize, end: usize) -> Vec<CallSite> {
    let code = &file.code;
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let Tok::Ident(name) = &code[i].tok else {
            continue;
        };
        if code.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        if i > 0 && matches!(&code[i - 1].tok, Tok::Ident(k) if k == "fn") {
            continue; // nested definition, not a call
        }
        out.push(CallSite {
            name: name.clone(),
            idx: i,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::FileMeta;

    fn file(krate: &str, name: &str, src: &str) -> ParsedFile {
        ParsedFile::parse(
            src,
            &FileMeta {
                path: format!("crates/{krate}/src/{name}.rs"),
                krate: krate.to_string(),
            },
        )
    }

    /// The id of the fn `name` in `krate` (test fns included).
    fn id(ws: &Workspace, krate: &str, name: &str) -> usize {
        (0..ws.fns.len())
            .find(|&i| ws.fns[i].krate == krate && ws.fns[i].item.name == name)
            .unwrap()
    }

    #[test]
    fn resolves_same_crate_before_deps() {
        let files = vec![
            file("a", "x", "fn top() { helper(); }\nfn helper() {}"),
            file("b", "y", "fn helper() {}"),
        ];
        let deps = BTreeMap::from([("a".to_string(), vec!["b".to_string()])]);
        let ws = Workspace::build(files, deps);
        let top = id(&ws, "a", "top");
        assert_eq!(ws.call_sites_of(id(&ws, "a", "helper"))[0].0, top);
        assert!(ws.call_sites_of(id(&ws, "b", "helper")).is_empty());
    }

    #[test]
    fn cross_crate_edges_follow_declared_deps_only() {
        let files = vec![
            file("a", "x", "fn top() { remote(); }"),
            file("b", "y", "fn remote() {}"),
            file("c", "z", "fn remote() {}"),
        ];
        let deps = BTreeMap::from([("a".to_string(), vec!["b".to_string()])]);
        let ws = Workspace::build(files, deps);
        assert_eq!(ws.call_sites_of(id(&ws, "b", "remote")).len(), 1);
        assert!(ws.call_sites_of(id(&ws, "c", "remote")).is_empty());
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let files = vec![file(
            "a",
            "x",
            "fn top() { if (1 > 0) { println!(\"x\"); } match (1) { _ => {} } }",
        )];
        let ws = Workspace::build(files, BTreeMap::new());
        assert!(ws.fns[id(&ws, "a", "top")].calls.is_empty());
    }

    #[test]
    fn test_fns_are_invisible_to_resolution() {
        let files = vec![file(
            "a",
            "x",
            "fn top() { helper(); }\n#[cfg(test)]\nmod t { fn helper() {} }",
        )];
        let ws = Workspace::build(files, BTreeMap::new());
        assert!(ws.call_sites_of(id(&ws, "a", "helper")).is_empty());
    }
}
