//! A minimal Rust lexer: just enough token structure for line-accurate,
//! comment-aware pattern matching.
//!
//! The workspace is offline (no `syn`), so the lints run on a token
//! stream, not an AST. The lexer's only obligations are the ones a
//! token-level analysis cannot fake:
//!
//! * string/char literals must not leak their contents as identifiers
//!   (`"unwrap()"` in a message is not a call);
//! * comments must be skipped for code matching but *kept* so the
//!   suppression pass can read `// lint: allow(...)` annotations;
//! * every token carries its 1-based source line for reporting.

/// A lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`::` is two `Punct(':')`).
    Punct(char),
    /// A string/char/number literal, carrying its raw source text (the
    /// passes ignore the contents).
    Literal(String),
    /// A line comment's text (without the leading `//`), including doc
    /// comments. Block comments are folded into this too.
    Comment(String),
}

/// A token plus its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// Lexes `src` into a token stream. Unterminated constructs simply end at
/// EOF — the linter must degrade gracefully on code rustc would reject.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let n = b.len();
    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }
    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (incl. /// and //!).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            i += 2;
            while i < n && b[i] != '\n' {
                text.push(b[i]);
                i += 1;
            }
            out.push(Token {
                tok: Tok::Comment(text),
                line: start_line,
            });
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start_line = line;
            let mut depth = 1;
            let mut text = String::new();
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                } else {
                    text.push(b[i]);
                    bump!();
                }
            }
            out.push(Token {
                tok: Tok::Comment(text),
                line: start_line,
            });
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br##"..."## etc.
        if (c == 'r' || c == 'b') && raw_string_start(&b, i) {
            let start_line = line;
            let lit_start = i;
            // Skip the b/r prefix.
            while i < n && (b[i] == 'b' || b[i] == 'r') {
                i += 1;
            }
            let mut hashes = 0;
            while i < n && b[i] == '#' {
                hashes += 1;
                i += 1;
            }
            if i < n && b[i] == '"' {
                bump!(); // opening quote
                loop {
                    if i >= n {
                        break;
                    }
                    if b[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if i + 1 + k >= n || b[i + 1 + k] != '#' {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break;
                        }
                    }
                    bump!();
                }
            }
            out.push(Token {
                tok: Tok::Literal(b[lit_start..i].iter().collect()),
                line: start_line,
            });
            continue;
        }
        // Plain (or byte) string literal.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            let lit_start = i;
            if c == 'b' {
                i += 1;
            }
            bump!(); // opening quote
            while i < n && b[i] != '"' {
                if b[i] == '\\' && i + 1 < n {
                    bump!();
                }
                bump!();
            }
            if i < n {
                i += 1; // closing quote
            }
            out.push(Token {
                tok: Tok::Literal(b[lit_start..i].iter().collect()),
                line: start_line,
            });
            continue;
        }
        // Char literal vs lifetime: 'x' is a literal; 'a (not followed by
        // a closing quote) is a lifetime and lexes as punct + ident.
        if c == '\'' {
            let is_lifetime = i + 1 < n
                && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                && !(i + 2 < n && b[i + 2] == '\'');
            if is_lifetime {
                i += 1; // swallow the quote; the ident lexes next round
                continue;
            }
            let start_line = line;
            let lit_start = i;
            i += 1;
            while i < n && b[i] != '\'' {
                if b[i] == '\\' && i + 1 < n {
                    bump!();
                }
                bump!();
            }
            if i < n {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Literal(b[lit_start..i].iter().collect()),
                line: start_line,
            });
            continue;
        }
        // Number literal (digits, underscores, type suffixes, hex, floats).
        if c.is_ascii_digit() {
            let start_line = line;
            let lit_start = i;
            while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_' || b[i] == '.') {
                // `0..10` — stop before a range operator.
                if b[i] == '.' && i + 1 < n && b[i + 1] == '.' {
                    break;
                }
                i += 1;
            }
            out.push(Token {
                tok: Tok::Literal(b[lit_start..i].iter().collect()),
                line: start_line,
            });
            continue;
        }
        // Identifier / keyword (incl. r#ident raw identifiers).
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut s = String::new();
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                s.push(b[i]);
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(s),
                line: start_line,
            });
            continue;
        }
        // Everything else: single punctuation char.
        out.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        bump!();
    }
    out
}

/// Whether position `i` starts a raw-string prefix (`r"`, `r#`, `br"`,
/// `rb` is not a thing; `b` alone is handled by the byte-string branch).
fn raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    let n = b.len();
    if j < n && b[j] == 'b' {
        j += 1;
    }
    if j >= n || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < n && b[j] == '#' {
        j += 1;
    }
    j < n && b[j] == '"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_do_not_leak_idents() {
        assert_eq!(idents(r#"let x = "unwrap() HashMap";"#), vec!["let", "x"]);
        assert_eq!(idents(r##"let y = r#"panic!"#;"##), vec!["let", "y"]);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let toks = lex("let a = 1;\n// lint: allow(S2, reason)\nlet b = 2;");
        let c = toks
            .iter()
            .find(|t| matches!(t.tok, Tok::Comment(_)))
            .unwrap();
        assert_eq!(c.line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        assert_eq!(idents("fn f<'a>(x: &'a str) {}"), vec!["fn", "f", "a", "x", "a", "str"]);
        let lit_count = lex("let c = 'x';")
            .iter()
            .filter(|t| matches!(t.tok, Tok::Literal(_)))
            .count();
        assert_eq!(lit_count, 1);
    }

    #[test]
    fn literals_carry_source_text() {
        let texts: Vec<String> = lex("let q = 2 * f + 1; let s = \"x\";")
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Literal(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["2", "1", "\"x\""]);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("/* outer /* inner */ still */ fn f() {}"), vec!["fn", "f"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
