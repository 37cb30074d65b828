//! The crate's one hand-rolled JSON reader and string escaper.
//!
//! One byte cursor serves every JSON artifact this crate reads back.
//! `verdict.json` ([`crate::verdict`]) uses the whitespace-tolerant
//! walkers [`Cursor::object`] / [`Cursor::array`] over objects, arrays,
//! strings, unsigned integers and booleans; a trace line
//! ([`crate::event`]) is one *flat* object read strictly — no whitespace,
//! values limited to unsigned integers, strings and arrays of unsigned
//! integers ([`Cursor::parse_flat_object`]). Every string the crate writes
//! goes through [`push_json_str`].

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// A value of a flat trace record — exactly the subset the trace writer
/// emits.
pub(crate) enum Val<'a> {
    U64(u64),
    Str(Cow<'a, str>),
    Arr(Vec<u32>),
}

/// One `"key":value` pair of a flat trace record, in input order.
pub(crate) type Member<'a> = (Cow<'a, str>, Val<'a>);

/// The first member named `key` (duplicates: the first wins).
pub(crate) fn member<'m, 'a>(
    members: &'m [Member<'a>],
    key: &str,
    line: usize,
) -> Result<&'m Val<'a>, String> {
    members
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("line {line}: missing field \"{key}\""))
}

/// A byte cursor over a JSON document.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// Whether the whole input has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    pub(crate) fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    pub(crate) fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("number overflow at byte {start}"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digit at byte {start}"));
        }
        Ok(v)
    }

    pub(crate) fn parse_bool(&mut self) -> Result<bool, String> {
        for (lit, val) in [("true", true), ("false", false)] {
            if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(val);
            }
        }
        Err(format!("expected bool at byte {}", self.pos))
    }

    /// Parses a string literal. The result borrows from the input unless
    /// the literal contains an escape. Quotes and backslashes are ASCII, so
    /// every span cut at one sits on a character boundary.
    pub(crate) fn parse_string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos - 1]);
                    match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = self.bump().ok_or("truncated \\u escape")?;
                                code = code * 16
                                    + (d as char)
                                        .to_digit(16)
                                        .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                            }
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                        }
                    }
                    run = self.pos;
                }
                Some(_) => {}
            }
        }
    }

    /// Walks a bracketed sequence, calling `each` with the cursor on each
    /// item. Any whitespace layout is accepted and commas are optional.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        loop {
            self.skip_ws();
            if self.peek() == Some(close) {
                self.bump();
                return Ok(());
            }
            each(self)?;
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.bump();
            }
        }
    }

    /// Walks `[ <element>, … ]`, calling `each` with the cursor on each
    /// element.
    pub(crate) fn array(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'[', b']', each)
    }

    /// Walks `{ "key": <value>, … }`, calling `each` with the cursor on
    /// each value.
    pub(crate) fn object(
        &mut self,
        mut each: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'{', b'}', |cur| {
            let key = cur.parse_string()?;
            cur.skip_ws();
            cur.expect(b':')?;
            cur.skip_ws();
            each(key, cur)
        })
    }

    fn parse_flat_value(&mut self) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    let v = self.parse_u64()?;
                    arr.push(
                        u32::try_from(v).map_err(|_| "array element exceeds u32".to_string())?,
                    );
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Val::Arr(arr)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']' in array, got {:?}",
                                other.map(|b| b as char)
                            ));
                        }
                    }
                }
            }
            Some(b'0'..=b'9') => Ok(Val::U64(self.parse_u64()?)),
            other => Err(format!(
                "unexpected value start {:?}",
                other.map(|b| b as char)
            )),
        }
    }

    /// Reads one flat trace record strictly (no whitespace anywhere),
    /// appending its members to `members` — the caller's scratch vector,
    /// reused from line to line.
    pub(crate) fn parse_flat_object(
        &mut self,
        members: &mut Vec<Member<'a>>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_flat_value()?;
            members.push((key, val));
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, got {:?}",
                        other.map(|b| b as char)
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_borrow_unless_escaped() {
        let plain = Cursor::new("\"héllo ✓\"").parse_string().unwrap();
        assert!(matches!(plain, Cow::Borrowed("héllo ✓")));
        let escaped = Cursor::new("\"é\\n✓\\u0041\\\\\"").parse_string().unwrap();
        assert!(matches!(&escaped, Cow::Owned(s) if s == "é\n✓A\\"));
    }
}
