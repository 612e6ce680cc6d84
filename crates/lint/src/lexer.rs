//! A small hand-rolled Rust lexer.
//!
//! The linter never needs a full parse of Rust: every rule in this crate is a
//! statement about token sequences ("`SeqCst` outside test code",
//! "`.lock()` while another guard is live"). What it *does* need is
//! to be precise about the places where naive substring scans lie — string
//! literals, comments (including nested block comments and raw strings), and
//! `#[cfg(test)]` items. This lexer produces a flat token stream with
//! line/column positions and, after [`mark_test_code`], a per-token `in_test`
//! flag, which is all the rule engine consumes.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `unwrap`, `r#type`, ...).
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Integer or float literal, including suffixes (`1_000u64`, `2.5`).
    Number,
    /// String, raw-string, byte-string, or char literal, quotes included.
    Str,
    /// Line or block comment, markers included (`// ...`, `/* ... */`).
    Comment,
    /// A single punctuation character (`.`, `(`, `{`, `!`, `;`, ...).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// The token text, exactly as it appears in the source.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
    /// True once [`mark_test_code`] decides this token is inside
    /// `#[cfg(test)]` / `#[test]` code. Rules skip such tokens.
    pub in_test: bool,
}

impl Token {
    /// Exact kind-and-text match.
    pub fn is(&self, kind: TokenKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    /// Is this the punctuation `text`?
    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokenKind::Punct, text)
    }

    /// Is this the identifier `text`?
    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokenKind::Ident, text)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    /// Advance one byte, maintaining line/col. Multi-byte UTF-8 continuation
    /// bytes do not advance the column so positions stay character-based.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(b)
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) {
        while let Some(b) = self.peek() {
            if !pred(b) {
                break;
            }
            self.bump();
        }
    }

    fn slice(&self, from: usize) -> String {
        String::from_utf8_lossy(&self.src[from..self.pos]).into_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex a whole source file into tokens. Whitespace is dropped; comments are
/// kept (suppressions and `// SAFETY:` live in them). The lexer never fails:
/// an unexpected byte becomes a one-byte `Punct` token.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer::new(src);
    let mut tokens = Vec::new();
    while let Some(b) = lx.peek() {
        let (line, col, start) = (lx.line, lx.col, lx.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                lx.bump();
                continue;
            }
            b'/' if lx.peek_at(1) == Some(b'/') => {
                lx.take_while(|c| c != b'\n');
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'/' if lx.peek_at(1) == Some(b'*') => {
                lx.bump();
                lx.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match lx.peek() {
                        Some(b'/') if lx.peek_at(1) == Some(b'*') => {
                            lx.bump();
                            lx.bump();
                            depth += 1;
                        }
                        Some(b'*') if lx.peek_at(1) == Some(b'/') => {
                            lx.bump();
                            lx.bump();
                            depth -= 1;
                        }
                        Some(_) => {
                            lx.bump();
                        }
                        None => break,
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'"' => {
                lex_string(&mut lx);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'b' if lx.peek_at(1) == Some(b'"') => {
                lx.bump();
                lex_string(&mut lx);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'r' | b'b' if is_raw_string_start(lx.src, lx.pos) => {
                lex_raw_string(&mut lx);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'r' if lx.peek_at(1) == Some(b'#') && lx.peek_at(2).is_some_and(is_ident_start) => {
                // Raw identifier `r#type`: strip the prefix so rules compare
                // against the plain name.
                lx.bump();
                lx.bump();
                let ident_start = lx.pos;
                lx.take_while(is_ident_continue);
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: lx.slice(ident_start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident not
                // closed by another `'` (so `'a'` is a char, `'a` a lifetime).
                if lx.peek_at(1).is_some_and(is_ident_start) && !is_char_literal(lx.src, lx.pos) {
                    lx.bump();
                    lx.take_while(is_ident_continue);
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: lx.slice(start),
                        line,
                        col,
                        in_test: false,
                    });
                } else {
                    lx.bump();
                    loop {
                        match lx.peek() {
                            Some(b'\\') => {
                                lx.bump();
                                lx.bump();
                            }
                            Some(b'\'') => {
                                lx.bump();
                                break;
                            }
                            Some(_) => {
                                lx.bump();
                            }
                            None => break,
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: lx.slice(start),
                        line,
                        col,
                        in_test: false,
                    });
                }
            }
            b if b.is_ascii_digit() => {
                lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.');
                // A trailing `.` belongs to a following method call or range
                // (`0.lock()`, `0..n`), not to the number.
                while lx.pos > start && lx.src[lx.pos - 1] == b'.' {
                    lx.pos -= 1;
                    lx.col -= 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            b if is_ident_start(b) => {
                lx.take_while(is_ident_continue);
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
            _ => {
                lx.bump();
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: lx.slice(start),
                    line,
                    col,
                    in_test: false,
                });
            }
        }
    }
    tokens
}

/// Consume a `"..."` string starting at the opening quote.
fn lex_string(lx: &mut Lexer<'_>) {
    lx.bump(); // opening quote
    loop {
        match lx.peek() {
            Some(b'\\') => {
                lx.bump();
                lx.bump();
            }
            Some(b'"') => {
                lx.bump();
                break;
            }
            Some(_) => {
                lx.bump();
            }
            None => break,
        }
    }
}

/// Is `src[pos..]` the start of a raw (byte) string: `r"`, `r#"`, `br"`, ...?
fn is_raw_string_start(src: &[u8], pos: usize) -> bool {
    let mut i = pos;
    if src.get(i) == Some(&b'b') {
        i += 1;
    }
    if src.get(i) != Some(&b'r') {
        return false;
    }
    i += 1;
    while src.get(i) == Some(&b'#') {
        i += 1;
    }
    src.get(i) == Some(&b'"')
}

/// Consume `r#"..."#`-style raw strings (any number of `#`, optional `b`).
fn lex_raw_string(lx: &mut Lexer<'_>) {
    if lx.peek() == Some(b'b') {
        lx.bump();
    }
    lx.bump(); // `r`
    let mut hashes = 0usize;
    while lx.peek() == Some(b'#') {
        lx.bump();
        hashes += 1;
    }
    lx.bump(); // opening quote
    loop {
        match lx.peek() {
            Some(b'"') => {
                lx.bump();
                let mut matched = 0usize;
                while matched < hashes && lx.peek() == Some(b'#') {
                    lx.bump();
                    matched += 1;
                }
                if matched == hashes {
                    break;
                }
            }
            Some(_) => {
                lx.bump();
            }
            None => break,
        }
    }
}

/// `'a'` (possibly `'\n'`) is a char literal; `'a` in `<'a>` is a lifetime.
/// Called with `pos` at the opening `'` when the next byte starts an ident.
fn is_char_literal(src: &[u8], pos: usize) -> bool {
    let mut i = pos + 1;
    while i < src.len() && is_ident_continue(src[i]) {
        i += 1;
    }
    src.get(i) == Some(&b'\'')
}

/// Mark every token that lives inside test-only code: items annotated
/// `#[cfg(test)]` or `#[test]`, and whole files carrying `#![cfg(test)]`.
///
/// The extent of an annotated item is the matching `}` of its first `{` (or
/// the first `;` at the same depth, for `#[cfg(test)] use ...;`). Attributes
/// stack: `#[cfg(test)] #[derive(..)] struct X { .. }` marks the struct.
pub fn mark_test_code(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_len) = test_attr_len(tokens, i) {
            let is_inner = tokens[i + 1].is_punct("!");
            if is_inner {
                // `#![cfg(test)]`: the rest of the file is test code.
                for t in tokens[i..].iter_mut() {
                    t.in_test = true;
                }
                return;
            }
            // Skip any further outer attributes between this one and the item.
            let mut j = i + attr_len;
            while j < tokens.len() && tokens[j].is_punct("#") {
                j += skip_attr(tokens, j);
            }
            let end = item_extent(tokens, j);
            for t in tokens[i..end].iter_mut() {
                t.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// If `tokens[i..]` starts a `#[cfg(test)]`, `#![cfg(test)]`, or `#[test]`
/// attribute, return its token length; else `None`.
fn test_attr_len(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct("#") {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.is_punct("!") {
        j += 1;
    }
    if !tokens.get(j)?.is_punct("[") {
        return None;
    }
    let body = j + 1;
    let is_test = match tokens.get(body) {
        Some(t) if t.is_ident("test") => tokens.get(body + 1).is_some_and(|t| t.is_punct("]")),
        Some(t) if t.is_ident("cfg") => {
            tokens.get(body + 1).is_some_and(|t| t.is_punct("("))
                && tokens.get(body + 2).is_some_and(|t| t.is_ident("test"))
                && tokens.get(body + 3).is_some_and(|t| t.is_punct(")"))
        }
        _ => false,
    };
    if !is_test {
        return None;
    }
    Some(skip_attr(tokens, i))
}

/// Token length of the attribute starting at `tokens[i]` (`#` or `#![`).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // past `#`
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1 - i;
            }
        }
        j += 1;
    }
    tokens.len() - i
}

/// End index (exclusive) of the item starting at `tokens[start]`: the first
/// `;` at brace depth 0, or the `}` matching the first `{` encountered.
fn item_extent(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    tokens.len()
}
