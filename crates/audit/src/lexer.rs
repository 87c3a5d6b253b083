//! A hand-rolled Rust token scanner: enough lexical fidelity for the
//! repo-specific lints, with no `syn` dependency.
//!
//! The scanner strips comments, string/char literals and raw strings (so a
//! lint pattern mentioned inside a string never fires), distinguishes char
//! literals from lifetimes, keeps per-token line numbers, marks tokens
//! inside `#[cfg(test)] mod` regions, and collects the inline
//! `// dcb-audit: allow(<lint>, reason)` suppression directives.

/// One lexical token with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// The token's classification and text.
    pub kind: TokenKind,
    /// Whether the token sits inside a `#[cfg(test)] mod` region.
    pub in_test: bool,
}

/// The token classes the lints care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A numeric literal (verbatim, underscores included).
    Number(String),
    /// An operator or punctuation, multi-character where it matters
    /// (`==`, `!=`, `::`, `->`, `=>`, `<=`, `>=`).
    Op(String),
    /// A lifetime such as `'a` (distinct from char literals, which are
    /// stripped).
    Lifetime(String),
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is the operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(self, TokenKind::Op(s) if s == op)
    }

    /// Whether this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s == name)
    }

    /// Whether this is a floating-point literal (`1.0`, `1e-9`, `2f64`).
    pub fn is_float(&self) -> bool {
        match self {
            TokenKind::Number(s) => {
                s.contains('.') || s.contains("f3") || s.contains("f6") || {
                    // `1e9` exponent form without a dot (hex literals have
                    // no exponent in this sense; `0x1e9` must not count).
                    !s.starts_with("0x")
                        && !s.starts_with("0b")
                        && !s.starts_with("0o")
                        && (s.contains('e') || s.contains('E'))
                }
            }
            _ => false,
        }
    }
}

/// An inline suppression: `// dcb-audit: allow(<lint>, reason)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// Line the directive comment sits on.
    pub line: u32,
    /// Last line the directive covers. The lexer initializes this to
    /// `line + 1` (the classic "directive above the statement" reach);
    /// the parser widens it to the end of the following item when the
    /// directive sits directly above a `fn`/`struct`/`impl`.
    pub end_line: u32,
    /// The lint it suppresses.
    pub lint: String,
    /// The stated reason (required; empty reasons are rejected upstream).
    pub reason: String,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct ScannedFile {
    /// Token stream, comments and string contents removed.
    pub tokens: Vec<Token>,
    /// Suppressions, keyed by the line they apply from.
    pub allows: Vec<AllowDirective>,
}

impl ScannedFile {
    /// Whether `lint` is suppressed on `line`: a directive covers its own
    /// line through `end_line` — one line below it by default, or the
    /// whole following item once the parser has widened the range.
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.lint == lint && a.line <= line && line <= a.end_line)
    }
}

/// Parses a `dcb-audit: allow(lint, reason)` directive out of a comment
/// body, if present.
fn parse_allow(comment: &str, line: u32) -> Option<AllowDirective> {
    let rest = comment.split("dcb-audit:").nth(1)?;
    let rest = rest.trim_start();
    let args = rest.strip_prefix("allow(")?;
    let close = args.find(')')?;
    let inner = &args[..close];
    let (lint, reason) = match inner.split_once(',') {
        Some((l, r)) => (l.trim(), r.trim()),
        None => (inner.trim(), ""),
    };
    if lint.is_empty() {
        return None;
    }
    Some(AllowDirective {
        line,
        end_line: line + 1,
        lint: lint.to_owned(),
        reason: reason.to_owned(),
    })
}

/// Skips a cooked (escaped) string literal whose opening quote sits at
/// `open`; returns the index just past the closing quote (or the end of
/// input for an unterminated literal).
fn skip_cooked_string(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    i.min(bytes.len())
}

/// Skips a raw string body. `at` points at the first `#` (or the opening
/// quote, for zero hashes) after the `r`/`br` prefix. Returns the index
/// just past the closing delimiter, or `None` if this is not actually a
/// raw-string start (e.g. `r#raw_ident`).
fn skip_raw_string(bytes: &[u8], at: usize) -> Option<usize> {
    let mut j = at;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(bytes.len())
}

/// Skips a char (or byte-char) literal whose opening quote sits at `open`;
/// returns the index just past the closing quote. Handles escapes
/// (`'\n'`, `'\u{1F600}'`) and multi-byte UTF-8 scalars (`'λ'`), which a
/// fixed two-byte skip would leave mid-literal.
fn skip_char_literal(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    if bytes.get(i) == Some(&b'\\') {
        i += 2; // backslash + escape selector
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1; // \u{...} payloads
        }
        return (i + 1).min(bytes.len());
    }
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1; // multi-byte scalars span several bytes
    }
    (i + 1).min(bytes.len())
}

/// Scans `source`, producing the token stream and suppression directives.
#[allow(clippy::too_many_lines)]
pub fn scan(source: &str) -> ScannedFile {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let bump_lines = |text: &[u8]| -> u32 { text.iter().filter(|&&b| b == b'\n').count() as u32 };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment (incl. doc comments): scan for directives.
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| i + p);
                if let Ok(text) = std::str::from_utf8(&bytes[i..end]) {
                    if let Some(directive) = parse_allow(text, line) {
                        allows.push(directive);
                    }
                }
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, nestable.
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if let Ok(text) = std::str::from_utf8(&bytes[start..i]) {
                    if let Some(directive) = parse_allow(text, line) {
                        allows.push(directive);
                    }
                }
                line += bump_lines(&bytes[start..i]);
            }
            b'"' => {
                // String literal: skip, honoring escapes.
                let start = i;
                i = skip_cooked_string(bytes, i);
                line += bump_lines(&bytes[start..i]);
            }
            b'b' if matches!(bytes.get(i + 1), Some(&b'"')) => {
                // Byte string b"..." — same escape rules as cooked strings.
                let start = i;
                i = skip_cooked_string(bytes, i + 1);
                line += bump_lines(&bytes[start..i]);
            }
            b'b' if bytes.get(i + 1) == Some(&b'r')
                && matches!(bytes.get(i + 2), Some(&b'"') | Some(&b'#')) =>
            {
                // Byte raw string br"..." / br#"..."#. Without this arm the
                // `br` prefix lexes as an identifier and the body is skipped
                // under cooked-string escape rules, so a trailing backslash
                // inside the raw body swallows the closing quote and
                // corrupts everything after it.
                let start = i;
                if let Some(end) = skip_raw_string(bytes, i + 2) {
                    i = end;
                    line += bump_lines(&bytes[start..i]);
                } else {
                    let (tok, next) = lex_ident(bytes, i);
                    tokens.push(Token {
                        line,
                        kind: tok,
                        in_test: false,
                    });
                    i = next;
                }
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                // Byte char b'x' (incl. b'\\', b'\'').
                i = skip_char_literal(bytes, i + 1);
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string r"..." / r#"..."#.
                let start = i;
                if let Some(end) = skip_raw_string(bytes, i + 1) {
                    i = end;
                    line += bump_lines(&bytes[start..i]);
                } else {
                    // Just an identifier starting with `r` (e.g. `r#raw_id`
                    // fell through) — lex as an identifier below.
                    let (tok, next) = lex_ident(bytes, i);
                    tokens.push(Token {
                        line,
                        kind: tok,
                        in_test: false,
                    });
                    i = next;
                }
            }
            b'\'' => {
                // Char literal vs lifetime. A char literal closes with a
                // quote shortly after; a lifetime is `'` + ASCII ident with
                // no closing quote. Non-ASCII after the quote is always a
                // char literal ('λ'): lifetimes are ASCII-only, and the old
                // two-byte skip would strand the scanner mid-scalar.
                let next = bytes.get(i + 1).copied();
                let is_char = match next {
                    Some(b'\\') => true,
                    Some(c) if c >= 0x80 => true,
                    Some(c) if c != b'\'' => bytes.get(i + 2) == Some(&b'\''),
                    _ => true,
                };
                if is_char {
                    i = skip_char_literal(bytes, i);
                } else {
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric())
                    {
                        j += 1;
                    }
                    let name = String::from_utf8_lossy(&bytes[start..j]).into_owned();
                    tokens.push(Token {
                        line,
                        kind: TokenKind::Lifetime(name),
                        in_test: false,
                    });
                    i = j;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let (tok, next) = lex_ident(bytes, i);
                tokens.push(Token {
                    line,
                    kind: tok,
                    in_test: false,
                });
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(bytes, i);
                tokens.push(Token {
                    line,
                    kind: tok,
                    in_test: false,
                });
                i = next;
            }
            _ => {
                let two = if i + 1 < bytes.len() {
                    &bytes[i..i + 2]
                } else {
                    &bytes[i..i + 1]
                };
                let multi = matches!(
                    two,
                    b"==" | b"!=" | b"::" | b"->" | b"=>" | b"<=" | b">=" | b"&&" | b"||"
                );
                let len = if multi { 2 } else { 1 };
                let text = String::from_utf8_lossy(&bytes[i..i + len]).into_owned();
                tokens.push(Token {
                    line,
                    kind: TokenKind::Op(text),
                    in_test: false,
                });
                i += len;
            }
        }
    }

    mark_test_regions(&mut tokens);
    ScannedFile { tokens, allows }
}

fn lex_ident(bytes: &[u8], start: usize) -> (TokenKind, usize) {
    let mut j = start;
    while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
    (TokenKind::Ident(text), j)
}

fn lex_number(bytes: &[u8], start: usize) -> (TokenKind, usize) {
    let mut j = start;
    let radix_prefix = bytes.get(start) == Some(&b'0')
        && matches!(
            bytes.get(start + 1),
            Some(&b'x') | Some(&b'o') | Some(&b'b')
        );
    if radix_prefix {
        j += 2;
        while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
            j += 1;
        }
        let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
        return (TokenKind::Number(text), j);
    }
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
        j += 1;
    }
    // Fraction — but `1..n` is a range, and `1.method()` is a method call.
    if bytes.get(j) == Some(&b'.') && bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
        j += 1;
        while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
            j += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(j), Some(&b'e') | Some(&b'E')) {
        let sign = usize::from(matches!(bytes.get(j + 1), Some(&b'+') | Some(&b'-')));
        if bytes.get(j + 1 + sign).is_some_and(u8::is_ascii_digit) {
            j += 1 + sign;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    // Type suffix (f64, u32, ...).
    while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
    (TokenKind::Number(text), j)
}

/// Marks tokens inside `#[cfg(test)] mod ... { ... }` regions. Attributes
/// between the cfg and the `mod` keyword are tolerated.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut idx = 0usize;
    while idx < tokens.len() {
        if is_cfg_test_at(tokens, idx) {
            // Skip to the token after `]`.
            let mut j = idx + 7;
            // Tolerate further attributes before the item.
            while j < tokens.len() && tokens[j].kind.is_op("#") {
                j += 1; // '#'
                if j < tokens.len() && tokens[j].kind.is_op("[") {
                    let mut depth = 0i32;
                    while j < tokens.len() {
                        if tokens[j].kind.is_op("[") {
                            depth += 1;
                        } else if tokens[j].kind.is_op("]") {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
            // `pub`? `mod`?
            while j < tokens.len() && tokens[j].kind.is_ident("pub") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind.is_ident("mod") {
                // Find the opening brace, then mark to its match.
                while j < tokens.len() && !tokens[j].kind.is_op("{") {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < tokens.len() {
                    if tokens[j].kind.is_op("{") {
                        depth += 1;
                    } else if tokens[j].kind.is_op("}") {
                        depth -= 1;
                    }
                    tokens[j].in_test = true;
                    j += 1;
                    if depth == 0 {
                        break;
                    }
                }
                idx = j;
                continue;
            }
        }
        idx += 1;
    }
}

/// Whether tokens at `idx` spell `# [ cfg ( test ) ]`.
fn is_cfg_test_at(tokens: &[Token], idx: usize) -> bool {
    let pattern: [&dyn Fn(&TokenKind) -> bool; 7] = [
        &|k| k.is_op("#"),
        &|k| k.is_op("["),
        &|k| k.is_ident("cfg"),
        &|k| k.is_op("("),
        &|k| k.is_ident("test"),
        &|k| k.is_op(")"),
        &|k| k.is_op("]"),
    ];
    pattern
        .iter()
        .enumerate()
        .all(|(off, m)| tokens.get(idx + off).is_some_and(|t| m(&t.kind)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block */
            let s = "thread::spawn inside a string";
            let r = r#"panic! inside a raw string"#;
            let real = marker;
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"marker".to_owned()));
        assert!(!ids.contains(&"HashMap".to_owned()));
        assert!(!ids.contains(&"Instant".to_owned()));
        assert!(!ids.contains(&"spawn".to_owned()));
        assert!(!ids.contains(&"panic".to_owned()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let scanned = scan("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = scanned
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        // The char literal 'x' is stripped entirely.
        assert!(!idents("'x'").contains(&"x".to_owned()));
    }

    #[test]
    fn float_detection() {
        assert!(TokenKind::Number("1.0".into()).is_float());
        assert!(TokenKind::Number("1e-9".into()).is_float());
        assert!(TokenKind::Number("2f64".into()).is_float());
        assert!(!TokenKind::Number("42".into()).is_float());
        assert!(!TokenKind::Number("0x1e9".into()).is_float());
    }

    #[test]
    fn test_regions_are_marked() {
        let src = r"
            fn library_code() {}
            #[cfg(test)]
            mod tests {
                fn inner() { let x = 1.0 == y; }
            }
            fn more_library() {}
        ";
        let scanned = scan(src);
        let flag = |name: &str| {
            scanned
                .tokens
                .iter()
                .find(|t| t.kind.is_ident(name))
                .map(|t| t.in_test)
        };
        assert_eq!(flag("library_code"), Some(false));
        assert_eq!(flag("inner"), Some(true));
        assert_eq!(flag("more_library"), Some(false));
    }

    #[test]
    fn allow_directives_parse_with_reason() {
        let src = "// dcb-audit: allow(float-cmp, exact zero sentinel)\nlet x = a == 1.0;";
        let scanned = scan(src);
        assert_eq!(scanned.allows.len(), 1);
        assert_eq!(scanned.allows[0].lint, "float-cmp");
        assert_eq!(scanned.allows[0].reason, "exact zero sentinel");
        assert!(scanned.allowed("float-cmp", 1));
        assert!(scanned.allowed("float-cmp", 2));
        assert!(!scanned.allowed("float-cmp", 3));
        assert!(!scanned.allowed("unit-leak", 2));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\nline\nline\";\nlet target = 1;";
        let scanned = scan(src);
        let target = scanned
            .tokens
            .iter()
            .find(|t| t.kind.is_ident("target"))
            .map(|t| t.line);
        assert_eq!(target, Some(4));
    }

    #[test]
    fn byte_and_byte_raw_strings_are_stripped() {
        // `br#"..."#` bodies follow raw rules: a trailing backslash must
        // not swallow the closing quote (regression: the `br` prefix used
        // to lex as an identifier and the body as a cooked string).
        let src = r##"let a = br#"HashMap \"#; let marker = 1;"##;
        let ids = idents(src);
        assert!(ids.contains(&"marker".to_owned()));
        assert!(!ids.contains(&"HashMap".to_owned()));
        // Plain byte strings and byte chars are stripped too.
        let ids = idents("let a = b\"Instant\"; let b_char = b'x'; let tail = 2;");
        assert!(ids.contains(&"tail".to_owned()));
        assert!(!ids.contains(&"Instant".to_owned()));
        // A raw string whose body contains a quote+fewer-hashes candidate
        // ends only at the real delimiter.
        let src = "let a = r##\"end\"# not yet\"##; let after = 3;";
        assert!(idents(src).contains(&"after".to_owned()));
    }

    #[test]
    fn multibyte_char_literals_are_not_lifetimes() {
        // Regression: 'λ' used to classify as a lifetime and leave the
        // scanner mid-scalar, corrupting the rest of the stream.
        let src = "let c = 'λ'; let real = marker;";
        let scanned = scan(src);
        assert!(scanned
            .tokens
            .iter()
            .all(|t| !matches!(t.kind, TokenKind::Lifetime(_))));
        assert!(idents(src).contains(&"marker".to_owned()));
        // Escaped forms still close correctly.
        for src in [
            "let c = '\\u{1F600}'; let ok = 1;",
            "let c = '\\''; let ok = 1;",
        ] {
            assert!(idents(src).contains(&"ok".to_owned()), "{src}");
        }
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let src = "/* outer /* inner */ still comment */ let marker = 1;\nlet next = 2;";
        let ids = idents(src);
        assert!(ids.contains(&"marker".to_owned()));
        assert!(!ids.contains(&"outer".to_owned()));
        assert!(!ids.contains(&"inner".to_owned()));
        // Line numbers survive multi-line nested comments, and a directive
        // inside one still parses.
        let src = "/* a\n/* b\n*/\ndcb-audit: allow(float-cmp, nested reason)\n*/\nlet target = 1;";
        let scanned = scan(src);
        let target = scanned
            .tokens
            .iter()
            .find(|t| t.kind.is_ident("target"))
            .map(|t| t.line);
        assert_eq!(target, Some(6));
        assert_eq!(scanned.allows.len(), 1);
        assert_eq!(scanned.allows[0].lint, "float-cmp");
    }

    #[test]
    fn ranges_are_not_floats() {
        let scanned = scan("for i in 0..10 { }");
        let numbers: Vec<_> = scanned
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Number(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(numbers, vec!["0".to_owned(), "10".to_owned()]);
        assert!(!TokenKind::Number("0".into()).is_float());
    }
}
