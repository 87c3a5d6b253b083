//! A token-tree parser on top of the [`crate::lexer`]: recovers the item
//! structure the interprocedural passes need — `fn` signatures (name,
//! params, return type, owning `impl`/`trait`), `struct` fields, and the
//! call expressions inside every function body — without a full AST or a
//! `syn` dependency.
//!
//! The parser is deliberately a *recognizer*, not a validator: on input it
//! does not understand it skips forward rather than erroring, so a macro-
//! heavy file still yields every item it can recover. `macro_rules!`
//! bodies are skipped wholesale (their `fn` tokens are templates, not
//! definitions), attributes are skipped but remembered so an item's span
//! starts at its first attribute, and `#[cfg(test)]` regions inherit the
//! lexer's marking.

use crate::lexer::{AllowDirective, Token, TokenKind};

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The `impl`/`trait` type the function is associated with, if any.
    pub qual: Option<String>,
    /// Line of the first leading attribute (equals [`Self::line`] when the
    /// item has no attributes). Allow directives anchor against this.
    pub attr_line: u32,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the closing body brace (or the signature's `;`).
    pub end_line: u32,
    /// Parameters in order, `self` included as a parameter named `self`.
    pub params: Vec<Param>,
    /// Return type text, `None` for `-> ()`-less signatures.
    pub ret: Option<String>,
    /// Token index range `[start, end)` of the body, `None` for
    /// body-less trait signatures.
    pub body: Option<(usize, usize)>,
    /// Call expressions found in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Whether the `fn` keyword sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One parsed struct item (name + named fields; tuple structs record
/// positional fields with empty names).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// Named fields (or positional fields with empty names).
    pub fields: Vec<Param>,
}

/// A `name: Type` pair — fn parameter or struct field.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; empty for destructuring patterns and tuple fields.
    pub name: String,
    /// Type text, tokens joined (`Vec < Watts >` renders `Vec<Watts>`).
    pub ty: String,
    /// Source line of the binding.
    pub line: u32,
}

impl Param {
    /// Whether the declared type is a bare `f64` (no wrapper).
    #[must_use]
    pub fn is_raw_f64(&self) -> bool {
        self.ty == "f64"
    }
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments: `["dcb_power", "residual_phases"]`, `["Watts",
    /// "new"]`, or just `["digest"]` for a method call.
    pub path: Vec<String>,
    /// Whether this is a `.method(...)` call on a receiver.
    pub method: bool,
    /// Source line of the call.
    pub line: u32,
    /// Shape of each top-level argument.
    pub args: Vec<ArgShape>,
}

impl CallSite {
    /// The called function's bare name (last path segment).
    #[must_use]
    pub fn name(&self) -> &str {
        self.path.last().map_or("", String::as_str)
    }
}

/// What an argument expression looks like, as far as the passes care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgShape {
    /// `recv.value()` — a quantity read; carries the receiver's root
    /// identifier (empty when the receiver is a compound expression).
    ValueRead(String),
    /// A bare identifier.
    Ident(String),
    /// A single nested call spanning the whole argument; carries its path.
    Call(Vec<String>),
    /// Anything else.
    Other,
}

/// The parse result for one file.
#[derive(Debug, Default, Clone)]
pub struct ParsedFile {
    /// Every recovered function, in source order.
    pub fns: Vec<FnItem>,
    /// Every recovered struct, in source order.
    pub structs: Vec<StructItem>,
}

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "fn", "move", "where",
    "let", "impl",
];

/// Widens allow directives that sit directly above an item to cover the
/// whole item: a `// dcb-audit: allow(...)` on the line(s) above a `fn`
/// (attributes included) suppresses the named lint through the item's
/// closing brace. Directives elsewhere keep their classic one-line reach.
pub fn expand_allows(parsed: &ParsedFile, allows: &mut [AllowDirective]) {
    for a in allows {
        for f in &parsed.fns {
            if a.line < f.line && a.line + 1 >= f.attr_line && f.end_line > a.end_line {
                a.end_line = f.end_line;
            }
        }
    }
}

/// Parses a token stream into its item structure.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParsedFile {
    Parser::new(tokens).run()
}

/// An enclosing scope that contributes context to items found inside it.
enum Scope {
    /// An `impl`/`trait` block: associated type name + closing brace depth.
    Assoc(String, u32),
    /// A function body: index into `out.fns` + closing brace depth.
    Fn(usize, u32),
}

struct Parser<'t> {
    tokens: &'t [Token],
    i: usize,
    depth: u32,
    scopes: Vec<Scope>,
    pending_attr_line: Option<u32>,
    out: ParsedFile,
}

impl<'t> Parser<'t> {
    fn new(tokens: &'t [Token]) -> Self {
        Parser {
            tokens,
            i: 0,
            depth: 0,
            scopes: Vec::new(),
            pending_attr_line: None,
            out: ParsedFile::default(),
        }
    }

    fn kind(&self, idx: usize) -> Option<&TokenKind> {
        self.tokens.get(idx).map(|t| &t.kind)
    }

    fn line(&self, idx: usize) -> u32 {
        self.tokens.get(idx).map_or(0, |t| t.line)
    }

    /// Index just past the group opened by the delimiter at `open`
    /// (`(`/`[`/`{`), balancing all three delimiter kinds.
    fn group_end(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Op(s) if s == "(" || s == "[" || s == "{" => depth += 1,
                TokenKind::Op(s) if s == ")" || s == "]" || s == "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.tokens.len()
    }

    /// Index just past a balanced `<...>` generic group opened at `open`.
    /// Delimiter groups inside the generics (`Fn(A) -> B` bounds, const-
    /// generic braces) are skipped opaquely; a stray `;` bails out.
    fn angle_end(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Op(s) if s == "<" => {
                    depth += 1;
                    j += 1;
                }
                TokenKind::Op(s) if s == ">" => {
                    depth -= 1;
                    j += 1;
                    if depth <= 0 {
                        return j;
                    }
                }
                TokenKind::Op(s) if s == "(" || s == "[" || s == "{" => {
                    j = self.group_end(j);
                }
                TokenKind::Op(s) if s == ";" => return j,
                _ => j += 1,
            }
        }
        self.tokens.len()
    }

    fn run(mut self) -> ParsedFile {
        while self.i < self.tokens.len() {
            let idx = self.i;
            match &self.tokens[idx].kind {
                TokenKind::Op(s) if s == "#" => {
                    // Attribute: skip `#[...]` / `#![...]`, remember where
                    // the run started so items can anchor their spans.
                    let mut j = idx + 1;
                    if self.kind(j).is_some_and(|k| k.is_op("!")) {
                        j += 1;
                    }
                    if self.kind(j).is_some_and(|k| k.is_op("[")) {
                        if self.pending_attr_line.is_none() {
                            self.pending_attr_line = Some(self.line(idx));
                        }
                        self.i = self.group_end(j);
                    } else {
                        self.i = idx + 1;
                    }
                }
                TokenKind::Op(s) if s == "{" => {
                    self.pending_attr_line = None;
                    self.depth += 1;
                    self.i = idx + 1;
                }
                TokenKind::Op(s) if s == "}" => {
                    self.pending_attr_line = None;
                    self.depth = self.depth.saturating_sub(1);
                    while let Some(scope) = self.scopes.last() {
                        let close = match scope {
                            Scope::Assoc(_, d) | Scope::Fn(_, d) => *d,
                        };
                        if close == self.depth {
                            self.scopes.pop();
                        } else {
                            break;
                        }
                    }
                    self.i = idx + 1;
                }
                TokenKind::Ident(name) if name == "macro_rules" => {
                    // `macro_rules! name { ... }`: template tokens, skip.
                    self.pending_attr_line = None;
                    let mut j = idx + 1;
                    while j < self.tokens.len() && !self.kind(j).is_some_and(|k| k.is_op("{")) {
                        j += 1;
                    }
                    self.i = self.group_end(j);
                }
                TokenKind::Ident(name) if name == "impl" && !self.in_fn() => {
                    self.pending_attr_line = None;
                    self.enter_assoc_block(idx);
                }
                TokenKind::Ident(name) if name == "trait" && !self.in_fn() => {
                    self.pending_attr_line = None;
                    self.enter_trait_block(idx);
                }
                TokenKind::Ident(name) if name == "struct" && !self.in_fn() => {
                    self.pending_attr_line = None;
                    self.parse_struct(idx);
                }
                TokenKind::Ident(name) if name == "fn" => {
                    // `fn` in type position (`f: fn(usize) -> bool`) has no
                    // name ident after it; skip those.
                    if self.kind(idx + 1).is_some_and(|k| k.ident().is_some()) {
                        self.parse_fn(idx);
                    } else {
                        self.i = idx + 1;
                    }
                }
                TokenKind::Ident(_) if self.in_fn() => {
                    self.try_call(idx);
                    self.i = idx + 1;
                }
                TokenKind::Op(s) if s == ";" => {
                    // End of a non-item statement (`use x;`, consts):
                    // leading attributes no longer anchor a coming item.
                    self.pending_attr_line = None;
                    self.i = idx + 1;
                }
                _ => {
                    // Visibility and misc tokens between an attribute and
                    // its item (`pub`, `const`, `unsafe`) keep the pending
                    // attribute anchor alive.
                    self.i = idx + 1;
                }
            }
        }
        self.out
    }

    fn in_fn(&self) -> bool {
        self.scopes.iter().any(|s| matches!(s, Scope::Fn(_, _)))
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx, _) => Some(*idx),
            Scope::Assoc(_, _) => None,
        })
    }

    fn current_assoc(&self) -> Option<&str> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Assoc(name, _) => Some(name.as_str()),
            Scope::Fn(_, _) => None,
        })
    }

    /// Parses an `impl` header (`impl<G> Type {`, `impl Trait for Type {`)
    /// and pushes the self-type as the association scope.
    fn enter_assoc_block(&mut self, at: usize) {
        let mut j = at + 1;
        if self.kind(j).is_some_and(|k| k.is_op("<")) {
            j = self.angle_end(j);
        }
        let first = self.parse_type_path(j);
        let (mut ty, mut j) = first;
        if self.kind(j).is_some_and(|k| k.is_ident("for")) {
            let second = self.parse_type_path(j + 1);
            ty = second.0;
            j = second.1;
        }
        // Skip any `where` clause to the block brace.
        while j < self.tokens.len() && !self.kind(j).is_some_and(|k| k.is_op("{") || k.is_op(";")) {
            j += 1;
        }
        if self.kind(j).is_some_and(|k| k.is_op("{")) {
            self.scopes.push(Scope::Assoc(ty, self.depth));
            self.depth += 1;
            self.i = j + 1;
        } else {
            self.i = j + 1;
        }
    }

    /// Parses a `trait Name {` header; default methods inside get the
    /// trait name as their qualifier.
    fn enter_trait_block(&mut self, at: usize) {
        let name = self
            .kind(at + 1)
            .and_then(|k| k.ident().map(str::to_owned))
            .unwrap_or_default();
        let mut j = at + 2;
        while j < self.tokens.len() && !self.kind(j).is_some_and(|k| k.is_op("{") || k.is_op(";")) {
            j += 1;
        }
        if self.kind(j).is_some_and(|k| k.is_op("{")) {
            self.scopes.push(Scope::Assoc(name, self.depth));
            self.depth += 1;
        }
        self.i = j + 1;
    }

    /// Reads a type path starting at `at`: `a::b::Type<G>` → last segment
    /// name; returns (name, index past the path incl. generic args).
    fn parse_type_path(&self, at: usize) -> (String, usize) {
        let mut j = at;
        // Tolerate `&`, lifetimes, `dyn`, `mut` prefixes.
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Op(s) if s == "&" => j += 1,
                TokenKind::Lifetime(_) => j += 1,
                TokenKind::Ident(s) if s == "dyn" || s == "mut" => j += 1,
                _ => break,
            }
        }
        let mut last = String::new();
        while j < self.tokens.len() {
            let Some(name) = self.tokens[j].kind.ident() else {
                break;
            };
            last = name.to_owned();
            j += 1;
            if self.kind(j).is_some_and(|k| k.is_op("<")) {
                j = self.angle_end(j);
            }
            if self.kind(j).is_some_and(|k| k.is_op("::")) {
                j += 1;
            } else {
                break;
            }
        }
        (last, j)
    }

    /// Parses one `fn` item starting at the `fn` keyword.
    #[allow(clippy::too_many_lines)]
    fn parse_fn(&mut self, at: usize) {
        let name = self
            .kind(at + 1)
            .and_then(|k| k.ident().map(str::to_owned))
            .unwrap_or_default();
        let line = self.line(at);
        let attr_line = self.pending_attr_line.take().unwrap_or(line).min(line);
        let mut j = at + 2;
        if self.kind(j).is_some_and(|k| k.is_op("<")) {
            j = self.angle_end(j);
        }
        if !self.kind(j).is_some_and(|k| k.is_op("(")) {
            self.i = at + 1;
            return;
        }
        let params_end = self.group_end(j); // index past `)`
        let params = self.parse_params(j + 1, params_end.saturating_sub(1));
        // Return type: `-> Type` until `{`, `;`, or `where`.
        let mut k = params_end;
        let mut ret = None;
        if self.kind(k).is_some_and(|x| x.is_op("->")) {
            let start = k + 1;
            let mut end = start;
            let mut angle = 0i32;
            while end < self.tokens.len() {
                match &self.tokens[end].kind {
                    TokenKind::Op(s) if s == "<" => angle += 1,
                    TokenKind::Op(s) if s == ">" => angle -= 1,
                    TokenKind::Op(s) if (s == "{" || s == ";") && angle <= 0 => break,
                    TokenKind::Ident(w) if w == "where" && angle <= 0 => break,
                    _ => {}
                }
                end += 1;
            }
            ret = Some(join_tokens(&self.tokens[start..end]));
            k = end;
        }
        // Skip a `where` clause.
        while k < self.tokens.len() && !self.kind(k).is_some_and(|x| x.is_op("{") || x.is_op(";")) {
            k += 1;
        }
        let qual = self.current_assoc().map(str::to_owned);
        let in_test = self.tokens[at].in_test;
        let params = params
            .into_iter()
            .map(|mut p| {
                // `self` receivers adopt the impl type.
                if p.name == "self" && p.ty.is_empty() {
                    p.ty = qual.clone().unwrap_or_else(|| "Self".to_owned());
                }
                p
            })
            .collect();
        let fn_idx = self.out.fns.len();
        if self.kind(k).is_some_and(|x| x.is_op("{")) {
            let body_end = self.group_end(k);
            self.out.fns.push(FnItem {
                name,
                qual,
                attr_line,
                line,
                end_line: self.line(body_end.saturating_sub(1)).max(line),
                params,
                ret,
                body: Some((k + 1, body_end.saturating_sub(1))),
                calls: Vec::new(),
                in_test,
            });
            // Walk *into* the body so nested items and calls are seen.
            self.scopes.push(Scope::Fn(fn_idx, self.depth));
            self.depth += 1;
            self.i = k + 1;
        } else {
            // Trait signature without a body.
            self.out.fns.push(FnItem {
                name,
                qual,
                attr_line,
                line,
                end_line: self.line(k).max(line),
                params,
                ret,
                body: None,
                calls: Vec::new(),
                in_test,
            });
            self.i = k + 1;
        }
    }

    /// Splits a parameter/field list (token range excludes the outer
    /// delimiters) on top-level commas and parses each `name: Type`.
    fn parse_params(&self, start: usize, end: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut item_start = start;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut j = start;
        while j <= end.min(self.tokens.len()) {
            let at_end = j == end;
            let is_comma = !at_end
                && matches!(&self.tokens[j].kind, TokenKind::Op(s) if s == ",")
                && paren == 0
                && angle == 0;
            if at_end || is_comma {
                if item_start < j {
                    if let Some(p) = self.parse_param(item_start, j) {
                        out.push(p);
                    }
                }
                item_start = j + 1;
                if at_end {
                    break;
                }
            } else {
                match &self.tokens[j].kind {
                    TokenKind::Op(s) if s == "(" || s == "[" || s == "{" => paren += 1,
                    TokenKind::Op(s) if s == ")" || s == "]" || s == "}" => paren -= 1,
                    TokenKind::Op(s) if s == "<" => angle += 1,
                    TokenKind::Op(s) if s == ">" => angle -= 1,
                    _ => {}
                }
            }
            j += 1;
        }
        out
    }

    /// Parses one `name: Type` slice; `self` receivers come back with an
    /// empty type (filled by the caller), patterns with an empty name.
    fn parse_param(&self, start: usize, end: usize) -> Option<Param> {
        let toks = &self.tokens[start..end.min(self.tokens.len())];
        if toks.is_empty() {
            return None;
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`.
        let receiver = toks
            .iter()
            .map(|t| &t.kind)
            .filter(|k| !(k.is_op("&") || k.is_ident("mut") || matches!(k, TokenKind::Lifetime(_))))
            .collect::<Vec<_>>();
        if receiver.len() == 1 && receiver[0].is_ident("self") {
            return Some(Param {
                name: "self".to_owned(),
                ty: String::new(),
                line: toks[0].line,
            });
        }
        // Find the top-level `:` (not `::`).
        let mut depth = 0i32;
        let mut colon = None;
        for (off, t) in toks.iter().enumerate() {
            match &t.kind {
                TokenKind::Op(s) if s == "(" || s == "[" || s == "{" || s == "<" => depth += 1,
                TokenKind::Op(s) if s == ")" || s == "]" || s == "}" || s == ">" => depth -= 1,
                TokenKind::Op(s) if s == ":" && depth == 0 => {
                    colon = Some(off);
                    break;
                }
                _ => {}
            }
        }
        let colon = colon?;
        let name = if colon > 0 {
            toks[colon - 1].kind.ident().unwrap_or("").to_owned()
        } else {
            String::new()
        };
        Some(Param {
            name,
            ty: join_tokens(&toks[colon + 1..]),
            line: toks[0].line,
        })
    }

    /// Parses a tuple or braced struct declaration.
    fn parse_struct(&mut self, at: usize) {
        let Some(name) = self.kind(at + 1).and_then(|k| k.ident().map(str::to_owned)) else {
            self.i = at + 1;
            return;
        };
        let line = self.line(at);
        let mut j = at + 2;
        if self.kind(j).is_some_and(|k| k.is_op("<")) {
            j = self.angle_end(j);
        }
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Op(s) if s == "{" || s == "(" => break,
                TokenKind::Op(s) if s == ";" => break,
                _ => j += 1,
            }
        }
        let fields = if self.kind(j).is_some_and(|k| k.is_op("{")) {
            let end = self.group_end(j);
            let fields = self.parse_fields(j + 1, end.saturating_sub(1));
            self.i = end;
            fields
        } else if self.kind(j).is_some_and(|k| k.is_op("(")) {
            let end = self.group_end(j);
            self.i = end;
            Vec::new()
        } else {
            self.i = j + 1;
            Vec::new()
        };
        self.out.structs.push(StructItem { name, line, fields });
    }

    /// Parses braced struct fields, skipping attributes and `pub(...)`.
    fn parse_fields(&self, start: usize, end: usize) -> Vec<Param> {
        // Strip attribute groups by building an index list first.
        let mut clean = Vec::new();
        let mut j = start;
        while j < end.min(self.tokens.len()) {
            match &self.tokens[j].kind {
                TokenKind::Op(s) if s == "#" => {
                    if self.kind(j + 1).is_some_and(|k| k.is_op("[")) {
                        j = self.group_end(j + 1);
                    } else {
                        j += 1;
                    }
                }
                TokenKind::Ident(s) if s == "pub" => {
                    j += 1;
                    if self.kind(j).is_some_and(|k| k.is_op("(")) {
                        j = self.group_end(j);
                    }
                }
                _ => {
                    clean.push(j);
                    j += 1;
                }
            }
        }
        // Split the cleaned index list on top-level commas.
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut run: Vec<usize> = Vec::new();
        for &idx in &clean {
            match &self.tokens[idx].kind {
                TokenKind::Op(s) if s == "(" || s == "[" || s == "{" || s == "<" => {
                    depth += 1;
                    run.push(idx);
                }
                TokenKind::Op(s) if s == ")" || s == "]" || s == "}" || s == ">" => {
                    depth -= 1;
                    run.push(idx);
                }
                TokenKind::Op(s) if s == "," && depth == 0 => {
                    if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
                        if let Some(p) = self.parse_param(first, last + 1) {
                            out.push(p);
                        }
                    }
                    run.clear();
                }
                _ => run.push(idx),
            }
        }
        if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
            if let Some(p) = self.parse_param(first, last + 1) {
                out.push(p);
            }
        }
        out
    }

    /// Records a call expression if the identifier at `at` heads one.
    fn try_call(&mut self, at: usize) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        let Some(name) = self.tokens[at].kind.ident() else {
            return;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            return;
        }
        // Only the *last* segment of a path heads the call: `a::b(` fires
        // on `b`, and `a` is skipped because `::` follows it.
        if self.kind(at + 1).is_some_and(|k| k.is_op("::")) {
            return;
        }
        // Macro invocation `name!(...)`: not a fn call (its interior is
        // still scanned by the main loop).
        if self.kind(at + 1).is_some_and(|k| k.is_op("!")) {
            return;
        }
        // Turbofish `name::<T>(...)` — tolerate before the paren.
        let mut open = at + 1;
        if !self.kind(open).is_some_and(|k| k.is_op("(")) {
            return;
        }
        // Walk the path backwards: `seg :: seg :: name`.
        let mut path = vec![name.to_owned()];
        let mut back = at;
        while back >= 2
            && self.tokens[back - 1].kind.is_op("::")
            && self.tokens[back - 2].kind.ident().is_some()
        {
            path.insert(
                0,
                self.tokens[back - 2].kind.ident().unwrap_or("").to_owned(),
            );
            back -= 2;
        }
        let method = back >= 1 && self.tokens[back - 1].kind.is_op(".");
        // Struct-literal guard: `Name { .. }` is not a call and `Name (`
        // with an uppercase single segment could be a tuple-struct or enum
        // variant constructor — keep those; resolution filters them.
        let args_end = self.group_end(open);
        open += 1;
        let args = self.parse_args(open, args_end.saturating_sub(1));
        self.out.fns[fn_idx].calls.push(CallSite {
            path,
            method,
            line: self.tokens[at].line,
            args,
        });
    }

    /// Classifies the top-level argument slices of a call.
    fn parse_args(&self, start: usize, end: usize) -> Vec<ArgShape> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut item_start = start;
        let mut j = start;
        let end = end.min(self.tokens.len());
        while j <= end {
            let at_end = j == end;
            let is_comma = !at_end
                && matches!(&self.tokens[j].kind, TokenKind::Op(s) if s == ",")
                && depth == 0;
            if at_end || is_comma {
                if item_start < j {
                    out.push(self.classify_arg(item_start, j));
                }
                item_start = j + 1;
                if at_end {
                    break;
                }
            } else {
                match &self.tokens[j].kind {
                    TokenKind::Op(s) if s == "(" || s == "[" || s == "{" => depth += 1,
                    TokenKind::Op(s) if s == ")" || s == "]" || s == "}" => depth -= 1,
                    _ => {}
                }
            }
            j += 1;
        }
        out
    }

    fn classify_arg(&self, start: usize, end: usize) -> ArgShape {
        let toks = &self.tokens[start..end];
        // `recv.value()` — possibly `&recv.value()`.
        if toks.len() >= 4 {
            let n = toks.len();
            if toks[n - 1].kind.is_op(")")
                && toks[n - 2].kind.is_op("(")
                && toks[n - 3].kind.is_ident("value")
                && toks[n - 4].kind.is_op(".")
            {
                let root = toks
                    .iter()
                    .find_map(|t| t.kind.ident().map(str::to_owned))
                    .unwrap_or_default();
                return ArgShape::ValueRead(root);
            }
        }
        // Bare identifier (allow a leading `&`/`mut`).
        let meaningful: Vec<&TokenKind> = toks
            .iter()
            .map(|t| &t.kind)
            .filter(|k| !(k.is_op("&") || k.is_ident("mut")))
            .collect();
        if meaningful.len() == 1 {
            if let Some(name) = meaningful[0].ident() {
                return ArgShape::Ident(name.to_owned());
            }
        }
        // A single call spanning the whole slice: `path::to::f(...)`.
        if toks.last().is_some_and(|t| t.kind.is_op(")")) {
            let mut j = 0usize;
            let mut path = Vec::new();
            while j < toks.len() {
                match toks[j].kind.ident() {
                    Some(seg) => {
                        path.push(seg.to_owned());
                        j += 1;
                        if j < toks.len() && toks[j].kind.is_op("::") {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    None => break,
                }
            }
            if !path.is_empty() && j < toks.len() && toks[j].kind.is_op("(") {
                // The parens must close exactly at the end of the slice.
                let abs_open = start + j;
                if self.group_end(abs_open) == end {
                    return ArgShape::Call(path);
                }
            }
        }
        ArgShape::Other
    }
}

/// Joins token texts into readable type text (`Vec < Watts >` →
/// `Vec<Watts>`, `& mut f64` → `&mut f64`).
#[must_use]
pub fn join_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for t in tokens {
        let (text, word): (&str, bool) = match &t.kind {
            TokenKind::Ident(s) => (s, true),
            TokenKind::Number(s) => (s, true),
            TokenKind::Op(s) => (s, false),
            TokenKind::Lifetime(s) => {
                if prev_word {
                    out.push(' ');
                }
                out.push('\'');
                out.push_str(s);
                prev_word = true;
                continue;
            }
        };
        if word && prev_word {
            out.push(' ');
        }
        out.push_str(text);
        prev_word = word && !matches!(&t.kind, TokenKind::Op(_));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&scan(src).tokens)
    }

    #[test]
    fn fn_signature_recovery() {
        let p = parse_src(
            "pub fn residual(load: Watts, dg: &DieselSpec, frac: f64) -> Kilowatts { body() }",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "residual");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].name, "load");
        assert_eq!(f.params[0].ty, "Watts");
        assert_eq!(f.params[1].ty, "&DieselSpec");
        assert!(f.params[2].is_raw_f64());
        assert_eq!(f.ret.as_deref(), Some("Kilowatts"));
    }

    #[test]
    fn impl_methods_get_their_qualifier() {
        let p = parse_src(
            "impl Scenario { pub fn digest(&self) -> u128 { self.walk() } }\n\
             impl fmt::Display for Watts { fn fmt(&self, f: &mut Formatter) -> Result { x() } }",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qual.as_deref(), Some("Scenario"));
        assert_eq!(p.fns[0].params[0].name, "self");
        assert_eq!(p.fns[0].params[0].ty, "Scenario");
        assert_eq!(p.fns[1].qual.as_deref(), Some("Watts"));
    }

    #[test]
    fn calls_are_collected_with_paths_and_shapes() {
        let p = parse_src(
            "fn f(w: Watts) {\n\
                let a = helper(w.value());\n\
                let b = dcb_power::residual(w, frac);\n\
                let c = Watts::new(compute(x));\n\
                let d = list.iter().map(|v| inner(v)).count();\n\
            }",
        );
        let f = &p.fns[0];
        let names: Vec<&str> = f.calls.iter().map(CallSite::name).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"residual"));
        assert!(names.contains(&"new"));
        assert!(names.contains(&"inner"));
        let helper = f.calls.iter().find(|c| c.name() == "helper").unwrap();
        assert_eq!(helper.args, vec![ArgShape::ValueRead("w".to_owned())]);
        let residual = f.calls.iter().find(|c| c.name() == "residual").unwrap();
        assert_eq!(residual.path, vec!["dcb_power", "residual"]);
        assert_eq!(
            residual.args,
            vec![
                ArgShape::Ident("w".to_owned()),
                ArgShape::Ident("frac".to_owned())
            ]
        );
        let new = f.calls.iter().find(|c| c.name() == "new").unwrap();
        assert_eq!(new.path, vec!["Watts", "new"]);
        assert_eq!(new.args, vec![ArgShape::Call(vec!["compute".to_owned()])]);
    }

    #[test]
    fn macro_rules_bodies_produce_no_items() {
        let p = parse_src(
            "macro_rules! quantity { ($name:ident) => { pub fn value(self) -> f64 { self.0 } }; }\n\
             fn real() { after(); }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn structs_and_fields() {
        let p = parse_src(
            "#[derive(Debug)]\npub struct Pack { pub capacity: WattHours, cells: u32 }\n\
             pub struct Marker;",
        );
        assert_eq!(p.structs.len(), 2);
        assert_eq!(p.structs[0].name, "Pack");
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.structs[0].fields[0].name, "capacity");
        assert_eq!(p.structs[0].fields[0].ty, "WattHours");
        assert_eq!(p.structs[1].name, "Marker");
    }

    #[test]
    fn nested_fns_and_spans() {
        let src = "fn outer() {\n    helper();\n    fn inner() { deep(); }\n    tail();\n}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.line, 1);
        assert_eq!(outer.end_line, 5);
        assert_eq!(inner.line, 3);
        // Calls attribute to the innermost enclosing fn.
        let outer_calls: Vec<&str> = outer.calls.iter().map(CallSite::name).collect();
        let inner_calls: Vec<&str> = inner.calls.iter().map(CallSite::name).collect();
        assert_eq!(outer_calls, vec!["helper", "tail"]);
        assert_eq!(inner_calls, vec!["deep"]);
    }

    #[test]
    fn attributes_anchor_item_spans() {
        let src = "#[must_use]\n#[inline]\nfn f() -> u32 { 1 }";
        let p = parse_src(src);
        assert_eq!(p.fns[0].attr_line, 1);
        assert_eq!(p.fns[0].line, 3);
    }

    #[test]
    fn allow_expansion_covers_whole_items() {
        let src = "// dcb-audit: allow(float-cmp, documented)\n\
                   #[must_use]\n\
                   fn f() -> bool {\n    let _ = x == 1.0;\n    y == 2.0\n}\n\
                   fn g() -> bool { z == 3.0 }\n";
        let mut scanned = scan(src);
        let parsed = parse(&scanned.tokens);
        expand_allows(&parsed, &mut scanned.allows);
        // The directive covers all of f (lines 3-6)...
        assert!(scanned.allowed("float-cmp", 4));
        assert!(scanned.allowed("float-cmp", 5));
        // ...but not g.
        assert!(!scanned.allowed("float-cmp", 7));
    }

    #[test]
    fn trait_methods_and_bodyless_signatures() {
        let p = parse_src(
            "trait Sink { fn render(&self, s: &Snapshot) -> Option<String>; \
             fn ready(&self) -> bool { check() } }",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qual.as_deref(), Some("Sink"));
        assert!(p.fns[0].body.is_none());
        assert_eq!(p.fns[1].name, "ready");
        assert_eq!(p.fns[1].calls.len(), 1);
    }
}
