//! The workspace symbol table: every parsed function and type across all
//! crates, indexed by name, with a conservative name-and-qualifier call
//! resolver.
//!
//! Resolution is deliberately an *over-approximation*: a method call
//! `.digest()` matches every associated fn named `digest`, and a bare call
//! prefers same-crate definitions before falling back to the whole
//! workspace. Calls that resolve to nothing (std, vendored stubs,
//! macro-generated fns) simply produce no edges. The taint pass wants
//! soundness-ish coverage, and an inline `allow` with its reason accepts
//! the noise an over-approximation produces.

use crate::parse::{CallSite, FnItem, Param, ParsedFile};
use crate::walk::{Role, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One function definition in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the owning file in the analysis input order.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel: String,
    /// Owning crate directory name.
    pub crate_name: String,
    /// The owning file's compilation role.
    pub role: Role,
    /// Function name.
    pub name: String,
    /// `impl`/`trait` type the fn is associated with, if any.
    pub qual: Option<String>,
    /// Line of the first leading attribute.
    pub attr_line: u32,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
    /// Parameters, `self` included.
    pub params: Vec<Param>,
    /// Return type text.
    pub ret: Option<String>,
    /// Token index range of the body in the owning file's token stream.
    pub body: Option<(usize, usize)>,
    /// Calls inside the body.
    pub calls: Vec<CallSite>,
    /// Whether the fn sits in a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnDef {
    /// `crate::Type::name` / `crate::name` — the stable identifier that
    /// findings and their keys name this definition by.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.qual {
            Some(q) => format!("{}::{}::{}", self.crate_name, q, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }

    /// Whether this definition participates in production result paths
    /// (library/binary code outside `#[cfg(test)]`).
    #[must_use]
    pub fn is_model_code(&self) -> bool {
        !self.in_test && matches!(self.role, Role::Library | Role::Binary)
    }
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function definition, in file order.
    pub fns: Vec<FnDef>,
    /// Every struct/impl/trait type name seen anywhere.
    pub types: BTreeSet<String>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from parsed files (paired with their walk entry).
    #[must_use]
    pub fn build(files: &[(SourceFile, ParsedFile)]) -> Self {
        let mut table = SymbolTable::default();
        for (file_idx, (src, parsed)) in files.iter().enumerate() {
            for s in &parsed.structs {
                table.types.insert(s.name.clone());
            }
            for f in &parsed.fns {
                if let Some(q) = &f.qual {
                    table.types.insert(q.clone());
                }
                table.push_fn(file_idx, src, f);
            }
        }
        table
    }

    fn push_fn(&mut self, file_idx: usize, src: &SourceFile, f: &FnItem) {
        let id = self.fns.len();
        self.fns.push(FnDef {
            file: file_idx,
            rel: src.rel.clone(),
            crate_name: src.crate_name.clone(),
            role: src.role,
            name: f.name.clone(),
            qual: f.qual.clone(),
            attr_line: f.attr_line,
            line: f.line,
            end_line: f.end_line,
            params: f.params.clone(),
            ret: f.ret.clone(),
            body: f.body,
            calls: f.calls.clone(),
            in_test: f.in_test,
        });
        self.by_name.entry(f.name.clone()).or_default().push(id);
    }

    /// All definitions named `name`.
    #[must_use]
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Resolves a call site from `caller` to candidate definitions.
    ///
    /// - `Type::name(...)` (uppercase qualifier) matches only fns
    ///   associated with `Type`.
    /// - `dcb_x::...::name(...)` restricts to crate `x`; `self::`/
    ///   `crate::` restrict to the caller's crate.
    /// - `.name(...)` method calls match associated fns of any type.
    /// - bare `name(...)` prefers the caller's crate, then anywhere.
    #[must_use]
    pub fn resolve(&self, caller: &FnDef, call: &CallSite) -> Vec<usize> {
        let candidates = self.named(call.name());
        if candidates.is_empty() {
            return Vec::new();
        }
        if call.method {
            return candidates
                .iter()
                .copied()
                .filter(|&id| self.fns[id].qual.is_some())
                .collect();
        }
        if call.path.len() >= 2 {
            let prev = &call.path[call.path.len() - 2];
            if prev.chars().next().is_some_and(char::is_uppercase) {
                return candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].qual.as_deref() == Some(prev.as_str()))
                    .collect();
            }
            if let Some(krate) = prev.strip_prefix("dcb_") {
                return candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].crate_name == krate)
                    .collect();
            }
            if prev == "self" || prev == "crate" || prev == "super" {
                return candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].crate_name == caller.crate_name)
                    .collect();
            }
            // `module::name`: same crate first, then the module name may be
            // a re-export path root — fall through to the bare-call rule.
        }
        let same_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| {
                self.fns[id].crate_name == caller.crate_name && self.fns[id].qual.is_none()
            })
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        candidates
            .iter()
            .copied()
            .filter(|&id| self.fns[id].qual.is_none())
            .collect()
    }

    /// Crates with at least one definition, sorted.
    #[must_use]
    pub fn crates(&self) -> Vec<String> {
        let mut set: BTreeSet<String> = BTreeSet::new();
        for f in &self.fns {
            set.insert(f.crate_name.clone());
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parse::parse;
    use std::path::PathBuf;

    fn file(rel: &str, crate_name: &str, src: &str) -> (SourceFile, ParsedFile) {
        (
            SourceFile {
                path: PathBuf::from(rel),
                rel: rel.to_owned(),
                role: Role::Library,
                crate_name: crate_name.to_owned(),
            },
            parse(&scan(src).tokens),
        )
    }

    fn build(files: &[(SourceFile, ParsedFile)]) -> SymbolTable {
        SymbolTable::build(files)
    }

    #[test]
    fn qualified_names_and_crate_listing() {
        let files = vec![
            file(
                "crates/fleet/src/scenario.rs",
                "fleet",
                "impl Scenario { pub fn digest(&self) -> u128 { walk() } }",
            ),
            file(
                "crates/power/src/lib.rs",
                "power",
                "pub fn residual(load: Watts) -> Watts { load }",
            ),
        ];
        let t = build(&files);
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].qualified(), "fleet::Scenario::digest");
        assert_eq!(t.fns[1].qualified(), "power::residual");
        assert_eq!(t.crates(), vec!["fleet".to_owned(), "power".to_owned()]);
        assert!(t.types.contains("Scenario"));
    }

    #[test]
    fn resolution_prefers_qualifier_then_crate() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "a",
                "pub fn helper() {}\nimpl Foo { pub fn helper(&self) {} }\n\
                 pub fn caller() { helper(); Foo::helper(x); dcb_b::helper(); obj.helper(); }",
            ),
            file("crates/b/src/lib.rs", "b", "pub fn helper() {}"),
        ];
        let t = build(&files);
        let caller = t
            .fns
            .iter()
            .find(|f| f.name == "caller")
            .expect("caller parsed");
        let by = |i: usize| t.fns[i].qualified();
        // Bare call: same-crate free fn only.
        let bare = t.resolve(caller, &caller.calls[0]);
        assert_eq!(
            bare.iter().map(|&i| by(i)).collect::<Vec<_>>(),
            ["a::helper"]
        );
        // Type-qualified: the impl fn.
        let typed = t.resolve(caller, &caller.calls[1]);
        assert_eq!(
            typed.iter().map(|&i| by(i)).collect::<Vec<_>>(),
            ["a::Foo::helper"]
        );
        // Crate-qualified: crate b's free fn.
        let cratey = t.resolve(caller, &caller.calls[2]);
        assert_eq!(
            cratey.iter().map(|&i| by(i)).collect::<Vec<_>>(),
            ["b::helper"]
        );
        // Method call: associated fns anywhere.
        let method = t.resolve(caller, &caller.calls[3]);
        assert_eq!(
            method.iter().map(|&i| by(i)).collect::<Vec<_>>(),
            ["a::Foo::helper"]
        );
    }
}
