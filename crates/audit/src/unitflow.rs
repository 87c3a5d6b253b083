//! The unit-flow pass: infer physical dimensions (power, energy, time,
//! charge, money, fraction, data) for values from the `dcb-units` newtypes
//! and from naming conventions, propagate them across call edges, and flag
//! raw-`f64` boundaries that launder a dimensioned value back into a bare
//! float.
//!
//! Three boundary shapes are reported:
//!
//! 1. **Value laundering** — `callee(x.value())` where the callee's
//!    parameter is a raw `f64`: the quantity's dimension is stripped at
//!    the call site.
//! 2. **Transitive laundering** — a raw-`f64` parameter that inherits a
//!    dimension (by flow or by its own unit-word name) and is then passed
//!    on, as a bare identifier, into *another* raw-`f64` parameter deeper
//!    in the workspace. Each boundary is one finding.
//! 3. **Return wrapping** — `Quantity::new(g(...))` where `g` returns a
//!    raw `f64`: the dimension is asserted at the wrap, not carried by
//!    `g`'s signature.
//!
//! `crates/units` itself is exempt — it is the sanctioned raw-`f64`
//! substrate the newtypes are built on. Suppress intentional boundaries
//! with `// dcb-audit: allow(unit-flow, reason)` above the item.

use crate::callgraph::CallGraph;
use crate::lexer::ScannedFile;
use crate::parse::ArgShape;
use crate::report::{Finding, PathStep};
use crate::symbols::{FnDef, SymbolTable};
use std::collections::BTreeMap;

/// Pass identifier — the lint name used in reports and allow directives.
pub const PASS: &str = "unit-flow";

/// A physical dimension tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dim {
    /// Watts and multiples.
    Power,
    /// Watt-hours and multiples.
    Energy,
    /// Seconds, minutes, years.
    Time,
    /// Battery charge (amp-hours, coulombs).
    Charge,
    /// Dollars, flat or per-unit rates.
    Money,
    /// Dimensionless ratio in `[0, 1]`.
    Fraction,
    /// Bytes and rates thereof.
    Data,
    /// A `dcb-units` quantity whose dimension is not further classified.
    Quantity,
}

impl Dim {
    /// Stable lowercase label for keys and messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dim::Power => "power",
            Dim::Energy => "energy",
            Dim::Time => "time",
            Dim::Charge => "charge",
            Dim::Money => "money",
            Dim::Fraction => "fraction",
            Dim::Data => "data",
            Dim::Quantity => "quantity",
        }
    }
}

/// Maps a `dcb-units` newtype name to its dimension.
#[must_use]
pub fn dim_of_type(ty: &str) -> Option<Dim> {
    // The last path segment, generics stripped, references ignored.
    let ty = ty.trim_start_matches('&').trim_start_matches("mut ");
    let last = ty.rsplit("::").next().unwrap_or(ty);
    let last = last.split('<').next().unwrap_or(last).trim();
    Some(match last {
        "Watts" | "Kilowatts" | "Megawatts" => Dim::Power,
        "WattHours" | "KilowattHours" | "MegawattHours" => Dim::Energy,
        "Seconds" | "Minutes" | "Hours" | "Years" | "EventTime" => Dim::Time,
        "AmpHours" | "Coulombs" => Dim::Charge,
        "Dollars" | "DollarsPerYear" | "DollarsPerKwYear" | "DollarsPerKwhYear"
        | "DollarsPerKwMin" => Dim::Money,
        "Fraction" => Dim::Fraction,
        "Gigabytes" | "MegabytesPerSecond" => Dim::Data,
        _ => return None,
    })
}

/// Infers a dimension from a snake_case identifier's unit words.
#[must_use]
pub fn dim_of_name(name: &str) -> Option<Dim> {
    for seg in name.split('_') {
        let dim = match seg {
            "w" | "watt" | "watts" | "kw" | "mw" | "kilowatt" | "kilowatts" | "megawatt"
            | "megawatts" => Dim::Power,
            "wh" | "kwh" | "mwh" | "joule" | "joules" => Dim::Energy,
            "dollar" | "dollars" | "usd" => Dim::Money,
            "coulomb" | "coulombs" | "ah" => Dim::Charge,
            _ => continue,
        };
        return Some(dim);
    }
    None
}

/// How a raw-f64 parameter came to carry a dimension.
#[derive(Debug, Clone)]
enum Why {
    /// The parameter's own name carries a unit word.
    Named,
    /// A caller passed `recv.value()` into it.
    FlowValue {
        caller: usize,
        line: u32,
        recv: String,
    },
    /// A caller forwarded one of its own dimensioned params into it.
    FlowIdent {
        caller: usize,
        caller_param: usize,
        line: u32,
    },
}

/// Dimension facts per `(fn, param)`.
type Facts = BTreeMap<(usize, usize), (Dim, Why)>;

fn param_index(f: &FnDef, name: &str) -> Option<usize> {
    f.params.iter().position(|p| p.name == name)
}

/// Whether findings may be reported against this callee boundary.
fn reportable_boundary(f: &FnDef) -> bool {
    f.is_model_code() && f.crate_name != "units"
}

/// Runs the pass. `scanned` must parallel the symbol table's file order.
/// Findings come back keyed, and so deduplicated and sorted, by a stable
/// line-number-free identity.
#[must_use]
pub fn run(
    table: &SymbolTable,
    graph: &CallGraph,
    scanned: &[ScannedFile],
) -> BTreeMap<String, Finding> {
    // Seed: typed params (declared dcb-units newtype) and unit-named raw
    // f64 params. Typed seeds only ever act as flow *origins*; named raw
    // seeds are both origins and candidate boundaries for deeper flow.
    let mut typed: BTreeMap<(usize, usize), Dim> = BTreeMap::new();
    let mut facts: Facts = BTreeMap::new();
    for (id, f) in table.fns.iter().enumerate() {
        for (pi, p) in f.params.iter().enumerate() {
            if let Some(d) = dim_of_type(&p.ty) {
                typed.insert((id, pi), d);
            } else if p.is_raw_f64() {
                if let Some(d) = dim_of_name(&p.name) {
                    facts.insert((id, pi), (d, Why::Named));
                }
            }
        }
    }

    // Fixpoint: push dimensions along call edges into raw-f64 params.
    let dim_at = |typed: &BTreeMap<(usize, usize), Dim>, facts: &Facts, key: (usize, usize)| {
        typed
            .get(&key)
            .copied()
            .or_else(|| facts.get(&key).map(|(d, _)| *d))
    };
    loop {
        let mut grew = false;
        for edge in &graph.edges {
            let caller = &table.fns[edge.caller];
            // Test/example callers don't launder model data; only flows
            // originating in library, binary, or bench code count.
            if caller.in_test
                || !matches!(
                    caller.role,
                    crate::walk::Role::Library
                        | crate::walk::Role::Binary
                        | crate::walk::Role::Bench
                )
            {
                continue;
            }
            let callee = &table.fns[edge.callee];
            let call = &caller.calls[edge.call];
            // Method calls bind their receiver to a `self` param; shift
            // explicit args past it.
            let shift =
                usize::from(call.method && callee.params.first().is_some_and(|p| p.name == "self"));
            for (ai, arg) in call.args.iter().enumerate() {
                let pi = ai + shift;
                let Some(p) = callee.params.get(pi) else {
                    break;
                };
                if !p.is_raw_f64() || facts.contains_key(&(edge.callee, pi)) {
                    continue;
                }
                let fact = match arg {
                    ArgShape::ValueRead(recv) => {
                        let dim = param_index(caller, recv)
                            .and_then(|ci| dim_at(&typed, &facts, (edge.caller, ci)))
                            .or_else(|| dim_of_name(recv))
                            .unwrap_or(Dim::Quantity);
                        Some((
                            dim,
                            Why::FlowValue {
                                caller: edge.caller,
                                line: edge.line,
                                recv: recv.clone(),
                            },
                        ))
                    }
                    ArgShape::Ident(name) => param_index(caller, name).and_then(|ci| {
                        dim_at(&typed, &facts, (edge.caller, ci)).map(|dim| {
                            (
                                dim,
                                Why::FlowIdent {
                                    caller: edge.caller,
                                    caller_param: ci,
                                    line: edge.line,
                                },
                            )
                        })
                    }),
                    _ => None,
                };
                if let Some(fact) = fact {
                    facts.insert((edge.callee, pi), fact);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let allowed = |f: &FnDef, line: u32| scanned[f.file].allowed(PASS, line);

    // Findings for flowed boundaries (`Named` seeds are the classic
    // unit-leak lint's business, not a flow finding).
    let mut findings: BTreeMap<String, Finding> = BTreeMap::new();
    for (&(id, pi), (dim, why)) in &facts {
        if matches!(why, Why::Named) {
            continue;
        }
        let f = &table.fns[id];
        let p = &f.params[pi];
        if !reportable_boundary(f) || allowed(f, p.line) {
            continue;
        }
        let key = format!("{PASS}:{}:{}:{}", f.qualified(), p.name, dim.label());
        let mut path = vec![PathStep {
            file: f.rel.clone(),
            line: p.line,
            detail: format!(
                "boundary: `{}` takes `{}: f64` carrying {}",
                f.qualified(),
                p.name,
                dim.label()
            ),
        }];
        // Walk provenance back to the Typed/Named origin.
        let mut cur = why.clone();
        loop {
            match cur {
                Why::Named => break,
                Why::FlowValue {
                    caller,
                    line,
                    ref recv,
                } => {
                    let c = &table.fns[caller];
                    let shown = if recv.is_empty() { "<expr>" } else { recv };
                    path.push(PathStep {
                        file: c.rel.clone(),
                        line,
                        detail: format!(
                            "`{}` passes `{shown}.value()` — dimension stripped here",
                            c.qualified()
                        ),
                    });
                    if let Some(ci) = param_index(c, recv) {
                        if let Some(d) = typed.get(&(caller, ci)) {
                            path.push(PathStep {
                                file: c.rel.clone(),
                                line: c.params[ci].line,
                                detail: format!(
                                    "origin: `{}: {}` ({})",
                                    recv,
                                    c.params[ci].ty,
                                    d.label()
                                ),
                            });
                        }
                    }
                    break;
                }
                Why::FlowIdent {
                    caller,
                    caller_param,
                    line,
                } => {
                    let c = &table.fns[caller];
                    let cp = &c.params[caller_param];
                    path.push(PathStep {
                        file: c.rel.clone(),
                        line,
                        detail: format!("`{}` forwards `{}`", c.qualified(), cp.name),
                    });
                    if let Some(d) = typed.get(&(caller, caller_param)) {
                        path.push(PathStep {
                            file: c.rel.clone(),
                            line: cp.line,
                            detail: format!("origin: `{}: {}` ({})", cp.name, cp.ty, d.label()),
                        });
                        break;
                    }
                    match facts.get(&(caller, caller_param)) {
                        Some((_, next)) => cur = next.clone(),
                        None => break,
                    }
                    if matches!(cur, Why::Named) {
                        path.push(PathStep {
                            file: c.rel.clone(),
                            line: cp.line,
                            detail: format!("origin: `{}: f64` named with a unit word", cp.name),
                        });
                        break;
                    }
                }
            }
        }
        findings.entry(key).or_insert(Finding {
            check: PASS,
            file: f.rel.clone(),
            line: p.line,
            message: format!(
                "raw-f64 boundary: `{}` parameter `{}` receives a {} value with its unit stripped",
                f.qualified(),
                p.name,
                dim.label()
            ),
            path,
        });
    }

    // Return wrapping: `Quantity::new(g(...))` where `g -> f64`.
    for (id, f) in table.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for call in &f.calls {
            if call.method || call.name() != "new" || call.path.len() < 2 {
                continue;
            }
            let qty = &call.path[call.path.len() - 2];
            let Some(dim) = dim_of_type(qty) else {
                continue;
            };
            let [ArgShape::Call(inner)] = call.args.as_slice() else {
                continue;
            };
            let pseudo = crate::parse::CallSite {
                path: inner.clone(),
                method: false,
                line: call.line,
                args: Vec::new(),
            };
            for gid in table.resolve(&table.fns[id], &pseudo) {
                let g = &table.fns[gid];
                if g.ret.as_deref() != Some("f64") || !reportable_boundary(g) {
                    continue;
                }
                if allowed(f, call.line) || allowed(g, g.line) {
                    continue;
                }
                let key = format!("{PASS}:{}:return:{}", g.qualified(), dim.label());
                findings.entry(key).or_insert(Finding {
                    check: PASS,
                    file: f.rel.clone(),
                    line: call.line,
                    message: format!(
                        "raw-f64 return: `{}` yields bare f64 wrapped into `{qty}` ({}) at the call site",
                        g.qualified(),
                        dim.label()
                    ),
                    path: vec![
                        PathStep {
                            file: f.rel.clone(),
                            line: call.line,
                            detail: format!(
                                "`{}` wraps `{}(...)` into `{qty}::new`",
                                f.qualified(),
                                g.name
                            ),
                        },
                        PathStep {
                            file: g.rel.clone(),
                            line: g.line,
                            detail: format!("`{}` returns raw `f64`", g.qualified()),
                        },
                    ],
                });
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::scan;
    use crate::parse::{self, ParsedFile};
    use crate::walk::{Role, SourceFile};
    use std::path::PathBuf;

    fn file(rel: &str, crate_name: &str, src: &str) -> (SourceFile, ScannedFile, ParsedFile) {
        let mut scanned = scan(src);
        let parsed = parse::parse(&scanned.tokens);
        parse::expand_allows(&parsed, &mut scanned.allows);
        (
            SourceFile {
                path: PathBuf::from(rel),
                rel: rel.to_owned(),
                role: Role::Library,
                crate_name: crate_name.to_owned(),
            },
            scanned,
            parsed,
        )
    }

    fn analyze(files: Vec<(SourceFile, ScannedFile, ParsedFile)>) -> Vec<(String, Finding)> {
        let pairs: Vec<(SourceFile, ParsedFile)> = files
            .iter()
            .map(|(s, _, p)| (s.clone(), p.clone()))
            .collect();
        let scanned: Vec<ScannedFile> = files.into_iter().map(|(_, sc, _)| sc).collect();
        let table = SymbolTable::build(&pairs);
        let graph = callgraph::build(&table);
        run(&table, &graph, &scanned).into_iter().collect()
    }

    #[test]
    fn value_read_into_raw_f64_param_is_flagged() {
        let findings = analyze(vec![file(
            "crates/power/src/lib.rs",
            "power",
            "pub fn scale(x: f64, frac: Fraction) -> f64 { x }\n\
             pub fn residual(load: Watts, frac: Fraction) -> f64 { scale(load.value(), frac) }",
        )]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        let (key, f) = &findings[0];
        assert_eq!(key, "unit-flow:power::scale:x:power");
        assert!(f
            .path
            .iter()
            .any(|s| s.detail.contains("dimension stripped")));
        assert!(f.path.iter().any(|s| s.detail.contains("origin")));
    }

    #[test]
    fn dimension_flows_transitively_through_bare_idents() {
        let findings = analyze(vec![file(
            "crates/power/src/lib.rs",
            "power",
            "pub fn deep(y: f64) -> f64 { y }\n\
             pub fn mid(x: f64) -> f64 { deep(x) }\n\
             pub fn top(load: Watts) -> f64 { mid(load.value()) }",
        )]);
        let keys: Vec<&str> = findings.iter().map(|(key, _)| key.as_str()).collect();
        assert!(
            keys.contains(&"unit-flow:power::mid:x:power"),
            "keys: {keys:?}"
        );
        assert!(
            keys.contains(&"unit-flow:power::deep:y:power"),
            "keys: {keys:?}"
        );
    }

    #[test]
    fn event_time_params_carry_the_time_dimension() {
        let findings = analyze(vec![file(
            "crates/engine/src/calendar.rs",
            "engine",
            "pub fn offset(at: f64) -> f64 { at }\n\
             pub fn window(hi: EventTime) -> f64 { offset(hi) }",
        )]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].0, "unit-flow:engine::offset:at:time");
    }

    #[test]
    fn typed_boundary_and_units_crate_are_clean() {
        let findings = analyze(vec![
            file(
                "crates/power/src/lib.rs",
                "power",
                "pub fn residual(load: Watts, frac: Fraction) -> Watts { load }",
            ),
            file(
                "crates/units/src/quantity.rs",
                "units",
                "pub fn raw(v: f64) -> f64 { v }\n\
                 pub fn convert(w: Watts) -> f64 { raw(w.value()) }",
            ),
        ]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn return_wrap_of_raw_f64_is_flagged_and_allow_suppresses() {
        let findings = analyze(vec![file(
            "crates/battery/src/lib.rs",
            "battery",
            "pub fn runtime_raw(soc: f64) -> f64 { soc }\n\
             pub fn runtime(soc: f64) -> Minutes { Minutes::new(runtime_raw(soc)) }",
        )]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].0, "unit-flow:battery::runtime_raw:return:time");

        let silenced = analyze(vec![file(
            "crates/battery/src/lib.rs",
            "battery",
            "// dcb-audit: allow(unit-flow, internal helper, wrapped once at the public seam)\n\
             pub fn runtime_raw(soc: f64) -> f64 { soc }\n\
             pub fn runtime(soc: f64) -> Minutes { Minutes::new(runtime_raw(soc)) }",
        )]);
        assert!(silenced.is_empty(), "findings: {silenced:?}");
    }
}
