//! The determinism-taint pass: find nondeterministic *sources* (hash
//! iteration, wall-clock reads, thread ids, unordered reductions), follow
//! them along the call graph, and report every path on which tainted data
//! can reach a determinism *sink* (scenario digests, topology digests,
//! telemetry snapshots, trace encoders, bench artifact writers).
//!
//! The granularity is the function, not the value: if a fn's body contains
//! a source, everything the fn computes is considered tainted, and every
//! caller of a tainted fn is tainted in turn (data escapes through return
//! values and out-params alike). That is a deliberate over-approximation —
//! the baseline ratchet absorbs the noise, and the witness path attached
//! to each finding makes triage cheap.
//!
//! Two escape hatches keep the pass honest about sanctioned patterns:
//!
//! - **Sanitizers**: a fn whose body restores order (a `sort*` call or a
//!   `BTreeMap`/`BTreeSet` funnel) is a barrier — taint does not propagate
//!   through it, and hash iteration inside it is not seeded as a source.
//! - **Allows**: `// dcb-audit: allow(determinism-taint, reason)` above a
//!   source, a sink call site, or a sink definition suppresses the
//!   findings it participates in.

use crate::callgraph::CallGraph;
use crate::lexer::{ScannedFile, Token};
use crate::report::{GraphFinding, PathStep};
use crate::symbols::{FnDef, SymbolTable};
use crate::walk::Role;
use std::collections::{BTreeMap, VecDeque};

/// Pass identifier — the lint name used in reports and allow directives.
pub const PASS: &str = "determinism-taint";

/// One nondeterminism source seeded inside a fn body.
#[derive(Debug, Clone, Copy)]
struct SourceSite {
    kind: &'static str,
    line: u32,
}

/// Hash-container iteration methods (order observed if the receiver is a
/// `HashMap`/`HashSet` in the same body).
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Order-restoring idents: any of these in a body makes it a sanitizer.
const SORT_FAMILY: [&str; 6] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Unordered parallel-reduction idents.
const PAR_REDUCERS: [&str; 5] = [
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "reduce_unordered",
];

fn body_tokens<'a>(f: &FnDef, scanned: &'a [ScannedFile]) -> &'a [Token] {
    match f.body {
        Some((start, end)) => &scanned[f.file].tokens[start..end],
        None => &[],
    }
}

fn has_ident(tokens: &[Token], names: &[&str]) -> Option<u32> {
    tokens
        .iter()
        .find(|t| t.kind.ident().is_some_and(|id| names.contains(&id)))
        .map(|t| t.line)
}

/// First line where `a :: b` appears, idents `a` and `b` exact.
fn has_path2(tokens: &[Token], a: &str, b: &str) -> Option<u32> {
    tokens.windows(3).find_map(|w| {
        (w[0].kind.is_ident(a) && w[1].kind.is_op("::") && w[2].kind.is_ident(b))
            .then_some(w[0].line)
    })
}

/// Whether the body restores deterministic order before data escapes.
fn is_sanitizer(tokens: &[Token]) -> bool {
    has_ident(tokens, &SORT_FAMILY).is_some()
        || has_ident(tokens, &["BTreeMap", "BTreeSet"]).is_some()
}

/// Seeds sources in one model-code fn body. The hash container may enter
/// through a parameter type rather than a body-local binding.
fn detect_sources(f: &FnDef, tokens: &[Token]) -> Vec<SourceSite> {
    let mut sites = Vec::new();
    let hash_container = has_ident(tokens, &["HashMap", "HashSet"]).is_some()
        || f.params
            .iter()
            .any(|p| p.ty.contains("HashMap") || p.ty.contains("HashSet"));
    if hash_container && !is_sanitizer(tokens) {
        if let Some(line) = has_ident(tokens, &ITER_METHODS) {
            sites.push(SourceSite {
                kind: "hash-iteration",
                line,
            });
        }
    }
    if f.crate_name != "telemetry" {
        if let Some(line) = has_ident(tokens, &["Instant", "SystemTime"]) {
            sites.push(SourceSite {
                kind: "wall-clock",
                line,
            });
        }
    }
    if let Some(line) = has_path2(tokens, "thread", "current") {
        sites.push(SourceSite {
            kind: "thread-id",
            line,
        });
    }
    if let Some(line) = has_ident(tokens, &PAR_REDUCERS) {
        sites.push(SourceSite {
            kind: "unordered-reduction",
            line,
        });
    }
    sites
}

/// Classifies a fn definition as a determinism sink.
fn sink_kind(f: &FnDef) -> Option<&'static str> {
    let n = f.name.as_str();
    match f.crate_name.as_str() {
        "fleet" if n == "digest" => Some("scenario-digest"),
        "topology" if n == "unit_digest" || n == "collapse" => Some("topology-digest"),
        "telemetry" if matches!(n, "snapshot" | "report" | "report_with" | "render") => {
            Some("telemetry-snapshot")
        }
        "trace" if matches!(n, "encode" | "export" | "render" | "tally") => Some("trace-encode"),
        // The calendar orders whatever posts to it: tainted data in a
        // posted time, class, or token reorders events across runs.
        "engine" if n == "post" => Some("engine-calendar"),
        // The root-finder's sample grid is a pure function of its inputs;
        // tainted bounds or predicates move the located root.
        "engine" if n == "first_true" => Some("engine-locate"),
        _ => None,
    }
}

/// Detects an artifact-writer site (BENCH_*.json and friends) in a bench
/// or binary fn body.
fn writer_site(f: &FnDef, tokens: &[Token]) -> Option<u32> {
    if !matches!(f.role, Role::Bench | Role::Binary) || f.in_test {
        return None;
    }
    has_path2(tokens, "fs", "write")
        .or_else(|| has_path2(tokens, "File", "create"))
        .or_else(|| has_ident(tokens, &["write_all"]))
}

/// Whether a fn may feed committed/rendered artifacts (reportable sink
/// caller). Test code never does.
fn reportable(f: &FnDef) -> bool {
    !f.in_test && matches!(f.role, Role::Library | Role::Binary | Role::Bench)
}

/// Runs the pass. `scanned` must parallel the symbol table's file order.
#[must_use]
pub fn run(table: &SymbolTable, graph: &CallGraph, scanned: &[ScannedFile]) -> Vec<GraphFinding> {
    let n = table.fns.len();
    let mut sources: Vec<Vec<SourceSite>> = vec![Vec::new(); n];
    let mut sanitizer = vec![false; n];
    for (id, f) in table.fns.iter().enumerate() {
        let tokens = body_tokens(f, scanned);
        sanitizer[id] = is_sanitizer(tokens);
        if f.is_model_code() {
            sources[id] = detect_sources(f, tokens);
        }
    }

    // Reverse BFS: callers of tainted fns become tainted. `witness[id]`
    // holds the edge (id → callee) that carried the taint in.
    let mut witness: Vec<Option<usize>> = vec![None; n];
    let mut tainted = vec![false; n];
    let mut queue = VecDeque::new();
    for id in 0..n {
        if !sources[id].is_empty() {
            tainted[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &edge_id in &graph.callers[id] {
            let caller = graph.edges[edge_id].caller;
            if !tainted[caller] && !sanitizer[caller] {
                tainted[caller] = true;
                witness[caller] = Some(edge_id);
                queue.push_back(caller);
            }
        }
    }

    // Witness chain from a tainted fn back to its seeding source.
    let chain = |from: usize| -> (Vec<PathStep>, usize) {
        let mut steps = Vec::new();
        let mut cur = from;
        while let Some(edge_id) = witness[cur] {
            let edge = &graph.edges[edge_id];
            let callee = &table.fns[edge.callee];
            steps.push(PathStep {
                file: table.fns[cur].rel.clone(),
                line: edge.line,
                detail: format!(
                    "`{}` takes data from `{}`",
                    table.fns[cur].qualified(),
                    callee.qualified()
                ),
            });
            cur = edge.callee;
        }
        let src = &table.fns[cur];
        let site = sources[cur].first().copied().unwrap_or(SourceSite {
            kind: "unknown",
            line: src.line,
        });
        steps.push(PathStep {
            file: src.rel.clone(),
            line: site.line,
            detail: format!("source: {} in `{}`", site.kind, src.qualified()),
        });
        (steps, cur)
    };

    let allowed = |file: usize, line: u32| scanned[file].allowed(PASS, line);

    let mut findings: BTreeMap<String, GraphFinding> = BTreeMap::new();
    let mut push = |key: String, finding: GraphFinding| {
        findings.entry(key).or_insert(finding);
    };

    for (sid, sink) in table.fns.iter().enumerate() {
        let Some(kind) = sink_kind(sink) else {
            continue;
        };
        if allowed(sink.file, sink.line) {
            continue;
        }
        if tainted[sid] && !sources[sid].is_empty() || witness[sid].is_some() {
            // The sink definition itself computes tainted data.
            let (steps, root) = chain(sid);
            let site = sources[root].first().copied();
            emit_sink_self(&mut push, table, sink, sid, kind, steps, site, root);
        }
        for &edge_id in &graph.callers[sid] {
            let edge = &graph.edges[edge_id];
            let caller = &table.fns[edge.caller];
            if !tainted[edge.caller] || !reportable(caller) {
                continue;
            }
            if allowed(caller.file, edge.line) {
                continue;
            }
            let (tail, root) = chain(edge.caller);
            let root_def = &table.fns[root];
            let site = sources[root].first().copied();
            if allowed(root_def.file, site.map_or(root_def.line, |s| s.line)) {
                continue;
            }
            let kind_src = site.map_or("unknown", |s| s.kind);
            let key = format!(
                "{PASS}:{}:{kind}:{kind_src}:{}",
                sink.qualified(),
                root_def.qualified()
            );
            let mut path = vec![PathStep {
                file: caller.rel.clone(),
                line: edge.line,
                detail: format!(
                    "sink: `{}` feeds `{}` ({kind})",
                    caller.qualified(),
                    sink.qualified()
                ),
            }];
            path.extend(tail);
            let finding = GraphFinding {
                pass: PASS,
                key: key.clone(),
                file: caller.rel.clone(),
                line: edge.line,
                message: format!(
                    "{kind_src} in `{}` reaches determinism sink `{}` ({kind})",
                    root_def.qualified(),
                    sink.qualified()
                ),
                path,
            };
            push(key, finding);
        }
    }

    // Artifact writers: the writing fn is its own sink.
    for (id, f) in table.fns.iter().enumerate() {
        if !tainted[id] {
            continue;
        }
        let Some(line) = writer_site(f, body_tokens(f, scanned)) else {
            continue;
        };
        if allowed(f.file, line) {
            continue;
        }
        let (tail, root) = chain(id);
        let root_def = &table.fns[root];
        let site = sources[root].first().copied();
        if allowed(root_def.file, site.map_or(root_def.line, |s| s.line)) {
            continue;
        }
        let kind_src = site.map_or("unknown", |s| s.kind);
        let key = format!(
            "{PASS}:{}:artifact-writer:{kind_src}:{}",
            f.qualified(),
            root_def.qualified()
        );
        let mut path = vec![PathStep {
            file: f.rel.clone(),
            line,
            detail: format!("sink: `{}` writes an artifact", f.qualified()),
        }];
        path.extend(tail);
        path.dedup();
        let finding = GraphFinding {
            pass: PASS,
            key: key.clone(),
            file: f.rel.clone(),
            line,
            message: format!(
                "{kind_src} in `{}` reaches artifact writer `{}`",
                root_def.qualified(),
                f.qualified()
            ),
            path,
        };
        push(key, finding);
    }

    findings.into_values().collect()
}

#[allow(clippy::too_many_arguments)]
fn emit_sink_self(
    push: &mut impl FnMut(String, GraphFinding),
    table: &SymbolTable,
    sink: &FnDef,
    _sid: usize,
    kind: &'static str,
    steps: Vec<PathStep>,
    site: Option<SourceSite>,
    root: usize,
) {
    let root_def = &table.fns[root];
    let kind_src = site.map_or("unknown", |s| s.kind);
    let key = format!(
        "{PASS}:{}:{kind}:{kind_src}:{}",
        sink.qualified(),
        root_def.qualified()
    );
    let mut path = vec![PathStep {
        file: sink.rel.clone(),
        line: sink.line,
        detail: format!(
            "sink: `{}` ({kind}) computes tainted data",
            sink.qualified()
        ),
    }];
    path.extend(steps);
    path.dedup();
    let finding = GraphFinding {
        pass: PASS,
        key: key.clone(),
        file: sink.rel.clone(),
        line: sink.line,
        message: format!(
            "{kind_src} in `{}` reaches determinism sink `{}` ({kind})",
            root_def.qualified(),
            sink.qualified()
        ),
        path,
    };
    push(key, finding);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::scan;
    use crate::parse::{self, ParsedFile};
    use crate::walk::SourceFile;
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

    fn analyze(files: Vec<(SourceFile, ScannedFile, ParsedFile)>) -> Vec<GraphFinding> {
        let pairs: Vec<(SourceFile, ParsedFile)> = files
            .iter()
            .map(|(s, _, p)| (s.clone(), p.clone()))
            .collect();
        let scanned: Vec<ScannedFile> = files.into_iter().map(|(_, sc, _)| sc).collect();
        let table = SymbolTable::build(&pairs);
        let graph = callgraph::build(&table);
        run(&table, &graph, &scanned)
    }

    #[test]
    fn hash_iteration_reaching_digest_is_reported_with_a_path() {
        let findings = analyze(vec![
            file(
                "crates/fleet/src/scenario.rs",
                "fleet",
                "impl Scenario { pub fn digest(&self) -> u128 { 0 } }",
            ),
            file(
                "crates/power/src/lib.rs",
                "power",
                "use std::collections::HashMap;\n\
                 pub fn order(m: &HashMap<u32, f64>) -> Vec<f64> { m.values().copied().collect() }\n\
                 pub fn seal(s: &Scenario, m: &HashMap<u32, f64>) -> u128 { let _v = order(m); s.digest() }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        let f = &findings[0];
        assert_eq!(f.pass, PASS);
        assert!(f.key.contains("fleet::Scenario::digest"));
        assert!(f.key.contains("hash-iteration"));
        assert!(f.key.contains("power::order"));
        // Path: sink call in seal, hop seal→order, source in order.
        assert_eq!(f.path.len(), 3, "path: {:?}", f.path);
        assert!(f.path[0].detail.contains("sink"));
        assert!(f.path[2].detail.contains("source: hash-iteration"));
    }

    #[test]
    fn wall_clock_reaching_the_engine_locate_sink_is_reported() {
        let findings = analyze(vec![
            file(
                "crates/engine/src/locate.rs",
                "engine",
                "pub fn first_true(lo: f64, hi: f64) -> f64 { lo }",
            ),
            file(
                "crates/power/src/lib.rs",
                "power",
                "pub fn stamp() -> f64 { let _t = Instant::now(); 0.0 }\n\
                 pub fn locate(hi: f64) -> f64 { first_true(stamp(), hi) }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        let f = &findings[0];
        assert!(f.key.contains("engine-locate"), "key: {}", f.key);
        assert!(f.key.contains("wall-clock"), "key: {}", f.key);
    }

    #[test]
    fn sort_sanitizes_the_chain() {
        let findings = analyze(vec![
            file(
                "crates/fleet/src/scenario.rs",
                "fleet",
                "impl Scenario { pub fn digest(&self) -> u128 { 0 } }",
            ),
            file(
                "crates/power/src/lib.rs",
                "power",
                "use std::collections::HashMap;\n\
                 pub fn order(m: &HashMap<u32, f64>) -> Vec<f64> {\n\
                     let mut v: Vec<f64> = m.values().copied().collect();\n\
                     v.sort_by(f64::total_cmp); v\n\
                 }\n\
                 pub fn seal(s: &Scenario, m: &HashMap<u32, f64>) -> u128 { let _v = order(m); s.digest() }",
            ),
        ]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn allow_above_the_source_fn_suppresses() {
        let findings = analyze(vec![
            file(
                "crates/fleet/src/scenario.rs",
                "fleet",
                "impl Scenario { pub fn digest(&self) -> u128 { 0 } }",
            ),
            file(
                "crates/power/src/lib.rs",
                "power",
                "use std::collections::HashMap;\n\
                 // dcb-audit: allow(determinism-taint, values feed a max-reduction, order-free)\n\
                 pub fn order(m: &HashMap<u32, f64>) -> Vec<f64> { m.values().copied().collect() }\n\
                 pub fn seal(s: &Scenario, m: &HashMap<u32, f64>) -> u128 { let _v = order(m); s.digest() }",
            ),
        ]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn wall_clock_is_exempt_inside_telemetry() {
        let findings = analyze(vec![
            file(
                "crates/telemetry/src/span.rs",
                "telemetry",
                "pub fn start() -> Instant { Instant::now() }\n\
                 pub fn snapshot() -> u32 { 0 }",
            ),
            file(
                "crates/trace/src/event.rs",
                "trace",
                "impl Event { pub fn encode(&self) -> String { String::new() } }",
            ),
        ]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }
}
