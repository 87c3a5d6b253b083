//! The `dcb-audit` CLI.
//!
//! ```sh
//! dcb-audit check [--json] [--root <path>]   # static lints; exit 1 on findings
//! dcb-audit graph [--json] [--baseline <p>] [--write-baseline] [--root <p>]
//!                                            # call-graph passes; exit 1 on NEW findings
//! dcb-audit lints                            # print the lints and their exempt crates
//! dcb-audit sweep                            # contract replay; exit 1 on violations
//! ```

use dcb_audit::{baseline, check_workspace, docs, graph, lints, report, sweep};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: dcb-audit <check [--json] [--root <path>] \
     | graph [--json] [--baseline <path>] [--write-baseline] [--root <path>] \
     | lints | sweep | docs [--root <path>]>"
}

/// Finds the workspace root: `--root` if given, else ascend from the
/// current directory until a `Cargo.toml` next to a `crates/` directory
/// appears.
fn find_root(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(root) = explicit {
        return if root.join("crates").is_dir() {
            Ok(root)
        } else {
            Err(format!(
                "--root {}: no crates/ directory there",
                root.display()
            ))
        };
    }
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    for _ in 0..6 {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            break;
        }
    }
    Err("workspace root not found (run from inside the repo or pass --root)".to_owned())
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown check option `{other}`\n{}", usage())),
        }
    }
    let root = find_root(root)?;
    let findings = check_workspace(&root).map_err(|e| e.to_string())?;
    if json {
        print!("{}", report::render_json(&findings));
    } else {
        print!("{}", report::render_text(&findings));
    }
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_graph(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut write = false;
    let mut root = None;
    let mut baseline_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--write-baseline" => write = true,
            "--baseline" => {
                let path = it.next().ok_or("--baseline needs a path")?;
                baseline_path = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown graph option `{other}`\n{}", usage())),
        }
    }
    let root = find_root(root)?;
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("audit.baseline.json"));
    let report = graph::analyze_root(&root).map_err(|e| e.to_string())?;
    if write {
        let text = baseline::render(&report.findings);
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "wrote {} ({} entr{})",
            baseline_path.display(),
            report.findings.len(),
            if report.findings.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
        return Ok(ExitCode::SUCCESS);
    }
    let base = baseline::load(&baseline_path)?;
    let diff = baseline::diff(&report.findings, &base);
    if json {
        print!("{}", graph::render_json(&report, &diff));
    } else {
        print!("{}", graph::render_text(&report, &diff));
    }
    Ok(if diff.fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_lints() -> ExitCode {
    println!("{:<18} {:<34} summary", "lint", "exempt");
    for spec in lints::all() {
        let exempt = if spec.exempt_crates.is_empty() {
            "-".to_owned()
        } else {
            spec.exempt_crates.join(",")
        };
        println!("{:<18} {:<34} {}", spec.name, exempt, spec.summary);
    }
    println!("\nevery lint covers library and binary code outside #[cfg(test)]");
    println!("suppress an intentional site with `// dcb-audit: allow(<lint>, reason)` on or above the line");
    ExitCode::SUCCESS
}

fn cmd_docs(args: &[String]) -> Result<ExitCode, String> {
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown docs option `{other}`\n{}", usage())),
        }
    }
    let root = find_root(root)?;
    let findings = docs::check_docs(&root)?;
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("docs: all markdown links and DESIGN.md section references resolve");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("docs: {} broken reference(s)", findings.len());
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_sweep() -> ExitCode {
    let summary = sweep::run();
    print!("{}", summary.render());
    if summary.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("lints") => Ok(cmd_lints()),
        Some("sweep") => Ok(cmd_sweep()),
        Some("docs") => cmd_docs(&args[1..]),
        _ => Err(usage().to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dcb-audit: {msg}");
            ExitCode::FAILURE
        }
    }
}
