//! The `dcb-audit` CLI.
//!
//! ```sh
//! dcb-audit check [--root <path>]   # token lints, call-graph passes and doc
//!                                   # references; exit 1 on any finding
//! dcb-audit lints                   # print the token lints and their exempt crates
//! dcb-audit sweep                   # contract replay; exit 1 on violations
//! ```

use dcb_audit::{audit, lints, report, sweep};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: dcb-audit <check [--root <path>] | lints | sweep>"
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
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown check option `{other}`\n{}", usage())),
        }
    }
    let report = audit(&find_root(root)?).map_err(|e| e.to_string())?;
    print!("{}", report::render_text(&report));
    Ok(if report.findings.is_empty() {
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
        Some("lints") => Ok(cmd_lints()),
        Some("sweep") => Ok(cmd_sweep()),
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
