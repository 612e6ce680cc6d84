//! The `mvc-lint` binary: lint the workspace, print findings, gate CI.
//!
//! Usage:
//!   mvc-lint [--deny] [--config PATH] [--root PATH] [FILES...]
//!
//! With no FILES, lints every source file the workspace walker finds.
//! `--deny` exits 1 when there are findings (the CI mode); without it the
//! exit code is always 0 so the tool can be used exploratorily.

#![allow(clippy::print_stdout, reason = "the findings are the tool's output")]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut config_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--config" => match argv.next() {
                Some(p) => config_path = Some(PathBuf::from(p)),
                None => return usage("--config needs a path"),
            },
            "--root" => match argv.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "mvc-lint: static-analysis gate for the mixed-vector-clock workspace\n\n\
                     usage: mvc-lint [--deny] [--config lint.toml] [--root DIR] [FILES...]\n\n\
                     --deny     exit 1 on any finding (CI mode)\n\
                     --config   config file (default: ROOT/lint.toml)\n\
                     --root     workspace root (default: nearest dir with lint.toml)\n\
                     FILES      workspace-relative files to lint (default: whole workspace)"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag `{other}`"));
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("mvc-lint: no lint.toml found here or in any parent directory");
            return ExitCode::FAILURE;
        }
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = match mvc_lint::Config::load(&config_path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mvc-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let whole_workspace = files.is_empty();
    let paths = if whole_workspace {
        match mvc_lint::workspace_files(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("mvc-lint: walking {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        files
    };

    let mut diags = match mvc_lint::lint_paths(&root, &paths, &cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mvc-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !whole_workspace {
        // Given FILES, a config entry for any other file matches nothing:
        // only a whole-workspace run can tell that an entry is stale.
        diags.retain(|d| d.rule != mvc_lint::rules::config_path::RULE);
    }

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("mvc-lint: clean — {} file(s), 0 findings", paths.len());
    } else {
        eprintln!(
            "mvc-lint: {} finding(s) across {} file(s)",
            diags.len(),
            paths.len()
        );
    }

    if deny && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mvc-lint: {msg} (see --help)");
    ExitCode::FAILURE
}

/// Walk upward from the current directory to the nearest `lint.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
