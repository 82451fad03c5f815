//! `he-lint` — the workspace invariant checker.
//!
//! The serving stack carries invariants that ordinary tests only catch
//! when a run happens to hit the bad interleaving: scratch-pool locks are
//! held only for pop/push (PR 2), the warm product path performs zero heap
//! allocations (PR 1), an unwinding backend can never drop reply sinks
//! (PR 6). This crate checks them *statically*, as a CI gate:
//!
//! ```text
//! cargo run -p he-lint -- --check
//! ```
//!
//! The rules (see [`rules`]) are repo-specific by design — a hand-rolled
//! lexer/line-scanner over `crates/*/src`, dependency-free so it runs in
//! the same offline environment as the build it gates. Regions are marked
//! in source (`// lint: supervisor`, `// lint: no-alloc`), waivers are
//! inline and must carry a reason (`// lint: allow(<rule>) — <why>`), and
//! grandfathered findings live in `crates/lint/baseline.json` — which this
//! workspace keeps **empty**: everything the tool found was fixed when it
//! landed.

#![forbid(unsafe_code)]

pub mod report;
pub mod rules;
pub mod scanner;

use std::fs;
use std::path::{Path, PathBuf};

use report::BaselineEntry;
use rules::{Finding, ALL_RULES};

/// A finding after baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// New: fails `--check`.
    New,
    /// Matched a baseline entry: reported, does not fail.
    Grandfathered,
}

/// Outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every finding with its baseline status.
    pub findings: Vec<(Finding, Status)>,
    /// Baseline entries no finding matched (stale — must be removed).
    pub stale: Vec<BaselineEntry>,
    /// Files scanned (diagnostic).
    pub files: usize,
}

impl Outcome {
    /// Does this outcome fail `--check`?
    pub fn failed(&self) -> bool {
        !self.stale.is_empty() || self.findings.iter().any(|(_, s)| *s == Status::New)
    }

    pub fn new_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|(_, s)| *s == Status::New)
            .map(|(f, _)| f)
    }
}

/// Scans every workspace crate under `root/crates` and applies the rules.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut findings = Vec::new();

    // The workspace manifest is held to the same hygiene as crate manifests.
    let root_manifest = root.join("Cargo.toml");
    if let Ok(text) = fs::read_to_string(&root_manifest) {
        findings.extend(rules::check_manifest("Cargo.toml", &text));
    }

    for dir in &crate_dirs {
        let rel_dir = rel_path(root, dir);

        let manifest = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        findings.extend(rules::check_manifest(
            &format!("{rel_dir}/Cargo.toml"),
            &text,
        ));

        let crate_root = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|p| dir.join(p))
            .find(|p| p.is_file());

        let mut sources = Vec::new();
        collect_rs(&dir.join("src"), &mut sources);
        sources.sort();
        for source in sources {
            let rel = rel_path(root, &source);
            let text = fs::read_to_string(&source)
                .map_err(|e| format!("cannot read {}: {e}", source.display()))?;
            let scanned = scanner::scan_source(&rel, &text, &ALL_RULES);
            if Some(&source) == crate_root.as_ref() {
                findings.extend(rules::check_crate_root(&rel, &scanned));
            }
            findings.extend(rules::check_file(&scanned));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Scans and compares against a baseline (empty slice = no baseline).
pub fn run(root: &Path, baseline: &[BaselineEntry]) -> Result<Outcome, String> {
    let findings = scan_workspace(root)?;
    let files = count_sources(root);
    let mut used = vec![false; baseline.len()];
    let mut out = Outcome {
        files,
        ..Outcome::default()
    };
    for f in findings {
        let hit = baseline
            .iter()
            .position(|b| b.rule == f.rule && b.file == f.file && b.key == f.key);
        match hit {
            Some(i) => {
                used[i] = true;
                out.findings.push((f, Status::Grandfathered));
            }
            None => out.findings.push((f, Status::New)),
        }
    }
    out.stale = baseline
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(b, _)| b.clone())
        .collect();
    Ok(out)
}

fn count_sources(root: &Path) -> usize {
    let mut sources = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("src"), &mut sources);
        }
    }
    sources.len()
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_are_slash_separated() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/core/src/serve/worker.rs");
        assert_eq!(rel_path(root, p), "crates/core/src/serve/worker.rs");
    }

    #[test]
    fn outcome_failure_logic() {
        let mut out = Outcome::default();
        assert!(!out.failed());
        out.stale.push(BaselineEntry {
            rule: "x".into(),
            file: "y".into(),
            key: "z".into(),
        });
        assert!(out.failed());
    }
}
