//! Self-tests: the fixture corpus and the workspace gate.
//!
//! Two directions, both load-bearing:
//! - every `*_bad.rs` fixture triggers **exactly** its rule (a rule that
//!   silently stops firing, or starts firing other rules' tokens, breaks
//!   this suite);
//! - every `*_clean.rs` fixture passes **all** rules;
//! - the workspace itself scans clean against an **empty** baseline — the
//!   invariants the tool encodes actually hold in this tree.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use he_lint::report::parse_baseline;
use he_lint::rules::{self, Finding, ALL_RULES};
use he_lint::scanner::scan_source;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scan_fixture(name: &str) -> Vec<Finding> {
    let path = fixtures_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let scanned = scan_source(name, &text, &ALL_RULES);
    rules::check_file(&scanned)
}

fn rules_fired(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// A bad fixture must produce at least one finding, all under its own rule.
fn assert_exactly(name: &str, rule: &str) {
    let findings = scan_fixture(name);
    assert!(
        !findings.is_empty(),
        "{name}: expected findings for rule `{rule}`, got none"
    );
    let fired = rules_fired(&findings);
    assert_eq!(
        fired,
        BTreeSet::from([rule]),
        "{name}: expected only `{rule}`, got {findings:#?}"
    );
}

fn assert_clean(name: &str) {
    let findings = scan_fixture(name);
    assert!(
        findings.is_empty(),
        "{name}: expected clean, got {findings:#?}"
    );
}

#[test]
fn lock_discipline_fixture_fires_exactly() {
    assert_exactly("lock_discipline_bad.rs", "lock-discipline");
    // One finding per BAD function: `forward_into`, `multiply_batch`, and
    // the engine's own `forward_in_place`.
    assert_eq!(scan_fixture("lock_discipline_bad.rs").len(), 3);
}

#[test]
fn panic_path_fixture_fires_exactly() {
    assert_exactly("panic_path_bad.rs", "panic-path");
}

#[test]
fn sink_resolution_fixture_fires_exactly() {
    assert_exactly("sink_resolution_bad.rs", "sink-resolution");
}

#[test]
fn no_alloc_fixture_fires_exactly() {
    assert_exactly("no_alloc_bad.rs", "no-alloc");
}

#[test]
fn directive_fixture_fires_exactly() {
    assert_exactly("directive_bad.rs", "directive");
}

#[test]
fn crate_hygiene_fixture_fires_exactly() {
    let dir = fixtures_dir().join("hygiene_bad");
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml.test")).expect("manifest");
    let manifest_findings = rules::check_manifest("hygiene_bad/Cargo.toml", &manifest);
    assert_eq!(
        manifest_findings.len(),
        3,
        "serde, tokio and leftpad must each be flagged: {manifest_findings:#?}"
    );

    let root = std::fs::read_to_string(dir.join("src/lib.rs")).expect("crate root");
    let scanned = scan_source("hygiene_bad/src/lib.rs", &root, &ALL_RULES);
    let root_findings = rules::check_crate_root("hygiene_bad/src/lib.rs", &scanned);
    assert_eq!(root_findings.len(), 1, "missing forbid must be flagged");

    let all: Vec<Finding> = manifest_findings.into_iter().chain(root_findings).collect();
    assert_eq!(rules_fired(&all), BTreeSet::from(["crate-hygiene"]));
}

#[test]
fn clean_fixtures_pass_every_rule() {
    assert_clean("lock_discipline_clean.rs");
    assert_clean("panic_path_clean.rs");
    assert_clean("sink_resolution_clean.rs");
    assert_clean("no_alloc_clean.rs");
    assert_clean("directive_clean.rs");

    let dir = fixtures_dir().join("hygiene_clean");
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml.test")).expect("manifest");
    assert!(rules::check_manifest("hygiene_clean/Cargo.toml", &manifest).is_empty());
    let root = std::fs::read_to_string(dir.join("src/lib.rs")).expect("crate root");
    let scanned = scan_source("hygiene_clean/src/lib.rs", &root, &ALL_RULES);
    assert!(rules::check_crate_root("hygiene_clean/src/lib.rs", &scanned).is_empty());
}

/// The gate itself: the whole workspace scans clean, and the checked-in
/// baseline is (and stays) empty.
#[test]
fn workspace_scans_clean_with_an_empty_baseline() {
    let root = workspace_root();
    let baseline_text = std::fs::read_to_string(root.join("crates/lint/baseline.json"))
        .expect("baseline.json present");
    let baseline = parse_baseline(&baseline_text).expect("baseline parses");
    assert!(
        baseline.is_empty(),
        "the baseline must stay empty — fix findings instead of grandfathering them"
    );

    let outcome = he_lint::run(&root, &baseline).expect("workspace scan");
    assert!(outcome.files > 20, "sanity: the scan saw the workspace");
    let new: Vec<_> = outcome.new_findings().collect();
    assert!(new.is_empty(), "workspace findings: {new:#?}");
    assert!(outcome.stale.is_empty());
}
