//! The invariant checks.
//!
//! Each rule is a pass over a [`ScanFile`] (or, for crate hygiene, over a
//! manifest / crate root) producing [`Finding`]s. The rules encode
//! workspace history, not general Rust style:
//!
//! - `lock-discipline` (PR 2): a mutex guard's live range may not span a
//!   call into a transform/multiply entry point. The scratch-pool design
//!   holds locks only for pop/push; holding one across `forward_in_place`
//!   or `multiply_batch` serializes the whole fleet on one card's product.
//! - `panic-path` (PR 6): inside `// lint: supervisor` regions — the serve
//!   worker loop, flush stages and restart logic — no `unwrap`/`expect`/
//!   `panic!`/slice indexing. `catch_unwind` protects flushes from a dying
//!   *backend*; a panic in the supervisor itself hangs every client whose
//!   sink it holds.
//! - `sink-resolution` (PR 6): a constructed reply sink must reach a
//!   resolve/send/requeue on every path before scope exit, and must never
//!   be moved into a `catch_unwind` closure (an unwind there drops it and
//!   the waiting client blocks forever).
//! - `no-alloc` (PR 1): inside `// lint: no-alloc` regions — the transform
//!   kernels and scratch checkout — no allocating calls. This statically
//!   complements the counting-allocator test in `alloc_counting.rs`.
//! - `crate-hygiene` (PR 1): every crate root keeps `#![forbid(unsafe_code)]`
//!   and manifests only reference workspace/path dependencies — the build
//!   must stay offline-reproducible with the vendored subset.

use crate::scanner::{is_ident_char, Region, ScanFile};

/// Rule identifiers, as they appear in reports, waivers and the baseline.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const PANIC_PATH: &str = "panic-path";
pub const SINK_RESOLUTION: &str = "sink-resolution";
pub const NO_ALLOC: &str = "no-alloc";
pub const CRATE_HYGIENE: &str = "crate-hygiene";
pub const DIRECTIVE: &str = "directive";

/// All rules, in report order.
pub const ALL_RULES: [&str; 6] = [
    LOCK_DISCIPLINE,
    PANIC_PATH,
    SINK_RESOLUTION,
    NO_ALLOC,
    CRATE_HYGIENE,
    DIRECTIVE,
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// Baseline identity: stable under unrelated edits (trimmed line text,
    /// not the line number).
    pub key: String,
}

fn finding(rule: &'static str, file: &ScanFile, idx: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel.clone(),
        line: idx + 1,
        message,
        key: file.lines[idx].raw.trim().to_string(),
    }
}

/// Runs every source-level rule over one scanned file.
pub fn check_file(file: &ScanFile) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(lock_discipline(file));
    out.extend(panic_path(file));
    out.extend(sink_resolution(file));
    out.extend(no_alloc(file));
    for (idx, message) in &file.directive_issues {
        out.push(finding(DIRECTIVE, file, *idx, message.clone()));
    }
    out.retain(|f| f.rule == DIRECTIVE || !file.waived(f.rule, f.line - 1));
    out
}

// ---------------------------------------------------------------- helpers

/// Yields `(byte_pos, ident)` for each identifier in `code` directly
/// followed by `(` (a call or call-like macro path segment).
fn calls(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_char(bytes[i] as char) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            if bytes.get(j) == Some(&b'(') {
                out.push((start, &code[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Word-boundary containment: `word` appears in `code` not glued to other
/// identifier characters.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// The identifier (or keyword) that ends at byte `end` (exclusive) after
/// skipping trailing spaces backwards.
fn word_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut e = end;
    while e > 0 && bytes[e - 1] == b' ' {
        e -= 1;
    }
    let mut s = e;
    while s > 0 && is_ident_char(bytes[s - 1] as char) {
        s -= 1;
    }
    &code[s..e]
}

// --------------------------------------------------------- lock-discipline

/// Tokens whose presence in a `let` initializer makes it a candidate lock
/// guard binding.
const ACQUIRERS: [&str; 3] = [".lock()", "lock_or_recover(", "lock_state("];

/// Method names that keep a lock result a *guard* (adapters); any other
/// call after the acquirer means the guard is a statement temporary,
/// dropped at the `;`.
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "into_inner"];

/// Transform/multiply entry points a live guard must not span.
fn is_entry_point(name: &str) -> bool {
    name.starts_with("multiply")
        || name.starts_with("convolve")
        || matches!(
            name,
            "forward_into"
                | "inverse_into"
                | "forward_in_place"
                | "inverse_in_place"
                | "transform_in_place"
                | "prepare"
                | "prepare_many"
        )
}

struct Guard {
    name: String,
    depth: i32,
    bound_at: usize,
}

fn lock_discipline(file: &ScanFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut idx = 0;
    while idx < file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            guards.clear();
            idx += 1;
            continue;
        }
        let code = line.code.as_str();

        // Entry-point calls while any guard is live (skip the binding line
        // itself: the statement temporary case is handled by the adapter
        // analysis below).
        for (_, name) in calls(code) {
            if is_entry_point(name) {
                if let Some(guard) = guards.iter().find(|g| g.bound_at != idx) {
                    out.push(finding(
                        LOCK_DISCIPLINE,
                        file,
                        idx,
                        format!(
                            "`{name}(…)` called while lock guard `{}` (bound on line {}) is live — \
                             release the lock before entering a transform",
                            guard.name,
                            guard.bound_at + 1
                        ),
                    ));
                }
            }
        }

        // Explicit drops release guards.
        if code.contains("drop(") {
            for (pos, name) in calls(code) {
                if name == "drop" {
                    let arg = code[pos + 4..]
                        .trim_start_matches('(')
                        .trim_start()
                        .trim_start_matches("mut ");
                    let arg_name: String = arg.chars().take_while(|&c| is_ident_char(c)).collect();
                    guards.retain(|g| g.name != arg_name);
                }
            }
        }

        // New guard bindings: assemble the full `let … ;` statement.
        if has_word(code, "let") && ACQUIRERS.iter().any(|a| code.contains(a)) {
            let mut stmt = String::new();
            let mut last = idx;
            for j in idx..file.lines.len().min(idx + 15) {
                stmt.push_str(&file.lines[j].code);
                stmt.push(' ');
                last = j;
                if file.lines[j].code.contains(';') {
                    break;
                }
            }
            if let Some(name) = guard_binding(&stmt) {
                guards.push(Guard {
                    name,
                    depth: file.lines[last].depth_close,
                    bound_at: idx,
                });
            }
        }

        guards.retain(|g| line.depth_close >= g.depth);
        idx += 1;
    }
    out
}

/// If `stmt` (one flattened `let` statement) binds a guard that outlives
/// the statement, returns the bound name.
///
/// A binding is a guard only when, after the *last* acquirer token, every
/// further method call is a guard adapter (`unwrap`, `unwrap_or_else`,
/// `into_inner`, …). Anything else (`.pop()`, `.snapshot()`, `.take(…)`)
/// consumes the guard within the statement — it is a temporary, released
/// at the `;`, and holding it never spans the statement boundary.
fn guard_binding(stmt: &str) -> Option<String> {
    let after = ACQUIRERS
        .iter()
        .filter_map(|a| stmt.rfind(a).map(|p| p + a.len()))
        .max()?;
    let tail = &stmt[after..];
    for (_, name) in calls(tail) {
        if !GUARD_ADAPTERS.contains(&name) && !name.ends_with("_inner") {
            return None;
        }
    }
    // Bound name: the identifier after `let` (skipping `mut`).
    let let_pos = stmt.find("let ")?;
    let rest = stmt[let_pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

// -------------------------------------------------------------- panic-path

/// Rust keywords that may directly precede `[` without it being indexing.
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "in", "return", "match", "if", "else", "while", "loop", "for", "break", "continue", "move",
    "ref", "as", "where",
];

fn panic_path(file: &ScanFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !file.in_region(Region::Supervisor, idx) {
            continue;
        }
        let code = line.code.as_str();
        for (token, what) in [
            (".unwrap()", "`unwrap()`"),
            (".expect(", "`expect(…)`"),
            ("panic!", "`panic!`"),
            ("unreachable!", "`unreachable!`"),
            ("todo!", "`todo!`"),
            ("unimplemented!", "`unimplemented!`"),
        ] {
            if code.contains(token) {
                out.push(finding(
                    PANIC_PATH,
                    file,
                    idx,
                    format!(
                        "{what} inside a supervisor region — a panic here hangs every \
                         client whose sink this worker holds; use a fallible pattern"
                    ),
                ));
            }
        }
        // Slice/array indexing: `[` whose preceding token is an expression.
        let bytes = code.as_bytes();
        for (pos, &b) in bytes.iter().enumerate() {
            if b != b'[' || pos == 0 {
                continue;
            }
            let mut p = pos;
            while p > 0 && bytes[p - 1] == b' ' {
                p -= 1;
            }
            if p == 0 {
                continue;
            }
            let prev = bytes[p - 1] as char;
            if prev == '!' {
                continue; // vec![…] and friends
            }
            if !(is_ident_char(prev) || prev == ')' || prev == ']') {
                continue; // type position, slice pattern, attribute…
            }
            let word = word_before(code, p);
            if NON_INDEX_KEYWORDS.contains(&word) {
                continue;
            }
            out.push(finding(
                PANIC_PATH,
                file,
                idx,
                "slice indexing inside a supervisor region — a stale index panics the \
                 worker; use `.get(…)`"
                    .to_string(),
            ));
            break; // one indexing finding per line is enough
        }
    }
    out
}

// --------------------------------------------------------- sink-resolution

/// Initializer tokens that construct a completion sink (or the channel
/// sender behind one).
const SINK_MAKERS: [&str; 3] = ["CompletionSink", ".sink(", "mpsc::channel()"];

/// Tokens that, mentioned inside a `catch_unwind(…)` span, mean a sink is
/// exposed to an unwind (and would be dropped unresolved).
const UNWIND_SENSITIVE: [&str; 2] = ["CompletionSink", ".reply"];

struct Sink {
    name: String,
    depth: i32,
    bound_at: usize,
}

fn sink_resolution(file: &ScanFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut sinks: Vec<Sink> = Vec::new();
    // Byte-depth of `catch_unwind(` paren spans currently open.
    let mut unwind_depth: i32 = -1;
    let mut paren_depth: i32 = 0;

    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            sinks.clear();
            continue;
        }
        let code = line.code.as_str();

        // --- catch_unwind containment -------------------------------
        {
            let bytes = code.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if unwind_depth < 0 {
                    if let Some(pos) = code[i..].find("catch_unwind(") {
                        let at = i + pos;
                        // Count parens up to and including the opener.
                        for &b in &bytes[i..at] {
                            match b {
                                b'(' => paren_depth += 1,
                                b')' => paren_depth -= 1,
                                _ => {}
                            }
                        }
                        unwind_depth = paren_depth;
                        paren_depth += 1; // the `(` of catch_unwind
                        i = at + "catch_unwind(".len();
                        continue;
                    }
                    for &b in &bytes[i..] {
                        match b {
                            b'(' => paren_depth += 1,
                            b')' => paren_depth -= 1,
                            _ => {}
                        }
                    }
                    i = bytes.len();
                } else {
                    // Inside the catch_unwind call: scan to its close.
                    let start = i;
                    let mut end = bytes.len();
                    for (k, &b) in bytes.iter().enumerate().skip(i) {
                        match b {
                            b'(' => paren_depth += 1,
                            b')' => {
                                paren_depth -= 1;
                                if paren_depth == unwind_depth {
                                    end = k;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    let span = &code[start..end];
                    for token in UNWIND_SENSITIVE {
                        if span.contains(token) {
                            out.push(finding(
                                SINK_RESOLUTION,
                                file,
                                idx,
                                format!(
                                    "`{token}` inside a `catch_unwind` closure — an unwind \
                                     drops the sink and its client waits forever; resolve \
                                     sinks outside the contained call"
                                ),
                            ));
                            break;
                        }
                    }
                    if end < bytes.len() {
                        unwind_depth = -1;
                        i = end + 1;
                    } else {
                        i = bytes.len();
                    }
                }
            }
        }

        // --- per-binding path tracking ------------------------------
        // Mentions resolve sinks; `return`/`?` with an unresolved,
        // unmentioned sink is a leak; so is scope exit.
        sinks.retain(|sink| {
            if has_word(code, &sink.name) && idx != sink.bound_at {
                return false; // consumed (sent / enqueued / moved on)
            }
            let escapes = has_word(code, "return") || has_try_operator(code);
            if escapes && idx != sink.bound_at {
                out.push(finding(
                    SINK_RESOLUTION,
                    file,
                    idx,
                    format!(
                        "early exit with reply sink `{}` (bound on line {}) unresolved — \
                         every path must send, requeue or hand off the sink",
                        sink.name,
                        sink.bound_at + 1
                    ),
                ));
                return false;
            }
            if line.depth_close < sink.depth {
                out.push(finding(
                    SINK_RESOLUTION,
                    file,
                    idx,
                    format!(
                        "scope ends with reply sink `{}` (bound on line {}) unresolved — \
                         the waiting client would never complete",
                        sink.name,
                        sink.bound_at + 1
                    ),
                ));
                return false;
            }
            true
        });

        // New sink bindings.
        if has_word(code, "let") && SINK_MAKERS.iter().any(|m| code.contains(m)) {
            if let Some(name) = sink_binding(code) {
                sinks.push(Sink {
                    name,
                    depth: line.depth_close,
                    bound_at: idx,
                });
            }
        }
    }
    out
}

/// The bound name to track for a sink-constructing `let`. For a
/// `let (tx, rx) = mpsc::channel()` tuple, only the sender half matters
/// (dropping a receiver is the *client's* choice, not a leak).
fn sink_binding(code: &str) -> Option<String> {
    let let_pos = code.find("let ")?;
    let rest = code[let_pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix('(').unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || name.starts_with('_') {
        None
    } else {
        Some(name)
    }
}

/// A postfix `?` operator (not `?Sized` in a bound).
fn has_try_operator(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'?' && i > 0 {
            let prev = bytes[i - 1] as char;
            if is_ident_char(prev) || prev == ')' || prev == ']' {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------- no-alloc

const ALLOC_TOKENS: [&str; 16] = [
    "Vec::new(",
    "VecDeque::new(",
    "String::new(",
    "Box::new(",
    "Arc::new(",
    "Rc::new(",
    "HashMap::new(",
    "HashSet::new(",
    "vec!",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    "format!",
    ".collect(",
    ".clone()",
    "with_capacity(",
];

fn no_alloc(file: &ScanFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !file.in_region(Region::NoAlloc, idx) {
            continue;
        }
        for token in ALLOC_TOKENS {
            if line.code.contains(token) {
                out.push(finding(
                    NO_ALLOC,
                    file,
                    idx,
                    format!(
                        "`{token}` inside a no-alloc region — the warm path performs zero \
                         heap allocations per product (see tests/alloc_counting.rs)",
                        token = token.trim_matches(['.', '('])
                    ),
                ));
                break; // one finding per line
            }
        }
    }
    out
}

// ----------------------------------------------------------- crate-hygiene

/// Dependency names the workspace vendors or owns; anything else in a
/// manifest is a new external dependency and breaks the offline build.
fn vendored_dep(name: &str) -> bool {
    name.starts_with("he-") || matches!(name, "rand" | "proptest")
}

/// Checks one crate root source (`lib.rs`/`main.rs`) for the mandatory
/// `#![forbid(unsafe_code)]`.
pub fn check_crate_root(rel: &str, file: &ScanFile) -> Vec<Finding> {
    let present = file
        .lines
        .iter()
        .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if present {
        return Vec::new();
    }
    vec![Finding {
        rule: CRATE_HYGIENE,
        file: rel.to_string(),
        line: 1,
        message: "crate root is missing `#![forbid(unsafe_code)]` — every crate in this \
                  workspace forbids unsafe code"
            .to_string(),
        key: "missing #![forbid(unsafe_code)]".to_string(),
    }]
}

/// Checks one `Cargo.toml` for non-vendored dependencies.
pub fn check_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            let section = line.trim_matches(['[', ']']);
            in_deps = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section.ends_with(".dependencies");
            continue;
        }
        if !in_deps || line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        let value = value.trim();
        let mut flag = |why: &str| {
            out.push(Finding {
                rule: CRATE_HYGIENE,
                file: rel.to_string(),
                line: idx + 1,
                message: format!(
                    "dependency `{name}` {why} — this workspace builds offline from \
                     vendored/path dependencies only"
                ),
                key: raw.trim().to_string(),
            });
        };
        if value.contains("version")
            || value.contains("git =")
            || value.contains("registry =")
            || value.starts_with('"')
        {
            flag("references a registry/git source");
        } else if !vendored_dep(name) {
            flag("is not part of the vendored set");
        } else if !value.contains("workspace = true") && !value.contains("path =") {
            flag("must use `workspace = true` or a `path =` source");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_source;

    fn scan(src: &str) -> ScanFile {
        scan_source("test.rs", src, &ALL_RULES)
    }

    #[test]
    fn entry_points_match_families() {
        assert!(is_entry_point("multiply"));
        assert!(is_entry_point("multiply_batch"));
        assert!(is_entry_point("convolve_into"));
        assert!(is_entry_point("forward_into"));
        assert!(is_entry_point("forward_in_place"));
        assert!(is_entry_point("inverse_in_place"));
        assert!(is_entry_point("transform_in_place"));
        assert!(!is_entry_point("operands"));
        assert!(!is_entry_point("eligible"));
    }

    #[test]
    fn statement_temporary_is_not_a_guard() {
        assert_eq!(guard_binding("let x = m.lock().unwrap().pop();"), None);
        assert_eq!(
            guard_binding(
                "let pins = self.reg.lock().unwrap_or_else(|e| e.into_inner()).snapshot();"
            ),
            None
        );
        assert_eq!(
            guard_binding("let mut g = m.lock().unwrap();"),
            Some("g".to_string())
        );
        assert_eq!(
            guard_binding("let mut state = lock_or_recover(&self.state);"),
            Some("state".to_string())
        );
    }

    #[test]
    fn guard_across_transform_is_flagged_and_drop_releases() {
        let src = "\
fn bad(m: &M, plan: &P, data: &mut [u64]) {
    let guard = m.lock().unwrap();
    plan.forward_into(data);
}
fn good(m: &M, plan: &P, data: &mut [u64]) {
    let guard = m.lock().unwrap();
    drop(guard);
    plan.forward_into(data);
}
";
        let f = scan(src);
        let findings = lock_discipline(&f);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn indexing_heuristics() {
        let src = "\
// lint: supervisor
fn f(v: &[u64], i: usize) {
    let a = v[i];
    let b = vec![0u64; 4];
    for side in [1, 2] { let _ = side; }
    let c = v.get(i);
}
// lint: end supervisor
";
        let f = scan(src);
        let findings = panic_path(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "\
// lint: supervisor
fn f(m: &M) {
    let g = m.lock().unwrap_or_else(|e| e.into_inner());
    let h = m.result.unwrap_or_default();
    let i = m.count.unwrap_or(0);
}
// lint: end supervisor
";
        let f = scan(src);
        assert!(panic_path(&f).is_empty());
    }

    #[test]
    fn sink_leak_on_early_return_and_scope_exit() {
        let src = "\
fn leak(tx: Sender, flag: bool) {
    let reply = CompletionSink::new(tx, 0);
    if flag {
        return;
    }
}
";
        let f = scan(src);
        let findings = sink_resolution(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn sink_resolved_on_all_paths_is_clean() {
        let src = "\
fn ok(tx: Sender, flag: bool) {
    let reply = CompletionSink::new(tx, 0);
    if flag {
        reply.complete(Err(closed()));
        return;
    }
    reply.complete(Ok(product()));
}
fn ticket(&self) -> Result<(), ServeError> {
    let reply = mint.sink(7);
    self.enqueue(reply)?;
    Ok(())
}
";
        let f = scan(src);
        assert!(sink_resolution(&f).is_empty());
    }

    #[test]
    fn sink_inside_catch_unwind_is_flagged() {
        let src = "\
fn contain(job: Job) {
    let outcome = catch_unwind(AssertUnwindSafe(|| job.reply.complete(Ok(()))));
}
fn fine(job: &Job) {
    let outcome = catch_unwind(AssertUnwindSafe(|| backend.step()));
    job.reply.complete(outcome);
}
";
        let f = scan(src);
        let findings = sink_resolution(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn alloc_tokens_only_fire_inside_regions() {
        let src = "\
fn cold() -> Vec<u64> { Vec::new() }
// lint: no-alloc
fn warm(buf: &mut [u64]) {
    let staged: Vec<u64> = buf.iter().copied().collect();
}
// lint: end no-alloc
";
        let f = scan(src);
        let findings = no_alloc(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn waiver_suppresses_a_finding() {
        let src = "\
// lint: no-alloc
fn warm() {
    // lint: allow(no-alloc) — cold init path, runs once per plan
    let table = Vec::new();
}
// lint: end no-alloc
";
        let f = scan(src);
        assert!(check_file(&f).is_empty(), "{:?}", check_file(&f));
    }

    #[test]
    fn manifest_rules() {
        let good = "[dependencies]\nhe-ntt = { workspace = true }\nrand = { path = \"../x\" }\n";
        assert!(check_manifest("a/Cargo.toml", good).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\ntokio = { version = \"1\" }\n";
        assert_eq!(check_manifest("b/Cargo.toml", bad).len(), 2);
        let sneaky = "[dev-dependencies]\nleftpad = { path = \"../leftpad\" }\n";
        assert_eq!(check_manifest("c/Cargo.toml", sneaky).len(), 1);
    }

    #[test]
    fn crate_root_forbid_check() {
        let with = scan("#![forbid(unsafe_code)]\nfn x() {}\n");
        assert!(check_crate_root("a/src/lib.rs", &with).is_empty());
        let without = scan("fn x() {}\n");
        assert_eq!(check_crate_root("b/src/lib.rs", &without).len(), 1);
    }
}
