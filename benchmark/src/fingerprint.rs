//! Where a number came from: the box, the toolchain, the commit, the
//! seed and the configuration in force. Printed with every output, so two
//! result files are only ever compared knowingly.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use he_accel::ServeConfig;
use he_net::{NetConfig, NetServerConfig};

/// The benchmark's own directory (`benchmark/`): where `out/` goes and
/// where the root manifest is found from. `cargo run` exports it; a
/// binary started by hand falls back to where it was compiled.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, if the box reports one.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Whether the box was busy enough at start to distrust the timings:
/// load average above half the cores.
pub fn noisy() -> bool {
    load_average().is_some_and(|load| load > nproc() as f64 / 2.0)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// cpu0's data and unified caches, as `L1d 48K, L2 2048K, L3 266240K`.
fn cache_sizes() -> String {
    let mut sizes = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{dir}/{file}")).map(|s| s.trim().to_string())
        };
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        match kind.as_str() {
            "Data" => sizes.push(format!("L{level}d {size}")),
            "Unified" => sizes.push(format!("L{level} {size}")),
            _ => {}
        }
    }
    if sizes.is_empty() {
        "unknown".to_string()
    } else {
        sizes.join(", ")
    }
}

/// The checked-out commit, read from `.git` (a driver's checkout has
/// none).
fn git_commit() -> String {
    let git = bench_dir().join("..").join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// The fingerprint block that heads every output.
pub fn describe(seed: u64) -> String {
    let mut out = String::new();
    let load = load_average().map_or_else(|| "unknown".to_string(), |l| l.to_string());
    let _ = writeln!(
        out,
        "box: nproc {}, caches {}, load average {load}{}",
        nproc(),
        cache_sizes(),
        if noisy() {
            "  NOISY: load average above nproc / 2"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "toolchain: {}  commit: {}  seed: {seed}",
        rustc_version(),
        git_commit()
    );
    let _ = writeln!(
        out,
        "fixed: 1 client thread, 1 card, he_ntt::par::set_threads(1)"
    );
    let _ = writeln!(out, "{:?}", ServeConfig::default());
    let _ = writeln!(out, "{:?}", NetConfig::default());
    let _ = writeln!(out, "{:?}", NetServerConfig::default());
    out
}

/// The normalised `key=value` lines of a manifest's `[profile.release]`.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect())
        .collect();
    lines.sort();
    lines
}

/// Refuses to run when this nested workspace's `[profile.release]` is not
/// the root manifest's: it would silently measure another build than the
/// one users get.
///
/// # Errors
///
/// The two profiles, when they differ, or the manifest that is missing.
pub fn profile_matches_root() -> Result<(), String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let own = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(bench_dir().join("..").join("Cargo.toml"))?);
    if own == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_comparison_ignores_comments_and_spacing() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\ndebug = true\nlto=\"thin\"\n[profile.bench]\ndebug = false\n";
        let b = "[profile.release]\nlto = \"thin\"\n\ndebug   =   true\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\ndebug = true\n")
        );
    }

    #[test]
    fn own_profile_matches_the_root_manifest() {
        profile_matches_root().expect("profiles agree");
    }
}
