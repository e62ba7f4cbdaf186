//! Machine and build tags for result files.

use std::collections::BTreeMap;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, `rustc -V`, the git commit when the checkout is a
/// git repository, and the build profile.
pub fn tags() -> BTreeMap<String, String> {
    let mut tags = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    tags.insert("nproc".to_string(), nproc.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    tags.insert("cpu_model".to_string(), cpu);
    tags.insert("rustc".to_string(), command_line("rustc", &["-V"]));
    tags.insert("git_commit".to_string(), command_line("git", &["rev-parse", "HEAD"]));
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    tags.insert("profile".to_string(), profile.to_string());
    tags
}
