//! Records the toolchain, build profile and source revision for the
//! benchmark's host fingerprint.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim());
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt = std::env::var("OPT_LEVEL").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile} (opt-level {opt})");

    // The checkout the benchmark runs in need not be a git repository.
    // Watch only files that exist: a missing one would rerun this script,
    // and rebuild the benchmark, on every `cargo run`.
    println!("cargo:rerun-if-changed=build.rs");
    let mut rev = String::from("unknown");
    let head = Path::new("../.git/HEAD");
    if let Ok(text) = std::fs::read_to_string(head) {
        println!("cargo:rerun-if-changed={}", head.display());
        rev = match text.trim().strip_prefix("ref: ") {
            Some(r) => {
                let target = Path::new("../.git").join(r);
                if target.exists() {
                    println!("cargo:rerun-if-changed={}", target.display());
                }
                std::fs::read_to_string(target).unwrap_or_default()
            }
            None => text,
        }
        .trim()
        .to_string();
    }
    if rev.is_empty() {
        rev = "unknown".into();
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
}
