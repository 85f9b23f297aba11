//! Records the compiler and profile the benchmark was built with, so
//! the host fingerprint names the toolchain that produced the numbers
//! rather than whichever `rustc` is on the path at run time.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=DLZ_BENCHMARK_RUSTC={version}");
    println!("cargo:rustc-env=DLZ_BENCHMARK_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
