//! Host fingerprint and process memory, read from the OS.

use dlz_core::json::JsonObject;

use crate::workloads::WORKERS;

/// What a number depends on besides the code: recorded with every
/// result so numbers from different hosts are never compared blind.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// Cargo profile this binary was built with.
    pub profile: &'static str,
}

impl Host {
    /// Reads the fingerprint.
    pub fn read() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("DLZ_BENCHMARK_RUSTC"),
            profile: env!("DLZ_BENCHMARK_PROFILE"),
        }
    }

    /// `true` when every worker thread can have a core of its own.
    pub fn fits_workers(&self) -> bool {
        self.cores >= WORKERS
    }

    /// Renders the fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("cores", self.cores as u64)
            .u64("workers", WORKERS as u64)
            .f64("workers_per_core", WORKERS as f64 / self.cores as f64)
            .str("rustc", self.rustc)
            .str("profile", self.profile);
        o.finish()
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB; `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
