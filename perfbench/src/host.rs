//! The host and run record printed next to every result.

use crate::report::JsonObject;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the working directory is a clone of, read from its `.git`
/// (never from a parent directory), or `"unknown"` in a plain checkout.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host half of the run record.
pub fn record(workload: &str, seed: u64, lanes: usize, trace: bool) -> JsonObject {
    let cores = nproc();
    let mut rec = JsonObject::default();
    rec.str("workload", workload)
        .num("seed", seed)
        .num("trace", u8::from(trace))
        .num("nproc", cores)
        .num("tsc_ghz", rbs_core::cycles::cycles_per_ns())
        .num("lane_threads", lanes)
        .num("control_threads", 1)
        .num("oversubscribed", lanes > cores)
        .str("commit", &commit());
    rec
}
