//! Process memory from the process's own `/proc/self` view.

/// Resident set size now, in MB (`VmRSS`); 0 when unavailable.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Peak resident set size since the last [`reset_peak`], in MB (`VmHWM`).
pub fn peak_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset the peak-RSS high-water mark to the current RSS. Returns false
/// when the kernel does not allow it (the peak then covers set-up too).
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
