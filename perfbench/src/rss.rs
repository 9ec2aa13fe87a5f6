//! Peak resident memory from `/proc/self/status`, without new dependencies.

/// The process's peak resident set size (`VmHWM`) in MB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next reading covers
/// only what runs after this call. Returns `false` where the kernel does
/// not allow it.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
