//! Process CPU time and memory from Linux `/proc`, for the benchmark
//! process itself or the daemon child it drives.

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User plus system CPU seconds consumed so far by `pid` (`None` = this
/// process).
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of stat(5), utime 14 and stime 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / TICKS_PER_S)
            .ok_or_else(|| format!("{path}: unreadable CPU field"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// A `Vm*` line of `/proc/<pid>/status`, in MiB.
fn status_mib(pid: Option<u32>, key: &str) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no {key} line"))
}

/// Peak resident set (VmHWM), MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    status_mib(pid, "VmHWM:")
}

/// Current resident set (VmRSS), MiB.
pub fn rss_mb(pid: Option<u32>) -> Result<f64, String> {
    status_mib(pid, "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_reports_cpu_and_memory() {
        assert!(cpu_s(None).unwrap() >= 0.0);
        let peak = peak_rss_mb(None).unwrap();
        assert!(peak > 0.0 && peak >= rss_mb(None).unwrap() * 0.5);
    }
}
