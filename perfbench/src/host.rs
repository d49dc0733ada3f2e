//! Host fingerprint, host steal time and peak memory, read from `/proc`,
//! so a slow run can be traced to the host rather than the code.

use std::process::Command;
use std::sync::OnceLock;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        Self {
            steal: parse_steal(&stat).unwrap_or(0),
        }
    }
}

/// The `steal` column (8th value) of the aggregate `cpu` line.
fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Clock ticks per second of `/proc/stat` counters.
fn clock_ticks() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        command_line("getconf", &["CLK_TCK"])
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|&t| t > 0.0)
            .unwrap_or(100.0)
    })
}

/// Seconds of host steal between two readings, summed over all CPUs.
pub fn steal_seconds(from: CpuTimes, to: CpuTimes) -> f64 {
    to.steal.saturating_sub(from.steal) as f64 / clock_ticks()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host fingerprint printed with every run, as a JSON object.
pub fn fingerprint_json(threads: usize, steal_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"daakg_threads\":{threads},\"steal_s\":{steal_s:.3}}}",
        json_str(&model),
        json_str(&rustc)
    )
}

/// A JSON array of already-rendered JSON values.
pub fn json_array<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let parts: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  10 0 5 100 2 0 1 37 0 0\ncpu0 5 0 2 50 1 0 0 20 0 0\n";
        assert_eq!(parse_steal(stat), Some(37));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
