//! The environment fingerprint printed with every result.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU time stolen by the host and total CPU time, in ticks, summed over
/// the machine's CPUs (`/proc/stat`).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The type of the filesystem mounted at the longest mount point that is a
/// prefix of `dir` (from `/proc/self/mountinfo`), or `unknown`.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point opts... - fstype src opts
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The fingerprint as one JSON object.
pub struct Fingerprint {
    pub nproc: usize,
    pub workers: usize,
    pub driver_threads: usize,
    pub queue_capacity: usize,
    pub wal_fs: String,
    pub gen_lag_p50_us: f64,
    /// Share of CPU time the host stole during the run.
    pub steal_frac: f64,
}

impl Fingerprint {
    pub fn to_json(&self) -> String {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        format!(
            "{{\"nproc\":{},\"workers\":{},\"driver_threads\":{},\"queue_capacity\":{},\
             \"profile\":\"{profile}\",\"rustc\":{},\"commit\":{},\"wal_fs\":{},\
             \"gen_lag_p50_us\":{},\"steal_frac\":{}}}",
            self.nproc,
            self.workers,
            self.driver_threads,
            self.queue_capacity,
            json_str(&var("LOOM_BENCH_RUSTC")),
            json_str(&var("LOOM_BENCH_COMMIT")),
            json_str(&self.wal_fs),
            self.gen_lag_p50_us,
            self.steal_frac,
        )
    }
}

/// `s` as a JSON string literal.
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
    fn fingerprint_reads_the_process() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(filesystem_of(Path::new(".")), "");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
