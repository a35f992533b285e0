//! Provenance and process accounting read from the OS: peak resident set,
//! VM steal time, CPU count, the checked-out commit and the build.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what ran since;
/// `false` when the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Sum of every state's ticks across all CPUs.
    pub total: u64,
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads the machine-wide `cpu` line; zeros when unavailable.
    pub fn read() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so sum the first eight.
        CpuTicks {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of CPU time stolen between `self` and a later reading.
    pub fn steal_frac_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

/// CPUs this process may run on (what `nproc` prints), from the
/// `Cpus_allowed_list` of `/proc/self/status`.
pub fn nproc() -> usize {
    let list = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(str::trim)
                .map(str::to_string)
        })
        .unwrap_or_default();
    list.split(',')
        .filter(|r| !r.is_empty())
        .map(|range| match range.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(range.parse::<usize>().is_ok()),
        })
        .sum()
}

/// `std::thread::available_parallelism`, the worker count `arvis_par`
/// fans out to.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Features of the program this binary was built with: the repository
/// crates' defaults, which turn `parallel` on.
pub fn features() -> &'static [&'static str] {
    &["parallel"]
}
