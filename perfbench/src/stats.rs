//! Order statistics, the machine record, and process memory.

/// Nearest-rank percentile of `samples` (`q` in `[0, 100]`); `NaN` when
/// empty.  Sorts a copy.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Cumulative CPU time of the whole machine, from the first line of
/// `/proc/stat` (clock ticks): how much of it the hypervisor stole, and
/// the total.  Zeros where the file is unavailable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .map(|l| l.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect())
            .unwrap_or_default();
        CpuTimes { steal: ticks.get(7).copied().unwrap_or(0), total: ticks.iter().sum() }
    }

    /// Share of the machine's CPU time stolen between `self` and `later`.
    pub fn steal_since(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The `keep` items whose measurement windows lost the least CPU time to
/// the hypervisor (ties keep run order), returned in run order.  On a
/// shared virtual machine, stolen time inflates wall-clock timings of
/// whatever ran meanwhile; which windows it hits has nothing to do with the
/// program under test, so dropping the worst-hit ones removes that noise
/// without choosing by outcome.
pub fn least_stolen<T>(items: Vec<(f64, T)>, keep: usize) -> Vec<T> {
    let mut ranked: Vec<(usize, f64)> = items.iter().map(|(s, _)| *s).enumerate().collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut kept: Vec<usize> = ranked.into_iter().take(keep).map(|(i, _)| i).collect();
    kept.sort_unstable();
    let mut items: Vec<Option<T>> = items.into_iter().map(|(_, t)| Some(t)).collect();
    kept.into_iter().map(|i| items[i].take().expect("each index kept once")).collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Worker width the benchmark runs at: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Toolchain that built this binary (recorded by `build.rs`).
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// Busy-waits for `secs` seconds: the harness-side delay of `--delay-pct`,
/// spent inside a timed window without yielding the core.
pub fn spin(secs: f64) {
    if secs <= 0.0 {
        return;
    }
    let until = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
    while std::time::Instant::now() < until {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn least_stolen_keeps_the_quietest_in_run_order() {
        let items = vec![(0.2, 'a'), (0.0, 'b'), (0.1, 'c'), (0.0, 'd')];
        assert_eq!(least_stolen(items, 3), vec!['b', 'c', 'd']);
    }
}
