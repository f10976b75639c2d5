//! Sample sets and facts about the benchmark process and its host.

use std::path::Path;
use std::time::Duration;

/// Samples of one quantity, in the unit they were recorded in.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Adds a duration as milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile (`0 < q <= 1`, nearest rank), or 0 without samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// Samples strictly above the `q`-quantile — a tail percentile is
    /// worth reporting only when at least ten samples lie beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.0.iter().filter(|&&v| v > cut).count()
    }

    /// Median of the last third over median of the first third: how much
    /// the quantity drifted across the run (1.0 = none).
    pub fn drift(&self) -> f64 {
        let n = self.0.len() / 3;
        if n == 0 {
            return 1.0;
        }
        let first = Samples(self.0[..n].to_vec()).p50();
        let last = Samples(self.0[self.0.len() - n..].to_vec()).p50();
        if first > 0.0 {
            last / first
        } else {
            1.0
        }
    }
}

/// Clock ticks per second of the `/proc` CPU-time columns.
const USER_HZ: f64 = 100.0;

/// Ratio `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// CPU time (user + system) this process has used so far.
pub fn cpu_time() -> Duration {
    // `/proc/self/stat` fields 14 and 15 (utime, stime) in clock ticks of
    // USER_HZ, which is 100 on every Linux ABI.
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may contain spaces; fields restart after ')'.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// CPU time the hypervisor took from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`), summed over all CPUs.
pub fn steal_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`, longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p90(), 90.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(Samples::default().p50(), 0.0);
    }

    #[test]
    fn drift_compares_the_ends_of_the_run() {
        let mut s = Samples::default();
        for v in [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.drift(), 2.0);
    }

    #[test]
    fn process_facts_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert_ne!(fs_type(Path::new(".")), "");
    }
}
