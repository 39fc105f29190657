//! Summary statistics, per-round sample series and the host stamp.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample with at
/// least `q·n` samples at or below it. NaN on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (the nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Per-round samples keyed by metric name: a workload pushes one value
/// per round (or tick) and reads medians back.
#[derive(Debug, Default)]
pub struct Series {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Series {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }
}

/// Milliseconds this host takes for a fixed piece of dense arithmetic
/// that uses none of the program's code: a small f32 matrix product and
/// an integer hash chain, about a millisecond on a 2 GHz core. It slows
/// down with the host as model training does.
pub fn compute_probe_ms() -> f64 {
    const N: usize = 48;
    let t = Instant::now();
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..6 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    let mut h = 0u64;
    for i in 0..200_000u64 {
        h = (h ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
    }
    black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds this host takes for a fixed piece of branchy scalar
/// work that uses none of the program's code: Hellinger distances between
/// 10-class histograms, a sort of the distances and inserts into an
/// ordered map, under a millisecond on a 2 GHz core. It slows down with
/// the host as clustering and registry work do, which the dense
/// [`compute_probe_ms`] does not follow.
pub fn scalar_probe_ms() -> f64 {
    const HISTS: usize = 400;
    const CLASSES: usize = 10;
    let t = Instant::now();
    let hists: Vec<[f64; CLASSES]> = (0..HISTS)
        .map(|i| std::array::from_fn(|c| (((i * 7 + c * 13) % 17) as f64 + 0.5) / 90.0))
        .collect();
    let mut dists = Vec::with_capacity(HISTS * HISTS / 40);
    for i in 0..HISTS {
        for j in (i % 10..HISTS).step_by(40) {
            let d: f64 =
                (0..CLASSES).map(|c| (hists[i][c].sqrt() - hists[j][c].sqrt()).powi(2)).sum();
            dists.push(d.sqrt());
        }
    }
    dists.sort_by(f64::total_cmp);
    let mut index = BTreeMap::new();
    for (i, d) in dists.iter().enumerate() {
        index.insert((d * 1e6) as u64 ^ i as u64, i);
    }
    black_box((&dists, &index));
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall times, each paired with the mean of the host probes taken just
/// before and just after it.
#[derive(Debug)]
pub struct Timed {
    pub wall: Vec<f64>,
    pub probe: Vec<f64>,
    /// The probe, chosen to resemble the timed work.
    host_probe: fn() -> f64,
}

impl Timed {
    pub fn new(host_probe: fn() -> f64) -> Self {
        Timed { wall: vec![], probe: vec![], host_probe }
    }

    /// Times `f` in `scale` units per second between two host probes.
    pub fn measure<T>(&mut self, scale: f64, f: impl FnOnce() -> T) -> T {
        let before = (self.host_probe)();
        let t = Instant::now();
        let out = f();
        self.wall.push(t.elapsed().as_secs_f64() * scale);
        self.probe.push((before + (self.host_probe)()) / 2.0);
        out
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    pub fn total(&self) -> f64 {
        self.wall.iter().sum()
    }

    pub fn raw(&self, q: f64) -> f64 {
        percentile(&self.wall, q)
    }

    /// Each time divided by the median probe of the samples around it
    /// (±`PROBE_WINDOW`): the time on a host whose probe takes 1 ms. The
    /// window keeps the probe's own noise out while following the host's
    /// speed changes, which last seconds.
    fn scaled(&self) -> Vec<f64> {
        const PROBE_WINDOW: usize = 4;
        let n = self.probe.len();
        (0..n)
            .map(|i| {
                let window =
                    &self.probe[i.saturating_sub(PROBE_WINDOW)..(i + PROBE_WINDOW + 1).min(n)];
                self.wall[i] / median(window)
            })
            .collect()
    }

    /// Percentile of the probe-scaled times.
    pub fn normalized(&self, q: f64) -> f64 {
        percentile(&self.scaled(), q)
    }

    /// Sum of the probe-scaled times.
    pub fn normalized_total(&self) -> f64 {
        self.scaled().iter().sum()
    }

    pub fn extend(&mut self, other: Timed) {
        self.wall.extend(other.wall);
        self.probe.extend(other.probe);
    }
}

/// One numeric field of `/proc/self/status` (`VmHWM:`, `Threads:`).
pub fn proc_status(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// OS threads of this process right now.
pub fn os_threads() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, read from `.git` without
/// spawning git; `unknown` in a checkout that is not a repository.
pub fn git_rev(repo_root: &std::path::Path) -> String {
    let git = repo_root.join(".git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].into())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `splitmix64` step: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn probes_time_their_work() {
        for probe in [compute_probe_ms, scalar_probe_ms] {
            let ms = probe();
            assert!(ms.is_finite() && ms > 0.0, "{ms}");
        }
    }
}
