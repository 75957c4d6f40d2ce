//! Pieces every workload shares: seeded inputs, the rotated map, timing
//! statistics, metric records and the SPMD launcher.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use forust::connectivity::TreeId;
use forust::dim::D3;
use forust_comm::{run_spmd_with, CommConfig, ThreadComm};
use forust_geom::Mapping;

/// A map shared by the solvers.
pub type SharedMap = Arc<dyn Mapping<D3> + Send + Sync>;

/// Deterministic 64-bit generator (splitmix64): the only source of the
/// benchmark's inputs, so one seed always gives one input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Largest angle of the seed's rotation (radians). Small enough that
/// every seed meshes about as many elements as seed 0, so seeds change
/// where the fronts, weak zones and source sit on the mesh, not how much
/// work there is.
pub const MAX_ANGLE: f64 = 0.35;

/// The seed's rigid rotation of physical space: a uniform random axis and
/// an angle in `[MAX_ANGLE / 2, MAX_ANGLE]`. Seed 0 is the identity, so
/// seed 0 reproduces the figure harnesses' meshes exactly.
pub fn seed_rotation(seed: u64) -> [[f64; 3]; 3] {
    if seed == 0 {
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    }
    let mut rng = Rng::new(seed, 1);
    let z = 2.0 * rng.unit() - 1.0;
    let phi = 2.0 * std::f64::consts::PI * rng.unit();
    let r = (1.0 - z * z).sqrt();
    let [x, y] = [r * phi.cos(), r * phi.sin()];
    let angle = MAX_ANGLE * (0.5 + 0.5 * rng.unit());
    // Rodrigues' formula for the unit axis (x, y, z).
    let (c, s) = (angle.cos(), angle.sin());
    let t = 1.0 - c;
    [
        [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
        [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
        [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
    ]
}

pub fn rotate(r: &[[f64; 3]; 3], p: [f64; 3]) -> [f64; 3] {
    std::array::from_fn(|i| r[i][0] * p[0] + r[i][1] * p[1] + r[i][2] * p[2])
}

/// A solver's map followed by the seed's rotation. Physical fields
/// (fronts, temperature, weak zones, sources) stay put, so the rotation
/// moves them across different trees of the mesh.
struct Rotated {
    inner: SharedMap,
    rot: [[f64; 3]; 3],
}

impl Mapping<D3> for Rotated {
    fn map(&self, tree: TreeId, xi: [f64; 3]) -> [f64; 3] {
        rotate(&self.rot, self.inner.map(tree, xi))
    }

    fn jacobian(&self, tree: TreeId, xi: [f64; 3]) -> [[f64; 3]; 3] {
        let j = self.inner.jacobian(tree, xi);
        std::array::from_fn(|i| {
            std::array::from_fn(|c| (0..3).map(|k| self.rot[i][k] * j[k][c]).sum())
        })
    }
}

pub fn rotated(inner: SharedMap, seed: u64) -> SharedMap {
    Arc::new(Rotated {
        inner,
        rot: seed_rotation(seed),
    })
}

/// Ranks of every timed loop. Two rank threads on the two vCPUs of the
/// measuring box made run-to-run spreads of 0.23–0.38 (IQR / median over
/// ten runs) against 0.07–0.08 on one rank. Traffic is measured in the
/// traced run, on [`COMM_RANKS`].
pub const RANKS: usize = 1;
/// Ranks of the traced run's communication replays.
pub const COMM_RANKS: usize = 2;

/// Run `f` on `ranks` SPMD ranks with one pool worker each. A receive
/// blocked for a minute fails the run instead of hanging it.
pub fn spmd<R: Send>(ranks: usize, f: impl Fn(&ThreadComm) -> R + Sync) -> Vec<R> {
    forust_pool::set_worker_override(Some(1));
    run_spmd_with(
        ranks,
        CommConfig::with_deadline(Duration::from_secs(60)),
        |c| c,
        f,
    )
}

/// Samples of one timing, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, s: f64) {
        self.0.push(s);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The fastest sample.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::NAN, f64::min)
    }

    /// The highest of p50/p90/p95/p99/p99.9 with at least ten samples
    /// beyond it, as `(percentile, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len() as f64;
        let p = [99.9, 99.0, 95.0, 90.0, 50.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)?;
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (n - 1.0)).round() as usize;
        Some((p, v[idx]))
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// For timings, context only: sample count, median and tail.
    pub stats: Option<TimingStats>,
}

#[derive(Debug, Clone)]
pub struct TimingStats {
    pub n: usize,
    pub median: f64,
    pub tail: Option<(f64, f64)>,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for failed units.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let m = Metric {
            value,
            unit,
            stats: None,
        };
        self.metrics.insert(name.to_string(), m);
    }

    /// A timing metric: the fastest of the run's samples, scaled by
    /// `scale` (e.g. 1e3 for ms), with the sample count, median and tail
    /// as context. The measuring box's other tenants only ever slow a
    /// unit down, by up to tens of per cent for seconds at a time; the
    /// fastest unit is the program's own cost. Over ten runs its spread
    /// was 0.05–0.09 (Q3 − Q1 over median) where the median's was
    /// 0.11–0.19.
    pub fn timing(&mut self, name: &str, s: &Samples, scale: f64, unit: &'static str) {
        self.insert_timing(name, s.min() * scale, s, scale, unit);
    }

    /// A timing metric reported as the median of its samples.
    pub fn timing_median(&mut self, name: &str, s: &Samples, scale: f64, unit: &'static str) {
        self.insert_timing(name, s.median() * scale, s, scale, unit);
    }

    fn insert_timing(
        &mut self,
        name: &str,
        value: f64,
        s: &Samples,
        scale: f64,
        unit: &'static str,
    ) {
        let stats = TimingStats {
            n: s.0.len(),
            median: s.median() * scale,
            tail: s.tail().map(|(p, v)| (p, v * scale)),
        };
        let m = Metric {
            value,
            unit,
            stats: Some(stats),
        };
        self.metrics.insert(name.to_string(), m);
    }

    /// Count one unit; `problem` names the failed check, if any.
    pub fn unit(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(p);
            }
        }
    }

    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// First failed check of a list of `(ok, what)` pairs.
pub fn first_failure(checks: &[(bool, &str)]) -> Option<String> {
    checks
        .iter()
        .find(|(ok, _)| !ok)
        .map(|(_, w)| w.to_string())
}

pub fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Stable digest of a sequence of words (mesh identity in the tests).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x1000_0000_01B3);
    }
    h
}
