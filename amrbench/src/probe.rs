//! The attainable bounds of this machine for this build: multiply-add
//! peak (f64 and f32) and stream-triad bandwidth. Run in its own process
//! (`amrbench probe`) so its large arrays never count towards a
//! workload's `peak_rss_mb`. Context only, never a gated metric.

use std::hint::black_box;
use std::time::Instant;

/// Measured peaks, passed to the traced workload run on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Peak {
    pub gflops_f64: f64,
    pub gflops_f32: f64,
}

/// Independent multiply-add chains, enough to hide the latency of the
/// vector unit; the compiler packs them into the widest vectors this
/// build targets.
const CHAINS: usize = 32;

macro_rules! madd_peak {
    ($name:ident, $t:ty) => {
        fn $name() -> f64 {
            let a: $t = black_box(0.999_9);
            let b: $t = black_box(1e-4);
            let mut acc = [1.0 as $t; CHAINS];
            let iters = 4_000_000usize;
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..iters {
                    for x in acc.iter_mut() {
                        *x = *x * a + b;
                    }
                }
                black_box(&acc);
                best = best.min(t.elapsed().as_secs_f64());
            }
            (2 * CHAINS * iters) as f64 / best / 1e9
        }
    };
}

madd_peak!(madd_f64, f64);
madd_peak!(madd_f32, f32);

/// Size of the last-level cache in bytes, from the same sysfs entry
/// `lscpu` reports.
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Stream triad `a = b + s c` over three arrays whose total is four times
/// the last-level cache (at least 64 MiB). Returns (GB/s counting 24
/// bytes per element, bytes per array).
fn triad(llc: u64) -> (f64, u64) {
    let per_array = (4 * llc).max(64 << 20) / 3;
    let n = (per_array / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::MAX;
    for _ in 0..4 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24.0 * n as f64 / best / 1e9, 8 * n as u64)
}

/// Run the probe and print its result as one JSON line.
pub fn main() {
    let llc = llc_bytes();
    let (f64p, f32p) = (madd_f64(), madd_f32());
    let (gbs, array) = triad(llc);
    println!(
        "{{\"peak_gflops_f64\": {f64p}, \"peak_gflops_f32\": {f32p}, \"triad_gbs\": {gbs}, \
         \"triad_array_bytes\": {array}, \"llc_bytes\": {llc}}}"
    );
}
