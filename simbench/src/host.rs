//! Host facts recorded beside every result: effective parallelism and peak
//! resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A pure-ALU loop (xorshift) with no memory traffic.
fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Calibrated 1-vs-2-thread ALU spin ratio: how much more spin work two
/// threads finish than one in the same time. 2.0 means two real cores, ~1.0
/// means the two vCPUs share one core's ALUs. Median of five trials of
/// ~20 ms each.
pub fn spin_speedup() -> f64 {
    let mut iterations = 1u64 << 16;
    loop {
        let start = Instant::now();
        black_box(spin(iterations));
        if start.elapsed().as_secs_f64() >= 0.02 {
            break;
        }
        iterations *= 2;
    }
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(spin(iterations));
            let one = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::thread::scope(|scope| {
                let other = scope.spawn(|| black_box(spin(iterations)));
                black_box(spin(iterations));
                other.join().expect("spin thread");
            });
            let two = start.elapsed().as_secs_f64();
            2.0 * one / two
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[2]
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB; 0 when
/// the kernel does not report it.
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
