//! Host readings printed beside each run so a drifted run can be told
//! apart: process CPU time against wall time, host steal time, and the
//! process's peak resident set. Linux `/proc` only; on other systems the
//! readings are absent.

use std::time::Instant;

/// Kernel clock ticks per second behind `/proc/*/stat` (`USER_HZ`), which
/// Linux fixes at 100 on every architecture this benchmark targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// A point-in-time reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    wall: Instant,
    cpu_ticks: Option<u64>,
    steal_ticks: Option<u64>,
}

impl Reading {
    /// Reads the clocks now.
    pub fn now() -> Self {
        Reading {
            wall: Instant::now(),
            cpu_ticks: process_cpu_ticks(),
            steal_ticks: host_steal_ticks(),
        }
    }

    /// `(wall s, process CPU s, host steal s)` elapsed since `self`.
    pub fn since(&self) -> (f64, Option<f64>, Option<f64>) {
        let now = Reading::now();
        let delta =
            |a: Option<u64>, b: Option<u64>| Some(b?.saturating_sub(a?) as f64 / TICKS_PER_SECOND);
        (
            now.wall.duration_since(self.wall).as_secs_f64(),
            delta(self.cpu_ticks, now.cpu_ticks),
            delta(self.steal_ticks, now.steal_ticks),
        )
    }
}

/// User + system ticks of this process, including exited threads.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Host-wide steal ticks (time the hypervisor ran someone else while this
/// guest wanted the CPU).
fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Wall time of a fixed compute kernel (a 48 × 48 matrix product, four
/// times over), seconds: a probe of how fast the vCPU runs right now. On
/// the hosts this benchmark was tuned on, a vCPU alternates for seconds
/// at a time between two speeds about 2× apart; the probe tells which one
/// a measurement fell in.
pub fn host_probe() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.5).collect();
    let mut c = vec![0.0; N * N];
    let mut pass = || {
        let start = Instant::now();
        for _ in 0..4 {
            for i in 0..N {
                for k in 0..N {
                    let aik = std::hint::black_box(a[i * N + k]);
                    for j in 0..N {
                        c[i * N + j] += aik * b[k * N + j];
                    }
                }
            }
        }
        std::hint::black_box(&c);
        start.elapsed().as_secs_f64()
    };
    // The first pass warms the caches the measured program just evicted.
    pass();
    pass()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
