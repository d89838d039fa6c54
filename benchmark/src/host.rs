//! The host a measurement was taken on: its description, the process's peak
//! memory, and how fast the host runs right now.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::{n, obj, s, Json};

/// Per-iteration times of the [`slowdown`] kernels on the host the
/// benchmark was defined on (a 2-vCPU KVM guest on a 2.1 GHz Xeon), rounded.
/// They only fix the scale: comparisons rest on them never changing.
const REFERENCE_NS: [f64; 3] = [1.85, 340.0, 1.8];

/// How much slower than the reference host this host runs at the moment: the
/// geometric mean, over three fixed kernels, of measured ÷ reference time.
/// Takes about 30 ms.
///
/// A shared host slows every program down together when its neighbours get
/// busy, by half again or more for seconds to minutes. Dividing a timing by the
/// slowdown measured next to it removes most of that drift. The kernels are
/// this crate's own code and the standard library's, so a change to the
/// simulator cannot move them. Each stresses a different part of the core:
/// random read-modify-write over a table the size of the L2 cache, ordered-map
/// inserts and lookups plus a sort (allocation and pointer chasing), and
/// data-dependent branches over a buffer in L1.
pub fn slowdown() -> f64 {
    let measured = [table_rmw_ns(), ordered_map_ns(), branchy_ns()];
    let log_mean = measured
        .iter()
        .zip(REFERENCE_NS)
        .map(|(m, r)| (m / r).ln())
        .sum::<f64>()
        / measured.len() as f64;
    log_mean.exp()
}

/// One step of a 64-bit LCG: the kernels' fixed input stream.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// ns per random read-modify-write of a 256 KiB table.
fn table_rmw_ns() -> f64 {
    const STEPS: u32 = 4_000_000;
    let mut table = vec![0u32; 1 << 16];
    let mut x = 0x9e37_79b9_7f4a_7c15;
    let t = Instant::now();
    for _ in 0..STEPS {
        let r = lcg(&mut x);
        let slot = &mut table[(r >> 48) as usize];
        *slot = if *slot & 1 == 0 {
            slot.wrapping_add((r >> 32) as u32)
        } else {
            *slot ^ r as u32
        };
    }
    black_box(&table);
    t.elapsed().as_nanos() as f64 / f64::from(STEPS)
}

/// ns per key to insert 32k random keys into a `BTreeMap`, look each up
/// twice and sort a copy.
fn ordered_map_ns() -> f64 {
    const KEYS: usize = 32_768;
    let mut x = 777;
    let keys: Vec<u64> = (0..KEYS).map(|_| lcg(&mut x) >> 20).collect();
    let t = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        map.insert(*k, i as u64);
    }
    let mut hits = 0u64;
    for k in keys.iter().rev() {
        hits += map.get(&(k ^ 1)).copied().unwrap_or(1) + map.get(k).copied().unwrap_or(0);
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    black_box((hits, sorted));
    t.elapsed().as_nanos() as f64 / KEYS as f64
}

/// ns per word to size 4096 words under a variable-length code, 200 times.
fn branchy_ns() -> f64 {
    const ROUNDS: u32 = 200;
    let mut x = 99;
    let words: Vec<u32> = (0..4096)
        .map(|_| {
            let v = (lcg(&mut x) >> 32) as u32;
            match v % 3 {
                0 => 0,
                1 => v & 0xff,
                _ => v,
            }
        })
        .collect();
    let t = Instant::now();
    let mut bits = 0u64;
    for round in 0..ROUNDS {
        for &w in &words {
            let w = w ^ round;
            bits += if w == 0 {
                3
            } else if w < 0x100 {
                11
            } else if w & 0xffff == 0 {
                19
            } else if (w as i32) < 0 {
                35
            } else {
                u64::from(32 - w.leading_zeros()) + 3
            };
        }
    }
    black_box(bits);
    t.elapsed().as_nanos() as f64 / (f64::from(ROUNDS) * words.len() as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// First line of a command's standard output, or `"unknown"` if it cannot
/// run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host record written next to every ledger.
pub fn describe() -> Json {
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let date = command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]);
    obj([
        ("available_parallelism", n(parallelism as f64)),
        ("rustc", s(command_line("rustc", &["-V"]))),
        ("git_rev", s(command_line("git", &["rev-parse", "HEAD"]))),
        ("date", s(date)),
    ])
}
