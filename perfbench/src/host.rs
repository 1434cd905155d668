//! The host side of a run: the clock ops are timed with, the speed probe
//! that rescales their times to a nominal host speed, and the context
//! printed beside the metrics so a noisy run can be told apart (core
//! count, CPU steal over the run, peak memory and compiler).

use std::collections::HashMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total). Zero when the
/// file is unreadable.
pub fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user)
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU time the hypervisor stole between two samples.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Cores this process may run on (what `nproc` prints).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `rustc -V`, or `unknown` when no compiler is on the path.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host seconds [`probe`] takes at nominal host speed. Timed results are
/// reported as `host seconds × PROBE_NOMINAL_S / probe seconds`, with the
/// probe timed right before the timed work.
pub const PROBE_NOMINAL_S: f64 = 0.008;

/// A fixed CPU workload, about 8 ms, that measures how fast the host runs
/// at this moment. It mixes what the simulator spends its time on:
/// sorting, a pointer-chasing ordered map with allocation, a branchy
/// interpreter loop, floating-point maths and a string-keyed hash map like
/// an interpreter's variable table. None of it calls the program under
/// test, so a faster program never makes the probe faster.
pub fn probe() {
    let mut x = 0x1234_5678_u64;
    let mut v: Vec<u64> = (0..40_000).map(|_| next(&mut x)).collect();
    v.sort_unstable();

    let mut map = std::collections::BTreeMap::new();
    for i in 0..12_000u64 {
        map.insert(next(&mut x) >> 40, i);
    }
    let mut h = v[v.len() / 2];
    for (k, i) in &map {
        h = h.wrapping_add(k ^ i);
    }

    let prog: Vec<u8> = (0..256).map(|_| (next(&mut x) % 6) as u8).collect();
    let mut regs = [1u64; 4];
    for step in 0..400_000usize {
        let r = step & 3;
        regs[r] = match prog[step & 255] {
            0 => regs[r].wrapping_add(regs[(r + 1) & 3]),
            1 => regs[r] ^ (regs[(r + 2) & 3] >> 3),
            2 => regs[r].wrapping_mul(0x9E37),
            3 if regs[r] & 1 == 0 => regs[r] >> 1,
            3 => regs[r].wrapping_mul(3).wrapping_add(1),
            4 => regs[r].rotate_left(5),
            _ => regs[r].wrapping_sub(step as u64),
        };
    }

    let mut acc = 0.0f64;
    for i in 1..60_000 {
        let f = f64::from(i) * 1e-4;
        acc += (f.exp() * f.sqrt()).ln_1p();
    }
    let names: Vec<String> = (0..64).map(|i| format!("var_{i}")).collect();
    let mut vars: HashMap<String, f64> = HashMap::new();
    for step in 0..80_000usize {
        let name = &names[(step * 7) % names.len()];
        if step % 3 == 0 {
            vars.insert(name.clone(), step as f64);
        } else {
            acc += vars.get(name).copied().unwrap_or(1.0);
        }
    }
    std::hint::black_box((h, regs, acc));
}

/// A splitmix64 step.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static CPU_CLOCK: AtomicBool = AtomicBool::new(false);

/// Makes [`now`] read the calling thread's CPU clock instead of the wall
/// clock. A traced run does this: its attributions subtract separately
/// timed parts, and the CPU clock leaves out the bursts of several
/// milliseconds in which the hypervisor runs someone else.
pub fn use_cpu_clock() {
    CPU_CLOCK.store(true, Ordering::Relaxed);
}

/// Seconds on the run's clock, from an arbitrary origin.
pub fn now() -> f64 {
    if CPU_CLOCK.load(Ordering::Relaxed) {
        thread_cpu_s()
    } else {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

// `Timespec` and the clock id below are the 64-bit Linux ABI.
const _: () = assert!(
    cfg!(target_os = "linux") && cfg!(target_pointer_width = "64"),
    "perfbench reads the thread CPU clock through the 64-bit Linux ABI"
);

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // the clock id is valid, so the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
