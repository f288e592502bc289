//! What the operating system reports about the calling process, and the
//! machine facts every run prints beside its numbers.

use crate::json::Json;
use std::time::Instant;

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of the calling process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Voluntary + involuntary context switches of the calling process so far.
pub fn ctx_switches() -> u64 {
    status_field("voluntary_ctxt_switches:").unwrap_or(0)
        + status_field("nonvoluntary_ctxt_switches:").unwrap_or(0)
}

/// `(utime, stime)` of the calling process in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let mut next = || f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// Pin the calling thread to CPU `cpu % nproc`, as HPC runs bind ranks to
/// cores. Without it the scheduler at times parks both spinning ranks of a
/// 2-rank world on one core for a second or more, which doubles round-trip
/// times for that stretch (seen as level shifts inside a phase). Best effort:
/// returns whether the kernel accepted the mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mask: u64 = 1 << (cpu % nproc.min(64));
    sched_setaffinity(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(mask: &u64) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let ret: isize;
    // SAFETY: sched_setaffinity(0, 8, mask) only reads the 8 bytes `mask`
    // points at (a live `&u64`) and changes where the calling thread may run;
    // rcx and r11 are clobbered by `syscall` and declared so.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sched_setaffinity(_mask: &u64) -> bool {
    false
}

/// Mean cost of one `Instant::now()` (a `clock_gettime` call) in ns — why ops
/// are timed per batch, not per op.
pub fn clock_read_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Measured length of a 5 ms timer sleep in ns, median of 5: what a time cell
/// holds on a workload that does not measure the metric. It depends on the
/// clock and the kernel's timer, not on the program or the CPU's speed, and
/// repeated within 0.4 % over ten runs.
pub fn timer_ns() -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut v)
}

fn cache_size(index: usize) -> Option<String> {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
    let kind = std::fs::read_to_string(format!("{base}/type")).ok()?;
    let size = std::fs::read_to_string(format!("{base}/size")).ok()?;
    Some(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()))
}

/// Machine facts recorded with every result: core count, cache sizes and the
/// cost of reading the clock.
pub fn machine_facts() -> Json {
    let mut facts = Json::obj();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    facts.set("nproc", Json::Num(nproc as f64));
    facts.set(
        "caches",
        Json::Arr((0..8).filter_map(cache_size).map(Json::Str).collect()),
    );
    facts.set("clock_read_ns", Json::Num(clock_read_ns()));
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        let (u, s) = cpu_ticks();
        assert!(u + s < 1_000_000);
        let c = clock_read_ns();
        assert!(c > 1.0 && c < 10_000.0, "clock read {c} ns");
        assert!(machine_facts().get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }
}
