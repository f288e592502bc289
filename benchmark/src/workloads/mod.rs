//! The seven workloads and what they share: run parameters, the split of a
//! pass into unit processes, world launch, set-up timing, and the slicing of
//! symmetric phases.
//!
//! Every workload is a closed loop at `nproc` 2 (smp: 2 rank threads, proc:
//! 2 rank processes, sim: 1 thread) and is written against the frozen program
//! surface listed in the README.

pub mod dht;
pub mod eadd;
pub mod rma;
pub mod sim_dht;

use crate::report::{Report, Sample};
use crate::stats;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use upcxx::{ConduitKind, Config};

/// Parameters of one workload process, all carried in argv (the proc
/// launcher re-executes the binary with the same argv for every rank).
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the final report goes.
    pub out: PathBuf,
    /// ~1/50-scale run for the benchmark's own tests.
    pub smoke: bool,
    /// Test hook: rank 1 dies after set-up.
    pub kill_rank: bool,
    /// Run only this unit of the pass (one world, or one simulation) and
    /// report it; `None` in the process that spawns the units.
    pub unit: Option<u64>,
}

/// One measuring pass of a workload (a traced run makes two: untraced, then
/// traced).
#[derive(Clone, Debug)]
pub struct Pass {
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
    /// Worlds the pass's fixed work is split over (`sim_eadd`: 1; it splits
    /// its work over simulations itself). Each world has a **process of its
    /// own** that launches it, sets it up, does its share of the work and
    /// reports; the pass reports the **median world** (`Report::median_of`),
    /// `setup_s` and `peak_rss_mib` included. One world is not enough on smp:
    /// a pair of rank threads at times settles, for as long as it lives, into
    /// a state in which the symmetric DHT phases run 20 % slower (seven
    /// worlds of one run read 915, 912, 701, 817, 853, 864 and 855 kop/s),
    /// which no statistic over the batches of that one world can see past.
    /// And a world needs a fresh process: a later world in the same process
    /// inherits the allocator's state (`rget` of 256 KiB blocks ran at 2.0
    /// GiB/s in the first world of a process and at 7.6 GiB/s in the other
    /// six), which no user's world does.
    pub worlds: u64,
    /// The pass's own file name; world (or simulation) `u` writes its report
    /// to [`Pass::part_of`]`(u)`, and inside its process this is that path.
    pub part: PathBuf,
    /// Smallest number of batches a timing statistic may rest on.
    pub min_batches: u64,
}

/// Nanoseconds since the Unix epoch: a clock a launcher and the rank
/// processes it spawns can both read.
fn unix_ns() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before 1970")
        .as_nanos()
}

impl Pass {
    /// Fixed work, not fixed time: a phase runs `at_full` batches (or units),
    /// a constant sized so that the seed commit fills its share of a
    /// [`RUN_SECONDS`](crate::driver::RUN_SECONDS) run on the machine the
    /// benchmark was defined on, scaled by this pass's share of that length —
    /// so parent and change do the same ops and counts stay comparable.
    ///
    /// The result is the count **per world**: the pass's total, never below
    /// `min`, split evenly over its worlds.
    pub fn count(&self, at_full: u64, min: u64) -> u64 {
        let share = self.seconds / crate::driver::RUN_SECONDS;
        let total = ((at_full as f64 * share).round() as u64).max(min);
        total.div_ceil(self.worlds)
    }

    /// Where world (or simulation) `unit` of the pass writes its report.
    pub fn part_of(&self, unit: u64) -> PathBuf {
        self.part.with_extension(format!("unit{unit}.json"))
    }

    fn launch_file(&self) -> PathBuf {
        self.part.with_extension("launch")
    }

    /// In a world's process: launch the [`world`]. The wall-clock time just before the
    /// launch goes to a file, from which [`Pass::ready`] measures, so on proc
    /// `setup_s` includes what the launcher does (segment files, spawn, exec,
    /// argv replay). The first writer wins: a proc rank process replays this
    /// call and must not overwrite its launcher's stamp.
    pub fn world(&self, conduit: ConduitKind, seg_size: usize, body: impl Fn() + Sync) {
        self.stamp_launch();
        world(conduit, seg_size, body);
    }

    fn stamp_launch(&self) {
        let stamp = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.launch_file());
        if let Ok(mut f) = stamp {
            write!(f, "{}", unix_ns()).expect("write launch stamp");
        }
    }

    /// Every rank calls this when the world is set up and warm, just before
    /// its first timed op; the result is this world's `setup_s`, the time since
    /// the launch stamp. Also where the kill-rank test hook fires.
    pub fn ready(&self, p: &RunParams) -> Sample {
        let stamp = std::fs::read_to_string(self.launch_file()).expect("launch stamp");
        let launched: u128 = stamp.parse().expect("launch stamp is a number");
        let secs = unix_ns().saturating_sub(launched) as f64 / 1e9;
        if p.kill_rank && upcxx::rank_me() == 1 {
            panic!("test hook: rank 1 dies after set-up");
        }
        Sample::new(secs, "s", 1)
    }
}

/// Launch a 2-rank world on `conduit` with `seg_size`-byte segments and run
/// `body` on every rank, each pinned to its CPU. On proc this returns only in
/// the launcher.
pub fn world(conduit: ConduitKind, seg_size: usize, body: impl Fn() + Sync) {
    let cfg = Config::default()
        .with_conduit(conduit)
        .with_seg_size(seg_size);
    upcxx::run_spmd_with(2, cfg, || {
        crate::sys::pin_to_cpu(upcxx::rank_me());
        body();
    });
}

/// A symmetric phase (both ranks drive the same stream), run in slices so a
/// workload can interleave its phases: every phase then samples the whole run
/// and a seconds-long disturbance of the machine hits a part of each phase's
/// batches, not one phase entirely.
pub struct SymmetricPhase {
    /// Batch times of all slices so far.
    pub series: stats::Series,
    per_slice: u64,
    next: u64,
}

impl SymmetricPhase {
    /// A phase of `per_slice` batches of `ops_per_batch` ops in every slice.
    pub fn new(ops_per_batch: u64, per_slice: u64) -> SymmetricPhase {
        SymmetricPhase {
            series: stats::Series::new(ops_per_batch),
            per_slice,
            next: 0,
        }
    }

    /// Collective: barrier, time one slice of batches, barrier.
    pub fn slice(&mut self, mut batch: impl FnMut(u64)) {
        upcxx::barrier();
        for k in self.next..self.next + self.per_slice {
            timed(&mut self.series, || batch(k));
        }
        self.next += self.per_slice;
        upcxx::barrier();
    }
}

/// Time `f` as one batch of `series`.
#[inline]
pub fn timed<R>(series: &mut stats::Series, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    series.batch_ns.push(t.elapsed().as_nanos() as u64);
    r
}

/// Run unit `unit` of `pass` in a process of its own and return its report.
/// For `sim_eadd` a unit is one simulated world: `SimRuntime` does not give
/// its ranks' memory back when dropped (a finding, see the README), so with a
/// new world per traversal in one process every one runs in a larger heap
/// than the last and times climb by 70 % within ten. For the others it is one
/// world (see [`Pass::worlds`]); `sim_dht` repeats its simulation inside it.
pub fn unit_process(p: &RunParams, pass: &Pass, unit: u64) -> Report {
    let out = pass.part_of(unit);
    let status = crate::driver::child_command(&RunParams {
        seconds: pass.seconds,
        trace: pass.traced,
        out: out.clone(),
        unit: Some(unit),
        ..p.clone()
    })
    .status()
    .expect("spawn unit process");
    assert!(status.success(), "unit {unit} of {} {status}", p.workload);
    Report::read(&out).unwrap_or_else(|| panic!("no report at {}", out.display()))
}

/// Σ over ranks of a per-rank rate. Collective.
pub fn sum_over_ranks(x: f64) -> f64 {
    upcxx::reduce_all(x, upcxx::ops::add_f64).wait()
}

/// Largest peak RSS over ranks (one process on smp, one per rank on proc).
/// Collective.
pub fn peak_rss_over_ranks() -> f64 {
    upcxx::reduce_all(crate::sys::peak_rss_mib(), upcxx::ops::max_f64).wait()
}

/// Counters of the calling rank from `upcxx::metrics::to_json()`, read by key
/// (an absent key is an absent metric).
pub fn counter(key: &str) -> Option<f64> {
    crate::json::num_by_key(&upcxx::metrics::to_json(), key)
}

/// Worlds a pass of `p` is split over (see [`Pass::worlds`]); their
/// processes work it out again from the same argv.
fn worlds_of(p: &RunParams) -> u64 {
    match p.workload.as_str() {
        _ if p.smoke => 1,
        "sim_eadd" => 1,
        "sim_dht" => 28,
        _ => 7,
    }
}

/// Run the workload named in `p` and leave its report at `p.out`: one world
/// or simulation, in its own process (`p.unit`); otherwise all of them for
/// every pass, merged. A traced
/// run makes two passes — untraced, then with spans — so it can report the
/// overhead of tracing itself.
pub fn run(p: &RunParams) {
    let pass = Pass {
        seconds: p.seconds,
        traced: p.trace,
        worlds: worlds_of(p),
        part: p.out.clone(),
        min_batches: if p.smoke { 5 } else { 200 },
    };
    if let Some(unit) = p.unit {
        return match p.workload.as_str() {
            "smp_rma_small" => rma::small(p, &pass),
            "smp_rma_bulk" => rma::bulk(p, &pass),
            "smp_dht" => dht::run(p, &pass, ConduitKind::Smp),
            "proc_dht" => dht::run(p, &pass, ConduitKind::Proc),
            "smp_eadd" => eadd::smp(p, &pass),
            // Simulations are single-threaded; CPU 1 sees fewer interrupts.
            "sim_dht" | "sim_eadd" => {
                crate::sys::pin_to_cpu(1);
                if p.workload == "sim_dht" {
                    sim_dht::run(p, &pass)
                } else {
                    eadd::sim_unit_main(p, unit)
                }
            }
            other => panic!("unknown workload {other:?}"),
        };
    }
    let pass_report = |traced: bool| {
        let pass = Pass {
            seconds: if p.trace { p.seconds / 2.0 } else { p.seconds },
            traced,
            part: p.out.with_extension(if traced {
                "traced.json"
            } else {
                "untraced.json"
            }),
            ..pass.clone()
        };
        match p.workload.as_str() {
            "sim_eadd" => eadd::sim(p, &pass),
            _ => {
                let worlds = (0..pass.worlds).map(|u| unit_process(p, &pass, u));
                let mut report = Report::median_of(worlds.collect());
                if p.workload == "sim_dht" {
                    sim_dht::require_exact(&mut report);
                }
                report
            }
        }
    };
    let mut report = pass_report(false);
    report.put(
        crate::spec::TIMER_NS,
        Sample::new(crate::sys::timer_ns(), "ns", 5),
    );
    if p.trace {
        let traced = pass_report(true);
        let base = report.value(crate::spec::PRIMARY_NS);
        let with = traced.value(crate::spec::PRIMARY_NS);
        if let (Some(base), Some(with)) = (base, with) {
            report.put("trace.overhead_ratio", Sample::new(with / base, "ratio", 1));
            report.note("trace.overhead_base_ns_per_op", base);
        }
        // Span-derived numbers come from the traced pass; everything timed
        // stays from the untraced one.
        for (k, s) in traced.metrics {
            report.metrics.entry(k).or_insert(s);
        }
        report.attempted += traced.attempted;
        report.failed += traced.failed;
    }
    report.write(&p.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(name: &str, seconds: f64) -> Pass {
        // The benchmark's own (ignored) output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        Pass {
            seconds,
            traced: false,
            worlds: 1,
            part: dir.join(format!("unit-test.{name}.json")),
            min_batches: 200,
        }
    }

    #[test]
    fn work_is_fixed_and_scales_with_the_run_length() {
        let full = pass("count", crate::driver::RUN_SECONDS);
        assert_eq!(full.count(30_000, 200), 30_000);
        assert_eq!(pass("count", 6.0).count(30_000, 200), 15_000);
        assert_eq!(pass("count", 0.24).count(600, 5), 12);
        assert_eq!(pass("count", 0.24).count(12, 2), 2);
        // Split evenly over the pass's worlds, rounding up.
        let seven = Pass { worlds: 7, ..full };
        assert_eq!(seven.count(30_000, 200), 4286);
        assert_eq!(seven.count(600, 200), 86);
    }

    #[test]
    fn the_launchers_stamp_is_not_overwritten() {
        // A proc rank process replays the launcher's calls; `setup_s` must
        // still count from the launcher's stamp.
        let p = pass("stamp", 1.0);
        let _ = std::fs::remove_file(p.launch_file());
        p.stamp_launch();
        let first = std::fs::read_to_string(p.launch_file()).unwrap();
        assert!(first.parse::<u128>().unwrap() > 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.stamp_launch();
        assert_eq!(std::fs::read_to_string(p.launch_file()).unwrap(), first);
        std::fs::remove_file(p.launch_file()).unwrap();
    }
}
