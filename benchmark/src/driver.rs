//! The driver: runs every workload as a watchdogged child process, turns a
//! crash or a hang into `fail_ratio = 1` instead of a hang of its own, prints
//! every metric by name with unit and sample count, and writes the same as
//! JSON under the output directory.

use crate::json::Json;
use crate::report::{self, Report};
use crate::spans::Recorder;
use crate::spec::{self, WorkloadDef};
use crate::workloads::RunParams;
use std::os::unix::process::CommandExt as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;

/// What the driver was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// Run only this workload (and print the contract line).
    pub workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds each workload measures for.
    pub seconds: f64,
    /// Traced run: per-layer metrics, span files, probes.
    pub trace: bool,
    /// ~1/50-scale run of everything, for the benchmark's own tests.
    pub smoke: bool,
    /// Directory for result, span and scratch files.
    pub out_dir: PathBuf,
    /// Test hook: kill rank 1 of this workload after set-up.
    pub kill_rank: Option<String>,
}

/// How one child process ended.
pub struct Outcome {
    /// Its report, if it wrote a well-formed one and exited cleanly.
    pub report: Option<Report>,
    /// Why there is no report.
    pub failure: Option<String>,
    /// Wall-clock seconds the child ran.
    pub wall_s: f64,
}

/// Write rank 0's spans of the traced pass next to the reports, as
/// `trace.<workload>.json` (called by the workload at exit). Every world
/// (or simulation) process records spans; the file is the first one's.
pub fn write_trace(p: &RunParams, rec: &Recorder) {
    if p.unit.unwrap_or(0) != 0 {
        return;
    }
    let path = p.out.with_file_name(format!("trace.{}.json", p.workload));
    std::fs::write(&path, rec.to_json().compact())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// This binary re-invoked as the workload (or probe, or sim unit) process
/// `p` describes; everything the child needs travels in argv.
pub fn child_command(p: &RunParams) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["--child", &p.workload])
        .args(["--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if p.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&p.out);
    if let Some(unit) = p.unit {
        cmd.args(["--unit", &unit.to_string()]);
    }
    if p.smoke {
        cmd.arg("--smoke");
    }
    if p.kill_rank {
        cmd.arg("--kill-rank");
    }
    cmd
}

/// Process-group ids of all live processes, from `/proc/*/stat`.
fn live_groups() -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let stat = std::fs::read_to_string(e.path().join("stat")).ok()?;
            // pid (comm) state ppid pgrp …; comm may contain spaces.
            let rest = stat.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace();
            if f.next()? == "Z" {
                return None; // a zombie is already dead, merely unreaped
            }
            f.nth(1)?.parse().ok()
        })
        .collect()
}

/// Kill every process of group `pgid` and wait until none is left, so no rank
/// of a hung or crashed world outlives its workload.
fn reap_group(pgid: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_groups().contains(&pgid) && Instant::now() < deadline {
        let _ = Command::new("kill")
            .args(["-KILL", "--", &format!("-{pgid}")])
            .stderr(Stdio::null())
            .status();
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Run `name` (a workload or `probes`) as a child of its own process group
/// under a hard timeout.
pub fn run_child(name: &str, o: &Options, watchdog: Duration) -> Outcome {
    let out = o.out_dir.join(format!("report.{name}.json"));
    // Leftovers of an earlier run must not be read as this run's result.
    if let Ok(dir) = std::fs::read_dir(&o.out_dir) {
        let stem = format!("report.{name}.");
        for e in dir.flatten() {
            if e.file_name().to_string_lossy().starts_with(&stem) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let tmp = o.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create scratch dir");
    let mut cmd = child_command(&child_params(name, o, out.clone()));
    // The proc conduit keeps its sockets and segment files under TMPDIR;
    // everything the benchmark writes stays inside the output directory.
    cmd.env("TMPDIR", &tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::from(
            std::os::fd::AsFd::as_fd(&std::io::stderr())
                .try_clone_to_owned()
                .expect("dup stderr"),
        ))
        .process_group(0);
    let started = Instant::now();
    let mut child = cmd.spawn().expect("spawn workload process");
    let pgid = child.id();
    let status = loop {
        match child.try_wait().expect("wait for workload process") {
            Some(status) => break Some(status),
            None if started.elapsed() > watchdog => break None,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    reap_group(pgid);
    let _ = child.wait();
    let wall_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&tmp);
    let failure = match status {
        None => Some(format!(
            "killed by the {:.0} s watchdog",
            watchdog.as_secs_f64()
        )),
        Some(s) if !s.success() => Some(format!("exited with {s}")),
        Some(_) => None,
    };
    let report = if failure.is_none() {
        Report::read(&out)
    } else {
        None
    };
    Outcome {
        failure: failure.or_else(|| report.is_none().then(|| "wrote no report".to_string())),
        report,
        wall_s,
    }
}

/// Watchdog of one child: three times what it should take (a smoke child
/// takes ~0.3 s when the machine is otherwise idle, ~2 s beside the other
/// tests of `cargo test`), and inside the driver's own 180 s limit.
fn watchdog(o: &Options) -> Duration {
    let secs = if o.smoke {
        6.0
    } else {
        3.0 * (o.seconds + 8.0)
    };
    Duration::from_secs_f64(secs.min(170.0))
}

/// One workload's result as the driver reports it.
pub struct WorkloadResult {
    /// Which workload.
    pub def: &'static WorkloadDef,
    /// Its report; a failed workload has an empty one with `fail_ratio` 1.
    pub report: Report,
    /// Why it failed, if it did.
    pub failure: Option<String>,
    /// Wall-clock seconds of the child process(es).
    pub wall_s: f64,
}

impl WorkloadResult {
    /// Whether every op was verified.
    pub fn ok(&self) -> bool {
        self.failure.is_none() && self.report.failed == 0 && self.report.attempted > 0
    }

    /// Failed-or-wrong ops over attempted; 1 for a workload that crashed or
    /// was killed by its watchdog.
    pub fn fail_ratio(&self) -> f64 {
        if self.failure.is_some() {
            1.0
        } else {
            self.report.fail_ratio()
        }
    }
}

/// Run one workload (plus the probes, when traced) and fold the results.
pub fn run_workload(
    def: &'static WorkloadDef,
    o: &Options,
    probes: Option<&Report>,
) -> WorkloadResult {
    let outcome = run_child(def.name, o, watchdog(o));
    let mut report = outcome.report.unwrap_or_default();
    if let Some(p) = probes {
        report.metrics.extend(p.metrics.clone());
        report.notes.extend(p.notes.clone());
    }
    WorkloadResult {
        def,
        report,
        failure: outcome.failure,
        wall_s: outcome.wall_s,
    }
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1e6 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

/// Print one workload's metrics by name, with unit and sample count.
pub fn print_workload(w: &WorkloadResult, o: &Options) {
    let r = &w.report;
    println!(
        "== {}  seed {}  {} s{}{}  attempted={} failed={} fail_ratio={}  ({:.1} s wall)",
        w.def.name,
        o.seed,
        o.seconds,
        if o.trace { "  traced" } else { "" },
        if o.smoke { "  smoke" } else { "" },
        r.attempted,
        r.failed,
        w.fail_ratio(),
        w.wall_s,
    );
    if let Some(why) = &w.failure {
        println!("   FAILED: {why}");
        return;
    }
    let line = |name: &str, note: &str| {
        let Some(s) = r.metrics.get(name) else {
            println!("   {name:<34} absent");
            return;
        };
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p}={}", fmt_value(v)));
        let exact = match s.exact {
            Some(true) => "  exact",
            Some(false) => "  inexact",
            None => "",
        };
        println!(
            "   {name:<34} {:>14} {:<6} n={}{tail}{exact}{note}",
            fmt_value(s.value),
            s.unit,
            s.n
        );
    };
    for m in &spec::END_TO_END {
        if m.name == "ok_ratio" {
            println!(
                "   {:<34} {:>14} {:<6} n={}",
                m.name,
                fmt_value(1.0 - r.fail_ratio()),
                m.unit,
                r.attempted
            );
        } else if spec::is_native(w.def, m.name) {
            line(m.name, "");
        } else if r.metrics.contains_key(m.name) {
            // Measured here but too unsteady to gate on this workload (see
            // `spec::WORKLOADS`); the contract line carries a placeholder.
            line(m.name, "  (not gated here)");
        }
    }
    println!("   (end-to-end names not listed are not measured by this workload; the contract line carries placeholders for them)");
    // Per-layer: everything on a traced run, and what the workload
    // measures anyway (tails, counter ratios) on an untraced one.
    for m in spec::per_layer() {
        if r.metrics.contains_key(m.name) {
            line(m.name, "");
        }
    }
    for (k, v) in &r.notes {
        println!("   # {k}: {v}");
    }
}

/// One workload's section of the results file.
fn workload_json(w: &WorkloadResult) -> Json {
    let r = &w.report;
    let mut e2e = Json::obj();
    for m in &spec::END_TO_END {
        let native = spec::is_native(w.def, m.name);
        let mut o = Json::obj();
        match report::end_to_end_value(w.def, m, r) {
            Some(v) if w.failure.is_none() => o.set("value", Json::Num(v)),
            _ => o.set("value", Json::Null),
        };
        o.set("unit", Json::Str(m.unit.into()))
            .set("native", Json::Bool(native));
        if let Some(s) = r.metrics.get(m.name).filter(|_| native) {
            o.set("n", Json::Num(s.n as f64));
            if let Some((p, v)) = s.tail {
                o.set("tail_pct", Json::Num(p)).set("tail", Json::Num(v));
            }
        }
        e2e.set(m.name, o);
    }
    let mut layers = Json::obj();
    for m in spec::per_layer() {
        if let Some(s) = r.metrics.get(m.name) {
            let mut o = Json::obj();
            o.set("value", Json::Num(s.value))
                .set("unit", Json::Str(m.unit.into()))
                .set("n", Json::Num(s.n as f64));
            if let Some(e) = s.exact {
                o.set("exact", Json::Bool(e));
            }
            layers.set(m.name, o);
        }
    }
    let mut notes = Json::obj();
    for (k, v) in &r.notes {
        notes.set(k, Json::Str(v.clone()));
    }
    let mut o = Json::obj();
    o.set("attempted", Json::Num(r.attempted as f64))
        .set("failed", Json::Num(r.failed as f64))
        .set("fail_ratio", Json::Num(w.fail_ratio()))
        .set("failure", w.failure.clone().map_or(Json::Null, Json::Str))
        .set("wall_s", Json::Num(w.wall_s))
        .set("end_to_end", e2e)
        .set("per_layer", layers)
        .set("notes", notes);
    o
}

/// The whole run as one JSON document (what `--compare` reads).
pub fn results_json(results: &[WorkloadResult], o: &Options, machine: Json) -> Json {
    let mut workloads = Json::obj();
    for w in results {
        workloads.set(w.def.name, workload_json(w));
    }
    let mut doc = Json::obj();
    doc.set("seed", Json::Num(o.seed as f64))
        .set("seconds", Json::Num(o.seconds))
        .set("trace", Json::Bool(o.trace))
        .set("smoke", Json::Bool(o.smoke))
        .set("machine", machine)
        .set("workloads", workloads);
    doc
}

/// Run the requested workloads, print and write the results. Returns the
/// process exit code: 0 only if every op of every workload was verified.
pub fn run(o: &Options) -> i32 {
    std::fs::create_dir_all(&o.out_dir).expect("create output directory");
    let defs: Vec<&'static WorkloadDef> = match &o.workload {
        Some(name) => match spec::workload(name) {
            Some(def) => vec![def],
            None => {
                eprintln!("unknown workload {name:?}; known: {}", workload_names());
                return 2;
            }
        },
        None => spec::WORKLOADS.iter().collect(),
    };
    let facts = crate::sys::machine_facts();
    println!("# machine: {}", facts.compact());

    // The isolated layer probes run once, in a child of their own.
    let probes = o.trace.then(|| run_child("probes", o, watchdog(o)));
    if let Some(Outcome {
        failure: Some(why), ..
    }) = &probes
    {
        println!("== probes FAILED: {why}");
    }
    let probe_report = probes.as_ref().and_then(|p| p.report.as_ref());
    let probes_ok = probes.as_ref().is_none_or(|p| p.failure.is_none());

    let mut results = Vec::new();
    for def in defs {
        let w = run_workload(def, o, probe_report);
        print_workload(&w, o);
        results.push(w);
    }
    let name = match &o.workload {
        Some(w) => format!("results.{w}.json"),
        None => "results.json".into(),
    };
    let path = o.out_dir.join(name);
    std::fs::write(&path, results_json(&results, o, facts).pretty()).expect("write results file");
    println!("# results written to {}", path.display());

    let all_ok = probes_ok && results.iter().all(WorkloadResult::ok);
    if let (Some(_), [w]) = (&o.workload, &results[..]) {
        // Contract mode: the last line of stdout is the one JSON object.
        if w.failure.is_some() || !probes_ok {
            return 1;
        }
        match report::contract_line(w.def, &w.report, o.trace) {
            Some(line) => println!("{line}"),
            None => {
                eprintln!("a metric has no finite value; no result printed");
                return 1;
            }
        }
    }
    i32::from(!all_ok)
}

/// Comma-separated workload names.
pub fn workload_names() -> String {
    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    names.join(", ")
}

/// Parameters of a child process from the driver's options.
pub fn child_params(name: &str, o: &Options, out: PathBuf) -> RunParams {
    RunParams {
        workload: name.to_string(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        out,
        smoke: o.smoke,
        kill_rank: o.kill_rank.as_deref() == Some(name),
        unit: None,
    }
}
