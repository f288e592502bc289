//! Tests of the benchmark itself, driving the built binary the way `run.sh`
//! and the driver do. Everything runs at `--smoke` scale (~1/50).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;
use upcxx_benchmark::json::Json;
use upcxx_benchmark::spec;

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = out_dir(test);
    let out = Command::new(env!("CARGO_BIN_EXE_upcxx-benchmark"))
        .args(args)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run the benchmark binary");
    (out, dir)
}

fn last_line_json(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn finite(cell: &Json) -> bool {
    cell.get("value")
        .and_then(Json::as_f64)
        .is_some_and(f64::is_finite)
        && cell
            .get("unit")
            .and_then(Json::as_str)
            .is_some_and(|u| !u.is_empty())
}

/// Per-layer metrics each workload's own traced run must yield (besides the
/// probes, which are the same everywhere).
fn traced_natives(workload: &str) -> &'static [&'static str] {
    match workload {
        "smp_rma_small" => &[
            "trace.overhead_ratio",
            "core.rma.eager_frac",
            "core.rma.inject_ns",
            "core.rma.wait_ns",
            "core.ctx.progress_calls_per_op",
        ],
        "smp_rma_bulk" => &[
            "trace.overhead_ratio",
            "core.rma.eager_frac",
            "core.rma.bulk_put_mib_s",
            "core.rma.inject_ns",
            "core.rma.wait_ns",
            "core.ctx.progress_calls_per_op",
        ],
        "smp_dht" => &[
            "trace.overhead_ratio",
            "core.rpc.issue_ns",
            "core.rpc.wait_ns",
            "core.agg.msgs_per_batch",
            "core.agg.threshold_flush_frac",
            "dht.insert_issue_ns",
            "dht.find_issue_ns",
            "p50.rpc_rt_ns",
            "p50.find_ns",
        ],
        "proc_dht" => &[
            "trace.overhead_ratio",
            "core.rpc.issue_ns",
            "p50.rpc_rt_ns",
            "gasnet.proc.sys_cpu_frac",
            "gasnet.proc.ctxsw_per_op",
        ],
        "sim_dht" => &[
            "trace.overhead_ratio",
            "des.events_per_op",
            "gasnet.sim.wall_ns_per_event",
            "gasnet.sim.msgs_per_op",
            "gasnet.sim.rank_busy_frac",
            "dht.insert_issue_ns",
            "p50.unit_ms",
        ],
        "sim_eadd" => &[
            "trace.overhead_ratio",
            "des.events_per_op",
            "gasnet.sim.wall_ns_per_event",
            "sparse.bytes_per_traverse",
            "minimpi.eadd_alltoallv_ratio",
            "minimpi.eadd_p2p_ratio",
            "p50.unit_ms",
        ],
        "smp_eadd" => &[
            "trace.overhead_ratio",
            "sparse.bytes_per_traverse",
            "sparse.init_storage_ms",
            "p50.unit_ms",
        ],
        other => panic!("no expectation for {other}"),
    }
}

#[test]
fn smoke_suite_emits_every_named_metric() {
    let started = Instant::now();
    let (out, dir) = bench("suite", &["--smoke", "--trace"]);
    assert!(
        out.status.success(),
        "suite failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        started.elapsed().as_secs() < 15,
        "smoke suite took {:?}",
        started.elapsed()
    );
    let doc = Json::parse(&std::fs::read_to_string(dir.join("results.json")).unwrap()).unwrap();
    let workloads = doc.get("workloads").unwrap();
    for w in &spec::WORKLOADS {
        let body = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} missing", w.name));
        assert_eq!(
            body.get("fail_ratio").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(body.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let e2e = body.get("end_to_end").unwrap();
        for m in &spec::END_TO_END {
            let cell = e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{}:{}", w.name, m.name));
            assert!(finite(cell), "{}:{} = {}", w.name, m.name, cell.compact());
            assert_eq!(
                cell.get("native").and_then(Json::as_bool),
                Some(spec::is_native(w, m.name))
            );
        }
        let layers = body.get("per_layer").unwrap();
        let expected = spec::PROBES
            .iter()
            .map(|m| m.name)
            .chain(traced_natives(w.name).iter().copied());
        for name in expected {
            let cell = layers
                .get(name)
                .unwrap_or_else(|| panic!("{}:{name} absent", w.name));
            assert!(finite(cell), "{}:{name} = {}", w.name, cell.compact());
        }
        // The span file of the traced run.
        let trace = std::fs::read_to_string(dir.join(format!("trace.{}.json", w.name))).unwrap();
        let trace = Json::parse(&trace).unwrap();
        assert!(
            !trace.get("spans").unwrap().as_arr().unwrap().is_empty(),
            "{}",
            w.name
        );
    }
    // proc argv replay: the rank-0 *process* of the proc world wrote its
    // report to the --out path it was handed through the launcher's argv.
    assert!(dir.join("report.proc_dht.untraced.unit0.json").is_file());
}

#[test]
fn contract_line_carries_every_metric_and_nothing_else() {
    for (trace, expected) in [
        (
            "0",
            spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", spec::per_layer().map(|m| (m.name, m.unit)).collect()),
    ] {
        let (out, _) = bench(
            &format!("contract{trace}"),
            &[
                "--workload",
                "smp_dht",
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--smoke",
                "--trace",
                trace,
            ],
        );
        assert!(out.status.success());
        let line = last_line_json(&out);
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), expected.len());
        for ((name, cell), (want_name, want_unit)) in metrics.iter().zip(expected) {
            assert_eq!(name, want_name);
            assert_eq!(cell.get("unit").and_then(Json::as_str), Some(want_unit));
            assert!(cell
                .get("value")
                .and_then(Json::as_f64)
                .unwrap()
                .is_finite());
            assert_eq!(
                cell.as_obj().unwrap().len(),
                2,
                "{name}: only value and unit"
            );
        }
    }
}

#[test]
fn same_seed_same_exact_metrics() {
    // Virtual time is the program's output for the generated inputs: the same
    // seed must reproduce it to the last digit, another seed must not.
    let virt = |test: &str, seed: &str| {
        let (out, _) = bench(
            test,
            &[
                "--workload",
                "sim_dht",
                "--seed",
                seed,
                "--smoke",
                "--trace",
                "0",
            ],
        );
        assert!(out.status.success());
        let line = last_line_json(&out);
        let v = line.get("metrics").unwrap().get("virt_ns_per_op").unwrap();
        v.get("value").unwrap().as_f64().unwrap()
    };
    let a = virt("virt_a", "5");
    assert_eq!(a, virt("virt_b", "5"));
    assert_ne!(a, virt("virt_c", "6"));
}

#[test]
fn a_dead_rank_is_a_failed_workload_not_a_hang() {
    // smp: a rank that panics leaves its peer spinning forever; only the
    // watchdog (6 s at smoke scale) ends it. proc: the launcher sees the exit
    // code at once.
    for (workload, limit_s) in [("smp_dht", 10), ("proc_dht", 10)] {
        let started = Instant::now();
        let (out, _) = bench(
            &format!("kill_{workload}"),
            &[
                "--workload",
                workload,
                "--smoke",
                "--kill-rank-of",
                workload,
            ],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "{workload} reported success:\n{stdout}"
        );
        assert!(stdout.contains("fail_ratio=1"), "{stdout}");
        assert!(stdout.contains("FAILED"), "{stdout}");
        assert!(
            Json::parse(stdout.lines().last().unwrap()).is_err(),
            "a failed workload must not print a result line"
        );
        assert!(
            started.elapsed().as_secs() < limit_s,
            "{workload}: {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn benchmark_json_is_what_the_code_defines() {
    // The committed file equals what `--calibrate` writes from the code's own
    // tables (with the committed bounds), so names cannot drift apart.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10);
    let committed = Json::parse(&text).unwrap();
    let bounds = upcxx_benchmark::tools::bounds(&path);
    assert_eq!(committed, upcxx_benchmark::tools::benchmark_json(&bounds));
    let keys: Vec<_> = committed
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for m in committed.get("end_to_end").unwrap().as_arr().unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.compact());
    }
}

#[test]
fn unknown_workload_is_refused() {
    let (out, _) = bench("unknown", &["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
}
