//! Command line of the benchmark binary (`run.sh` builds it and passes its
//! arguments through).

use crate::driver::{self, Options};
use crate::workloads::RunParams;
use std::path::PathBuf;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
                        [--out-dir DIR]
       benchmark/run.sh --calibrate [RUNS]
       benchmark/run.sh --compare A.json[,A2.json…] B.json[,B2.json…]

Without --workload every workload runs and results go to <out-dir>/results.json.
With --workload the last line of stdout is the driver-contract JSON object.";

/// Parsed arguments.
struct Args {
    child: Option<String>,
    out: Option<PathBuf>,
    kill_rank_child: bool,
    unit: Option<u64>,
    calibrate: Option<usize>,
    compare: Option<(String, String)>,
    opts: Options,
}

/// The repo root, whether run from there (the driver, run.sh) or from the
/// package root (cargo test).
fn repo_root() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::new()
    } else {
        PathBuf::from("..")
    }
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut a = Args {
        child: None,
        out: None,
        kill_rank_child: false,
        unit: None,
        calibrate: None,
        compare: None,
        opts: Options {
            workload: None,
            seed: 1,
            seconds: driver::RUN_SECONDS,
            trace: false,
            smoke: false,
            out_dir: repo_root().join("benchmark/out"),
            kill_rank: None,
        },
    };
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--child" => a.child = Some(value("a name")?),
            "--unit" => a.unit = Some(num(&value("a number")?)?),
            "--out" => a.out = Some(value("a path")?.into()),
            "--workload" => a.opts.workload = Some(value("a workload name")?),
            "--seed" => a.opts.seed = num(&value("a number")?)?,
            "--seconds" => a.opts.seconds = num(&value("a number")?)?,
            "--out-dir" => a.opts.out_dir = value("a directory")?.into(),
            "--kill-rank-of" => a.opts.kill_rank = Some(value("a workload name")?),
            "--kill-rank" => a.kill_rank_child = true,
            "--smoke" => a.opts.smoke = true,
            "--trace" => {
                // `--trace` alone, or the driver's `--trace 0|1`.
                a.opts.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--calibrate" => {
                let runs = it.peek().and_then(|v| v.parse().ok());
                if runs.is_some() {
                    it.next();
                }
                a.calibrate = Some(runs.unwrap_or(5));
            }
            "--compare" => {
                a.compare = Some((value("two result lists")?, value("two result lists")?))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.opts.smoke && a.opts.seconds == driver::RUN_SECONDS {
        a.opts.seconds = driver::RUN_SECONDS / 50.0;
    }
    if !(a.opts.seconds > 0.0 && a.opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let a = match parse(argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}\nworkloads: {}", driver::workload_names());
            return 2;
        }
    };
    if let Some(name) = &a.child {
        let out = a.out.expect("--child needs --out");
        let mut params: RunParams = driver::child_params(name, &a.opts, out);
        params.kill_rank = a.kill_rank_child;
        params.unit = a.unit;
        if name == "probes" {
            crate::probes::run(&params);
        } else {
            crate::workloads::run(&params);
        }
        return 0;
    }
    let benchmark_json = repo_root().join("BENCHMARK.json");
    if let Some(runs) = a.calibrate {
        return crate::tools::calibrate(&a.opts, runs, &benchmark_json);
    }
    if let Some((left, right)) = &a.compare {
        return crate::tools::compare(left, right, &benchmark_json);
    }
    driver::run(&a.opts)
}
