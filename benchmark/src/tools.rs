//! `--calibrate` and `--compare`: the choosing-metrics guide's §6/§8 procedure
//! as tooling. Calibration measures how far each end-to-end metric moves
//! between runs of the *same* code and writes the regression bounds into
//! `BENCHMARK.json`; comparison judges two sets of result files against them.

use crate::driver::{self, Options};
use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Floor of every bound, and the bound of `setup_s` (the contract's largest),
/// as shares of the parent's median.
const MIN_BOUND: f64 = 0.05;
const MAX_BOUND: f64 = 0.25;
/// `ok_ratio` may not drop at all; the contract wants a share, so a small one.
const OK_RATIO_BOUND: f64 = 0.001;
/// Floor for `virt_ns_per_op`: exact for one seed, so only what the seed's
/// keys move it by (~1 %) has to fit.
const VIRT_MIN_BOUND: f64 = 0.01;
/// A metric whose values range wider than this share of their median over
/// the calibration runs cannot be gated: its phase gets longer or it becomes
/// a per-layer metric.
const MAX_RANGE: f64 = 0.10;

/// `(max - min) / median` of one value per run. From eight runs on, the
/// lowest and the highest run are set aside first: about one workload run in
/// seventy on the machine the benchmark was defined on is slowed for most of
/// its 12 s by something outside it, which the driver's quartiles ignore and
/// a plain range would turn into that metric's bound.
pub fn range_share(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    let med = stats::median(&mut s);
    let kept = if s.len() >= 8 {
        &s[1..s.len() - 1]
    } else {
        &s[..]
    };
    (kept[kept.len() - 1] - kept[0]) / med.abs()
}

/// `values[workload][metric]` of the native end-to-end cells of one results
/// file, plus the per-layer values.
struct Results {
    e2e: BTreeMap<(String, String), f64>,
    layers: BTreeMap<(String, String), f64>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut r = Results {
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no workloads"))?;
    for (w, body) in workloads {
        for (section, into) in [("end_to_end", &mut r.e2e), ("per_layer", &mut r.layers)] {
            for (m, cell) in body.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
                // Stand-in cells (native = false) are not measurements of
                // the metric and are never compared.
                let native = cell.get("native").and_then(Json::as_bool).unwrap_or(true);
                if let (true, Some(v)) = (native, cell.get("value").and_then(Json::as_f64)) {
                    into.insert((w.clone(), m.clone()), v);
                }
            }
        }
    }
    Ok(r)
}

fn load_all(list: &str) -> Result<Vec<Results>, String> {
    list.split(',').map(load).collect()
}

/// Bounds by metric name from the `BENCHMARK.json` at `path`.
pub fn bounds(path: &Path) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let Ok(doc) = Json::parse(&text) else {
        return out;
    };
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(b)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(name.to_string(), b);
        }
    }
    out
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's own spread, winning ≥ 9/10 of pairs.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's run-to-run spread is wider than the bound: no call.
    Unresolved,
}

/// Judge `b` against `a` (one value per run on each side).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let med = |v: &[f64]| stats::median(&mut v.to_vec());
    let (ma, mb) = (med(a), med(b));
    let spread = if a.len() >= 2 {
        stats::iqr_share(a)
    } else {
        0.0
    };
    let worse = worse_by(ma, mb, better);
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| worse_by(**x, **y, better) < 0.0)
        .count();
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread && worse < 0.0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

/// `--compare A B`: one row per (metric, workload).
pub fn compare(left: &str, right: &str, benchmark_json: &Path) -> i32 {
    let (a, b) = match (load_all(left), load_all(right)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let bounds = bounds(benchmark_json);
    println!(
        "A = {} run(s), B = {} run(s); delta is B's median against A's, as a share of A's (the base)",
        a.len(),
        b.len()
    );
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut regressed = 0;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let col = |side: &[Results]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| r.e2e.get(&key).copied())
                    .collect()
            };
            let (va, vb) = (col(&a), col(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bounds.get(m.name).copied().unwrap_or(MIN_BOUND);
            let (worse, spread, verdict) = judge(&va, &vb, m.better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            let identical = va == vb;
            println!(
                "{:<15} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>7.2}%  {}{}",
                w.name,
                m.name,
                stats::median(&mut va.clone()),
                stats::median(&mut vb.clone()),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
                if identical {
                    " (identical to the last digit)"
                } else {
                    ""
                },
            );
        }
    }
    // Per-layer metrics have no bound: show what moved, flag exact counts.
    println!("\nper-layer metrics that differ (no bounds; counts compare exactly):");
    for m in spec::per_layer() {
        for w in &spec::WORKLOADS {
            let key = (w.name.to_string(), m.name.to_string());
            let med = |side: &[Results]| {
                let mut v: Vec<f64> = side
                    .iter()
                    .filter_map(|r| r.layers.get(&key).copied())
                    .collect();
                (!v.is_empty()).then(|| stats::median(&mut v))
            };
            if let (Some(x), Some(y)) = (med(&a), med(&b)) {
                if x != y {
                    println!(
                        "{:<15} {:<34} {:>14.4} -> {:>14.4} {} ({:+.2}% of A)",
                        w.name,
                        m.name,
                        x,
                        y,
                        m.unit,
                        (y - x) / x * 100.0
                    );
                }
            }
        }
    }
    i32::from(regressed > 0)
}

/// The bound calibration gives one metric: at least the floor, at least twice
/// the widest range and three times the widest quartile spread seen on any
/// workload that measures it. `None` when that is more than a gate can be:
/// the metric ranged wider than [`MAX_RANGE`] or would need more than the
/// contract's 25 %.
pub fn bound_for(metric: &str, range_share: f64, iqr_share: f64) -> Option<f64> {
    let measured = (2.0 * range_share).max(3.0 * iqr_share);
    match metric {
        "setup_s" => Some(MAX_BOUND),
        "ok_ratio" => Some(OK_RATIO_BOUND),
        _ if range_share > MAX_RANGE || measured > MAX_BOUND => None,
        "virt_ns_per_op" => Some(measured.max(VIRT_MIN_BOUND)),
        _ => Some(measured.max(MIN_BOUND)),
    }
}

/// `--calibrate N`: run the suite N times on seeds 1..=N, print each metric's
/// run-to-run spread per workload, and write `BENCHMARK.json` with the bounds
/// that follow from it.
pub fn calibrate(o: &Options, runs: usize, benchmark_json_path: &Path) -> i32 {
    let mut files = Vec::new();
    for i in 1..=runs.max(2) {
        let opts = Options {
            workload: None,
            seed: i as u64,
            trace: false,
            ..o.clone()
        };
        println!("# calibration run {i}/{}", runs.max(2));
        if driver::run(&opts) != 0 {
            eprintln!("calibration run {i} failed; bounds not written");
            return 1;
        }
        let kept = o.out_dir.join(format!("calibrate.{i}.json"));
        std::fs::rename(o.out_dir.join("results.json"), &kept).expect("keep results file");
        files.push(kept.to_string_lossy().into_owned());
    }
    let all = match load_all(&files.join(",")) {
        Ok(all) => all,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "\n{:<15} {:<18} {:>14} {:>10} {:>10}",
        "workload", "metric", "median", "range", "iqr"
    );
    let mut widest: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let v: Vec<f64> = all
                .iter()
                .filter_map(|r| r.e2e.get(&key).copied())
                .collect();
            if v.len() < 2 {
                continue;
            }
            let med = stats::median(&mut v.clone());
            let range = range_share(&v);
            let iqr = stats::iqr_share(&v);
            println!(
                "{:<15} {:<18} {:>14.6} {:>9.2}% {:>9.2}%",
                w.name,
                m.name,
                med,
                range * 100.0,
                iqr * 100.0
            );
            let e = widest.entry(m.name).or_insert((0.0, 0.0));
            *e = (e.0.max(range), e.1.max(iqr));
        }
    }
    println!("\n{:<18} {:>8}", "metric", "bound");
    let mut bounds = BTreeMap::new();
    let mut unsteady = 0;
    for m in &spec::END_TO_END {
        let (range, iqr) = widest.get(m.name).copied().unwrap_or((0.0, 0.0));
        match bound_for(m.name, range, iqr) {
            Some(b) => {
                let b = (b * 1000.0).ceil() / 1000.0;
                println!("{:<18} {:>7.1}%", m.name, b * 100.0);
                bounds.insert(m.name.to_string(), b);
            }
            None => {
                println!(
                    "{:<18} too unsteady to gate (range {:.1} %): lengthen its phase or make it a per-layer metric",
                    m.name,
                    range * 100.0
                );
                unsteady += 1;
            }
        }
    }
    if unsteady > 0 {
        eprintln!("{unsteady} metric(s) too unsteady; BENCHMARK.json not written");
        return 1;
    }
    std::fs::write(benchmark_json_path, benchmark_json(&bounds).pretty())
        .expect("write BENCHMARK.json");
    println!("# written to {}", benchmark_json_path.display());
    0
}

/// `BENCHMARK.json` as this code defines it — generated from the same tables
/// the binary prints from — with the given calibrated bounds.
pub fn benchmark_json(bounds: &BTreeMap<String, f64>) -> Json {
    let metric = |m: &spec::MetricDef, bound: Option<f64>| {
        let mut o = Json::obj();
        o.set("name", Json::Str(m.name.into()))
            .set("unit", Json::Str(m.unit.into()))
            .set("better", Json::Str(m.better.as_str().into()));
        if let Some(b) = bound {
            o.set("bound", Json::Num(b));
        }
        o
    };
    let mut doc = Json::obj();
    doc.set(
        "command",
        Json::Arr(vec![
            Json::Str("bash".into()),
            Json::Str("benchmark/run.sh".into()),
        ]),
    )
    .set("paths", Json::Arr(vec![Json::Str("benchmark".into())]))
    .set("run_seconds", Json::Num(driver::RUN_SECONDS))
    .set(
        "workloads",
        Json::Arr(
            spec::WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(w.name.into()))
                        .set("why", Json::Str(w.why.into()));
                    o
                })
                .collect(),
        ),
    )
    .set(
        "end_to_end",
        Json::Arr(
            spec::END_TO_END
                .iter()
                .map(|m| {
                    let b = bounds
                        .get(m.name)
                        .copied()
                        .or_else(|| bound_for(m.name, 0.0, 0.0));
                    metric(m, b)
                })
                .collect(),
        ),
    )
    .set(
        "per_layer",
        Json::Arr(spec::per_layer().map(|m| metric(m, None)).collect()),
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_procedure() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Worse by 10 % against a 5 % bound.
        let b = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05).2, Verdict::Regressed);
        assert_eq!(judge(&a, &b, Better::Higher, 0.05).2, Verdict::Improved);
        // Within the bound, and not beyond the parent's own spread.
        let c = [100.2, 100.9, 99.4, 100.1, 99.9];
        assert_eq!(judge(&a, &c, Better::Lower, 0.05).2, Verdict::Unchanged);
        // Parent spread wider than the bound: no call either way.
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(
            judge(&noisy, &b, Better::Lower, 0.05).2,
            Verdict::Unresolved
        );
        // Better on the median but losing too many pairs is not a gain.
        let mixed = [90.0, 102.0, 100.0, 90.0, 90.0];
        assert_eq!(judge(&a, &mixed, Better::Lower, 0.05).2, Verdict::Unchanged);
    }

    #[test]
    fn bounds_have_a_floor_and_refuse_the_unsteady() {
        assert_eq!(bound_for("put_p50_ns", 0.01, 0.005), Some(0.05));
        assert_eq!(bound_for("put_p50_ns", 0.07, 0.01), Some(0.14));
        assert_eq!(bound_for("put_p50_ns", 0.08, 0.0625), Some(0.1875));
        assert_eq!(bound_for("put_p50_ns", 0.11, 0.01), None);
        assert_eq!(bound_for("put_p50_ns", 0.09, 0.09), None);
        assert_eq!(bound_for("virt_ns_per_op", 0.0, 0.0), Some(0.01));
        assert_eq!(bound_for("virt_ns_per_op", 0.012, 0.003), Some(0.024));
        assert_eq!(bound_for("setup_s", 0.4, 0.3), Some(0.25));
        assert_eq!(bound_for("ok_ratio", 0.0, 0.0), Some(0.001));
    }

    #[test]
    fn range_sets_one_outlier_aside_from_eight_runs_on() {
        assert_eq!(range_share(&[100.0, 104.0, 98.0]), 0.06);
        let mut v = vec![100.0; 8];
        v[0] = 50.0;
        v[7] = 103.0;
        assert_eq!(range_share(&v), 0.0);
        v[1] = 97.0;
        assert_eq!(range_share(&v), 0.03);
    }
}
