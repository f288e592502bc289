//! What a workload process hands back to the driver: named samples with
//! their unit, sample count and tail, plus the attempted/failed op counts.
//! Rank 0 writes it as JSON to the `--out` path carried in argv; the driver
//! parses it back, so the format is covered by a round-trip test.

use crate::json::Json;
use crate::spec::{self, MetricDef, WorkloadDef};
use crate::stats::{self, Series};
use std::collections::BTreeMap;
use std::path::Path;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// The statistic (for timings the median of batch means).
    pub value: f64,
    /// Unit string.
    pub unit: String,
    /// Samples (batches, passes, units) the statistic rests on.
    pub n: u64,
    /// `(percentile, value)` of the tail, where the sample supports one.
    pub tail: Option<(f64, f64)>,
    /// For exact counts: whether two consecutive windows agreed. `Some(false)`
    /// prints as `inexact`.
    pub exact: Option<bool>,
}

impl Sample {
    /// A bare value with a unit, resting on `n` samples.
    pub fn new(value: f64, unit: &str, n: u64) -> Sample {
        Sample {
            value,
            unit: unit.to_string(),
            n,
            tail: None,
            exact: None,
        }
    }

    /// An exact count (allocations per op, events per op …).
    pub fn exact(value: f64, unit: &str, agreed: bool) -> Sample {
        Sample {
            exact: Some(agreed),
            ..Sample::new(value, unit, 2)
        }
    }

    /// The timing statistic of `values` (one per batch or unit, in `unit`):
    /// their median, with the tail beside it.
    pub fn timing(mut values: Vec<f64>, unit: &str) -> Sample {
        let value = stats::median(&mut values);
        Sample {
            tail: stats::tail_sorted(&values),
            ..Sample::new(value, unit, values.len() as u64)
        }
    }

    /// Batch-mean latency of `series` in ns/op.
    pub fn latency_ns(series: &Series) -> Sample {
        Sample::timing(series.sorted_ns_per_op(), "ns")
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("value", Json::Num(self.value))
            .set("unit", Json::Str(self.unit.clone()))
            .set("n", Json::Num(self.n as f64));
        if let Some((pct, v)) = self.tail {
            o.set("tail_pct", Json::Num(pct)).set("tail", Json::Num(v));
        }
        if let Some(e) = self.exact {
            o.set("exact", Json::Bool(e));
        }
        o
    }

    fn from_json(j: &Json) -> Option<Sample> {
        Some(Sample {
            value: j.get("value")?.as_f64().unwrap_or(f64::NAN),
            unit: j.get("unit")?.as_str()?.to_string(),
            n: j.get("n")?.as_f64()? as u64,
            tail: match (j.get("tail_pct"), j.get("tail")) {
                (Some(p), Some(v)) => Some((p.as_f64()?, v.as_f64()?)),
                _ => None,
            },
            exact: j.get("exact").and_then(Json::as_bool),
        })
    }
}

/// The result of one workload (or probe) process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Ops issued and verified.
    pub attempted: u64,
    /// Ops that failed or returned wrong data.
    pub failed: u64,
    /// Every measurement by name.
    pub metrics: BTreeMap<String, Sample>,
    /// Free-form facts printed beside the numbers (sizes, counts).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Record `sample` under `name`.
    pub fn put(&mut self, name: &str, sample: Sample) {
        self.metrics.insert(name.to_string(), sample);
    }

    /// Record a free-form fact.
    pub fn note(&mut self, key: &str, val: impl ToString) {
        self.notes.insert(key.to_string(), val.to_string());
    }

    /// Record the tail of `timing` as the per-layer metric `tail.<stub>`: it
    /// is printed with every run but does not repeat well enough to be gated.
    /// The median goes beside it as `p50.<stub>` where that is a per-layer
    /// metric (`spec::TRACED`): the timings that are end-to-end metrics on
    /// some workloads but not gated on all that measure them.
    pub fn put_tail(&mut self, stub: &str, timing: &Sample) {
        let p50 = format!("p50.{stub}");
        if spec::TRACED.iter().any(|m| m.name == p50) {
            self.put(&p50, Sample::new(timing.value, &timing.unit, timing.n));
        }
        if let Some((pct, v)) = timing.tail {
            self.put(
                &format!("tail.{stub}"),
                Sample::new(v, &timing.unit, timing.n),
            );
            self.note(&format!("tail.{stub}.percentile"), pct);
        }
    }

    /// Value of `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|s| s.value)
    }

    /// Fold another report in (its ops count too; same-named metrics are
    /// replaced).
    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// The report of a pass from those of its worlds (see
    /// `workloads::Pass::worlds`): ops are summed, and every measurement is
    /// the **median over the worlds** that made it of their values (of their
    /// tails, for the tail), resting on the sum of their samples. Exact
    /// counts stay exact only if every world agrees. Notes are the first
    /// world's.
    pub fn median_of(parts: Vec<Report>) -> Report {
        let mut out = Report {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            notes: parts.first().map(|p| p.notes.clone()).unwrap_or_default(),
            ..Report::default()
        };
        let names: std::collections::BTreeSet<&String> =
            parts.iter().flat_map(|p| p.metrics.keys()).collect();
        for name in names {
            let made: Vec<&Sample> = parts.iter().filter_map(|p| p.metrics.get(name)).collect();
            let first = made[0];
            let median = |f: &dyn Fn(&Sample) -> Option<f64>| {
                let mut v: Vec<f64> = made.iter().filter_map(|s| f(s)).collect();
                (!v.is_empty()).then(|| stats::median(&mut v))
            };
            let sample = Sample {
                value: median(&|s| Some(s.value)).expect("made by a world"),
                unit: first.unit.clone(),
                n: made.iter().map(|s| s.n).sum(),
                tail: first
                    .tail
                    .and_then(|(pct, _)| Some((pct, median(&|s| s.tail.map(|t| t.1))?))),
                exact: first.exact.map(|_| {
                    made.iter()
                        .all(|s| s.exact == Some(true) && s.value == first.value)
                }),
            };
            out.metrics.insert(name.clone(), sample);
        }
        out
    }

    /// `failed / attempted`; 1 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// ns/op of the workload's primary phase, from which the traced run
    /// computes `trace.overhead_ratio`.
    pub fn put_primary(&mut self, series: &Series) {
        let n = series.batch_ns.len() as u64;
        self.put(
            spec::PRIMARY_NS,
            Sample::new(series.median_ns_per_op(), "ns", n),
        );
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (k, s) in &self.metrics {
            metrics.set(k, s.to_json());
        }
        let mut notes = Json::obj();
        for (k, v) in &self.notes {
            notes.set(k, Json::Str(v.clone()));
        }
        let mut o = Json::obj();
        o.set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64))
            .set("metrics", metrics)
            .set("notes", notes);
        o
    }

    /// Parse what [`Report::to_json`] wrote.
    pub fn from_json(j: &Json) -> Option<Report> {
        let mut r = Report {
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            ..Report::default()
        };
        for (k, v) in j.get("metrics")?.as_obj()? {
            r.metrics.insert(k.clone(), Sample::from_json(v)?);
        }
        for (k, v) in j.get("notes")?.as_obj()? {
            r.notes.insert(k.clone(), v.as_str()?.to_string());
        }
        Some(r)
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &Path) {
        std::fs::write(path, self.to_json().pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }

    /// Read a report back; `None` if the file is missing or malformed (a
    /// crashed workload).
    pub fn read(path: &Path) -> Option<Report> {
        let text = std::fs::read_to_string(path).ok()?;
        Report::from_json(&Json::parse(&text).ok()?)
    }
}

/// The value of end-to-end metric `m` on workload `w`: the native sample when
/// the workload measures it, else a placeholder. The driver's contract wants
/// every end-to-end metric on every workload, never 0, and rejects a time
/// that reads the same on every run; so a wall-clock time cell the workload
/// does not fill holds the measured length of a timer sleep
/// ([`spec::TIMER_NS`], which does not depend on the program and repeats
/// within half a percent) and every other such cell (rates, ratios, virtual
/// time) holds 1. Placeholders are not measurements of the metric.
pub fn end_to_end_value(w: &WorkloadDef, m: &MetricDef, r: &Report) -> Option<f64> {
    if m.name == "ok_ratio" {
        return Some(1.0 - r.fail_ratio());
    }
    if spec::is_native(w, m.name) {
        return r.value(m.name);
    }
    match m.unit {
        "ns" => r.value(spec::TIMER_NS),
        "ms" => r.value(spec::TIMER_NS).map(|ns| ns / 1e6),
        _ => Some(1.0),
    }
}

/// The one-line JSON object the driver's contract asks for on the last line
/// of stdout. `None` if any metric has no finite value — the run then counts
/// as failed rather than printing a partial result.
pub fn contract_line(w: &WorkloadDef, r: &Report, traced: bool) -> Option<String> {
    let mut metrics = Json::obj();
    let mut add = |name: &str, unit: &str, value: f64| {
        let mut o = Json::obj();
        o.set("value", Json::Num(value))
            .set("unit", Json::Str(unit.to_string()));
        metrics.set(name, o);
    };
    if traced {
        for m in spec::per_layer() {
            // A layer the workload does not exercise reads 0.
            let v = r.value(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            add(m.name, m.unit, v);
        }
    } else {
        for m in &spec::END_TO_END {
            let v = end_to_end_value(w, m, r).filter(|v| v.is_finite())?;
            add(m.name, m.unit, v);
        }
    }
    let mut line = Json::obj();
    line.set("correct", Json::Bool(r.failed == 0 && r.attempted > 0))
        .set("attempted", Json::Num(r.attempted.max(1) as f64))
        .set("failed", Json::Num(r.failed as f64))
        .set("metrics", metrics);
    Some(line.compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report {
            attempted: 1000,
            failed: 0,
            ..Report::default()
        };
        let series = Series {
            ops_per_batch: 10,
            batch_ns: (0..1000).map(|i| 1000 + i).collect(),
        };
        let lat = Sample::latency_ns(&series);
        r.put_tail("put_ns", &lat);
        r.put("put_p50_ns", lat);
        r.put(
            "core.rma.allocs_per_rput",
            Sample::exact(2.0, "count", false),
        );
        r.put_primary(&series);
        r.put(spec::TIMER_NS, Sample::new(5.1e6, "ns", 5));
        r.note("region", "1 MiB");
        r
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let r = sample_report();
        let text = r.to_json().pretty();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metrics["put_p50_ns"].tail.unwrap().0, 99.0);
        assert_eq!(back.value("put_p50_ns"), Some(149.95));
        assert_eq!(back.value("tail.put_ns"), Some(198.9));
        assert_eq!(back.metrics["core.rma.allocs_per_rput"].exact, Some(false));
    }

    #[test]
    fn contract_line_has_every_metric_or_nothing() {
        let w = spec::workload("smp_rma_small").unwrap();
        let mut r = sample_report();
        // Natives missing: no line rather than a partial one.
        assert!(contract_line(w, &r, false).is_none());
        for name in ["setup_s", "get_p50_ns", "peak_rss_mib"] {
            r.put(name, Sample::new(1.5, "x", 1));
        }
        let line = contract_line(w, &r, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        // A non-native metric carries a placeholder: the timer for a time,
        // 1 for anything else.
        let cell = |name: &str| {
            let c = doc.get("metrics").unwrap().get(name).unwrap();
            (
                c.get("value").unwrap().as_f64().unwrap(),
                c.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        };
        assert_eq!(cell("rpc_rt_p50_ns"), (5.1e6, "ns".into()));
        assert_eq!(cell("unit_p50_ms"), (5.1, "ms".into()));
        assert_eq!(cell("find_per_s"), (1.0, "op/s".into()));
        // Traced: every per-layer name, 0 where the layer was not exercised.
        let traced = Json::parse(&contract_line(w, &r, true).unwrap()).unwrap();
        let layers = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(layers.len(), spec::per_layer().count());
    }

    #[test]
    fn a_pass_reports_its_median_world() {
        let world = |lat: f64, rss: Option<f64>, allocs: f64| {
            let mut r = Report {
                attempted: 10,
                failed: 1,
                ..Report::default()
            };
            r.put(
                "rpc_rt_p50_ns",
                Sample {
                    tail: Some((99.0, 2.0 * lat)),
                    ..Sample::new(lat, "ns", 100)
                },
            );
            r.put("allocs", Sample::exact(allocs, "count", true));
            if let Some(rss) = rss {
                r.put("peak_rss_mib", Sample::new(rss, "MiB", 1));
            }
            r.note("world", lat);
            r
        };
        // One world in a slow regime does not move the pass.
        let parts = vec![
            world(100.0, Some(7.0), 3.0),
            world(130.0, None, 3.0),
            world(102.0, None, 3.0),
        ];
        let m = Report::median_of(parts);
        assert_eq!((m.attempted, m.failed), (30, 3));
        let rt = &m.metrics["rpc_rt_p50_ns"];
        assert_eq!((rt.value, rt.n, rt.tail), (102.0, 300, Some((99.0, 204.0))));
        // A metric only some worlds made; counts stay exact if all agree.
        assert_eq!(m.value("peak_rss_mib"), Some(7.0));
        assert_eq!(m.metrics["allocs"].exact, Some(true));
        assert_eq!(m.notes["world"], "100");
        let disagree = Report::median_of(vec![world(1.0, None, 3.0), world(1.0, None, 4.0)]);
        assert_eq!(disagree.metrics["allocs"].exact, Some(false));
        // A single world is reported as it is.
        let one = world(5.0, Some(1.0), 2.0);
        assert_eq!(Report::median_of(vec![one.clone()]), one);
    }

    #[test]
    fn fail_ratio_counts_nothing_attempted_as_failure() {
        assert_eq!(Report::default().fail_ratio(), 1.0);
        let r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        assert_eq!(r.fail_ratio(), 0.25);
    }
}
