//! The benchmark's own span recorder for `--trace` runs: spans are wrapped
//! around each call *into* a layer from the benchmark's files (spans inside
//! the program are a later issue), kept in memory, and written out when the
//! workload ends. A layer's self time is its span minus its child spans.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span; [`NO_PARENT`] for a root.
pub type SpanId = u32;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// Ops between two sampled ops on the ns-scale workloads.
pub const SAMPLE_EVERY: u64 = 64;

/// Spans one recorder keeps (~13 MB of JSON); later ones are dropped, so a
/// long traced pass stays writable. The count of dropped spans is reported.
pub const CAPACITY: usize = 1 << 17;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary crossed, e.g. `rma.inject`.
    pub name: &'static str,
    /// Identifier shared by all spans of one op.
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// In-memory span store of one rank.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            dropped: 0,
        }
    }

    /// Open a span; close it with [`Recorder::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: SpanId) -> SpanId {
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return NO_PARENT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close span `id`.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record a span around `f`.
    #[inline]
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op_id, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name summary: count, median duration and median self time (span
    /// minus the part its direct children cover), both in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            // A child whose parent was dropped at capacity has no one to
            // charge; `get_mut` skips it.
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0.push(dur as f64);
            e.1.push(dur.saturating_sub(children) as f64);
        }
        by_name
            .into_iter()
            .map(|(name, (mut dur, mut own))| {
                let summary = SpanSummary {
                    count: dur.len() as u64,
                    p50_ns: stats::median(&mut dur),
                    self_p50_ns: stats::median(&mut own),
                };
                (name, summary)
            })
            .collect()
    }

    /// The whole recording as a JSON document (`spans` + `summary`).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("name", Json::Str(s.name.into()))
                    .set("op_id", Json::Num(s.op_id as f64))
                    .set(
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    )
                    .set("start_ns", Json::Num(s.start_ns as f64))
                    .set("end_ns", Json::Num(s.end_ns as f64));
                o
            })
            .collect();
        let mut summary = Json::obj();
        for (name, s) in self.summary() {
            let mut o = Json::obj();
            o.set("count", Json::Num(s.count as f64))
                .set("p50_ns", Json::Num(s.p50_ns))
                .set("self_p50_ns", Json::Num(s.self_p50_ns));
            summary.set(name, o);
        }
        let mut doc = Json::obj();
        doc.set("dropped", Json::Num(self.dropped as f64))
            .set("summary", summary)
            .set("spans", Json::Arr(spans));
        doc
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanSummary {
    /// Spans recorded under the name.
    pub count: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
    /// Median self time, ns.
    pub self_p50_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            op_id: 1,
            parent,
            start_ns,
            end_ns,
        };
        r.spans = vec![
            mk("op", NO_PARENT, 0, 100),
            mk("inject", 0, 10, 40),
            mk("wait", 0, 40, 90),
        ];
        let s = r.summary();
        assert_eq!(s["op"].p50_ns, 100.0);
        assert_eq!(s["op"].self_p50_ns, 20.0);
        assert_eq!(s["inject"].self_p50_ns, 30.0);
        assert_eq!(s["wait"].count, 1);
    }

    #[test]
    fn scope_nests_and_serialises() {
        let mut r = Recorder::new();
        let op = r.begin("op", 7, NO_PARENT);
        let child = r.begin("inner", 7, op);
        r.end(child);
        r.end(op);
        assert_eq!(r.scope("leaf", 8, NO_PARENT, || 5), 5);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[1].parent, op);
        let doc = Json::parse(&r.to_json().compact()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert!(doc.get("summary").unwrap().get("inner").is_some());
    }
}
