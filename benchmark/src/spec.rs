//! The benchmark's vocabulary: every workload and metric name, with units.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step);
//! later issues cite them exactly as spelled here.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as cited by later issues.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The 13 end-to-end metrics (the issue's 14 less `put_mib_s`, see
/// [`WORKLOADS`]). Every workload prints all of them (the driver's
/// contract); [`WorkloadDef::native`] says which ones a workload measures
/// itself — the others carry a placeholder (see `report::end_to_end_value`)
/// and must not be cited.
pub const END_TO_END: [MetricDef; 13] = [
    lo("setup_s", "s"),
    lo("put_p50_ns", "ns"),
    lo("get_p50_ns", "ns"),
    hi("get_mib_s", "MiB/s"),
    lo("rpc_rt_p50_ns", "ns"),
    hi("insert_rpc_per_s", "op/s"),
    hi("insert_rma_per_s", "op/s"),
    hi("find_per_s", "op/s"),
    hi("ff_per_s", "msg/s"),
    lo("virt_ns_per_op", "vns"),
    lo("unit_p50_ms", "ms"),
    hi("ok_ratio", "ratio"),
    lo("peak_rss_mib", "MiB"),
];

/// ns/op of a workload's primary phase; the traced run's
/// `trace.overhead_ratio` is the ratio of two of these.
pub const PRIMARY_NS: &str = "primary.ns_per_op";

/// Measured length of a 5 ms timer sleep in ns: the placeholder in time cells
/// a workload does not measure (see `report::end_to_end_value`).
pub const TIMER_NS: &str = "placeholder.timer_ns";

/// A workload's name, reason and native metrics.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name as cited by later issues.
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// End-to-end metrics this workload measures itself, besides the three
    /// every workload has (`setup_s`, `ok_ratio`, `peak_rss_mib`).
    pub native: &'static [&'static str],
}

/// The seven workloads.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "smp_rma_small",
        why: "Fig. 3a: blocking 8 B/1 KiB rput and rget on smp, where runtime overhead above a ~10 ns memcpy is the op",
        native: &["put_p50_ns", "get_p50_ns"],
    },
    WorkloadDef {
        name: "smp_rma_bulk",
        why: "Fig. 3b: 256 KiB blocks over 32 MiB, memcpy-bound; the bypass workload on which hot-path changes must show no change",
        // The put pass is not an end-to-end metric at all: it runs at what
        // the host's shared L3 and memory system leave it (12 GiB/s, but 6
        // GiB/s for five consecutive runs while something else on the host
        // was busy; the page-fault-bound get pass lost 10 % in those), and no
        // other workload measures it. It is the per-layer
        // `core.rma.bulk_put_mib_s`.
        native: &["get_mib_s"],
    },
    WorkloadDef {
        name: "smp_dht",
        why: "Fig. 4 DHT on threads: serialization, closure AMs, inbox and reply matching dominate; RPC-only vs RPC+RMA, insert vs find, aggregated one-way",
        // Not `rpc_rt_p50_ns`: the window-1 round trip between two spinning
        // threads sits in one of two regimes 15 % apart (~2.0 or ~2.3 us)
        // depending on the build and on heap placement, with the hot path
        // unchanged. Not `find_per_s`: ten runs of one build ranged over 17 %
        // (466-595 kop/s), where the same program on proc ranged over 4 %.
        // Neither can be gated or claimed on; both stay visible per
        // layer as `p50.rpc_rt_ns` and `p50.find_ns`, and gated on `proc_dht`.
        native: &["insert_rpc_per_s", "insert_rma_per_s", "ff_per_s"],
    },
    WorkloadDef {
        name: "proc_dht",
        why: "the identical DHT program over processes: frame encode/decode and the Unix-socket hop dominate, so conduit changes show here only",
        native: &["rpc_rt_p50_ns", "insert_rpc_per_s", "insert_rma_per_s", "find_per_s", "ff_per_s"],
    },
    WorkloadDef {
        name: "sim_dht",
        why: "Fig. 4 blocking insert loop at 128 simulated ranks in a small, warm world: the only workload where des, gasnet::sim, netsim and the deferred queues do all the work",
        native: &["virt_ns_per_op", "unit_p50_ms"],
    },
    WorkloadDef {
        name: "sim_eadd",
        why: "Fig. 8 extend-add at 256 simulated ranks: large-message DES event mix, rendezvous and the minimpi baselines",
        // Not `unit_p50_ms`: its wall time ranged over 16 % in ten runs (each
        // unit first-touches 240 MiB), which would have set the bound of the
        // metric for `sim_dht` and `smp_eadd` too. It stays visible per layer
        // as `p50.unit_ms` and `gasnet.sim.wall_ns_per_event`.
        native: &["virt_ns_per_op"],
    },
    WorkloadDef {
        name: "smp_eadd",
        why: "Fig. 8 extend-add in wall-clock on threads: sparse pack/accumulate and large View serialization dominate, small-message overhead does little",
        native: &["unit_p50_ms"],
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether `metric` is a number `workload` measures itself.
pub fn is_native(workload: &WorkloadDef, metric: &str) -> bool {
    matches!(metric, "setup_s" | "ok_ratio" | "peak_rss_mib") || workload.native.contains(&metric)
}

/// Per-layer metrics measured by the isolated probes (`--trace` only); the
/// same in every workload's traced run.
pub const PROBES: &[MetricDef] = &[
    lo("machine.clock_read_ns", "ns"),
    lo("des.sched_ns_per_event", "ns"),
    lo("gasnet.smp.put_8B_ns", "ns"),
    lo("gasnet.smp.put_1KiB_ns", "ns"),
    lo("gasnet.smp.put_64KiB_ns", "ns"),
    lo("gasnet.smp.get_1KiB_ns", "ns"),
    lo("gasnet.smp.amo_ns", "ns"),
    lo("gasnet.smp.barrier_ns", "ns"),
    lo("gasnet.proc.put_1KiB_ns", "ns"),
    lo("gasnet.proc.launch_ms", "ms"),
    lo("core.future.then_ns", "ns"),
    lo("core.future.promise_ns", "ns"),
    lo("core.future.when_all_ns_per_input", "ns"),
    lo("core.future.allocs_per_then", "count"),
    lo("core.ser.tuple_72B_ns", "ns"),
    lo("core.ser.tuple_1KiB_ns", "ns"),
    lo("core.ser.view_4KiB_ns", "ns"),
    lo("core.ser.allocs_per_roundtrip", "count"),
    lo("core.alloc.pair_ns", "ns"),
    lo("core.ctx.idle_progress_ns", "ns"),
    lo("core.rma.rput_8B_ns", "ns"),
    lo("core.rma.rput_1KiB_ns", "ns"),
    lo("core.rma.rput_64KiB_ns", "ns"),
    lo("core.rma.rget_8B_ns", "ns"),
    lo("core.rma.rget_1KiB_ns", "ns"),
    lo("core.rma.rget_64KiB_ns", "ns"),
    lo("core.rma.rput_overhead_ns", "ns"),
    lo("core.rma.allocs_per_rput", "count"),
    lo("core.rma.allocs_per_rget", "count"),
    lo("core.rma.bytes_alloc_per_rget", "B"),
    lo("core.rpc.null_rt_ns", "ns"),
    lo("core.rpc.null_rt_proc_ns", "ns"),
    lo("core.rpc.allocs_per_rt", "count"),
    lo("core.rpc.allocs_per_rt_target", "count"),
    hi("core.rpc.ff_agg_off_per_s", "msg/s"),
    lo("core.coll.barrier_ns", "ns"),
    lo("core.coll.reduce_all_ns", "ns"),
    lo("core.atomic.fetch_add_ns", "ns"),
    lo("core.metrics.to_json_us", "us"),
    lo("dht.local_insert_ns", "ns"),
    lo("dht.insert_rpc_allocs_per_op", "count"),
    lo("dht.insert_rma_allocs_per_op", "count"),
    lo("dht.find_allocs_per_op", "count"),
    lo("sparse.pack_us", "us"),
    lo("sparse.accumulate_us", "us"),
    lo("sparse.plan_ms", "ms"),
];

/// Per-layer metrics a workload's own traced run yields: exact counts, counter
/// ratios, tails and span medians. A workload that does not exercise the
/// layer reports 0.
pub const TRACED: &[MetricDef] = &[
    lo("trace.overhead_ratio", "ratio"),
    lo("des.events_per_op", "count"),
    lo("gasnet.sim.wall_ns_per_event", "ns"),
    lo("gasnet.sim.msgs_per_op", "count"),
    hi("gasnet.sim.rank_busy_frac", "ratio"),
    lo("gasnet.proc.sys_cpu_frac", "ratio"),
    lo("gasnet.proc.ctxsw_per_op", "count"),
    lo("core.ctx.progress_calls_per_op", "count"),
    hi("core.rma.eager_frac", "ratio"),
    hi("core.rma.bulk_put_mib_s", "MiB/s"),
    lo("core.rma.inject_ns", "ns"),
    lo("core.rma.wait_ns", "ns"),
    lo("core.rpc.issue_ns", "ns"),
    lo("core.rpc.wait_ns", "ns"),
    hi("core.agg.msgs_per_batch", "count"),
    hi("core.agg.threshold_flush_frac", "ratio"),
    lo("dht.insert_issue_ns", "ns"),
    lo("dht.find_issue_ns", "ns"),
    lo("sparse.bytes_per_traverse", "B"),
    lo("sparse.init_storage_ms", "ms"),
    lo("sim.setup_ms", "ms"),
    lo("minimpi.eadd_alltoallv_ratio", "ratio"),
    lo("minimpi.eadd_p2p_ratio", "ratio"),
    lo("p50.rpc_rt_ns", "ns"),
    lo("p50.find_ns", "ns"),
    lo("p50.unit_ms", "ms"),
    lo("tail.put_ns", "ns"),
    lo("tail.get_ns", "ns"),
    lo("tail.rpc_rt_ns", "ns"),
    lo("tail.insert_rpc_ns", "ns"),
    lo("tail.insert_rma_ns", "ns"),
    lo("tail.find_ns", "ns"),
    lo("tail.ff_ns", "ns"),
    lo("tail.unit_ms", "ms"),
];

/// All per-layer metrics in `BENCHMARK.json` order.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PROBES.iter().chain(TRACED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(WORKLOADS.len(), 7);
        assert_eq!(END_TO_END.len(), 13);
        assert!(per_layer().count() <= 128);
    }

    #[test]
    fn native_metrics_are_end_to_end_metrics() {
        for w in &WORKLOADS {
            for n in w.native {
                assert!(END_TO_END.iter().any(|m| m.name == *n), "{n}");
            }
        }
    }
}
