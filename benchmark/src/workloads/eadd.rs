//! `sim_eadd` and `smp_eadd` — the paper's Fig. 8 extend-add traversal
//! (`Variant::UpcxxRpc`) in virtual time at 256 simulated ranks and in
//! wall-clock on 2 rank threads. One unit is one whole traversal over freshly
//! initialised front storage (on sim in a process of its own, see
//! `unit_process`); one of them is checked cell by cell against
//! `serial_reference`. The input is the fixed 3-D grid Laplacian stand-in;
//! on sim the seed draws the virtual time at which the ranks arrive.

use super::{unit_process, Pass, RunParams};
use crate::report::{Report, Sample};
use crate::spans::{Recorder, NO_PARENT};
use crate::stats::{self, Series};
use netsim::MachineConfig;
use pgas_des::rng::splitmix64;
use pgas_des::Time;
use sparse_solver::eadd::{
    eadd_traverse, init_rank_storage, install_plan, serial_reference, verify_against_reference,
};
use sparse_solver::{grid3d_laplacian, nested_dissection, symbolic_factorize, EaddPlan, Variant};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use upcxx::{ConduitKind, SimRuntime};

/// Bytes of one packed update entry (`(u32, u32, f64)`).
const ENTRY_BYTES: u64 = 16;
/// Block size of the 2-D block-cyclic front layout.
const NB: usize = 16;

/// Ordering + symbolic factorization + plan for a `k`^3 grid on `p` ranks —
/// the set-up a solver pays once before its traversals.
pub fn build_plan(k: usize, p: usize) -> Rc<EaddPlan> {
    let tree = nested_dissection(k, 32);
    let a = grid3d_laplacian(k).permute(&tree.perm);
    let fronts = symbolic_factorize(&a, &tree);
    EaddPlan::build(tree, fronts, p, NB)
}

/// Bytes of packed entries one traversal moves: every non-root front sends
/// its whole contribution block. Computed from the plan, exact.
pub fn bytes_per_traverse(plan: &EaddPlan) -> u64 {
    (0..plan.tree.nodes.len())
        .filter(|&id| plan.tree.nodes[id].parent.is_some())
        .map(|id| {
            let cb = (plan.fronts[id].dim() - plan.fronts[id].ncols()) as u64;
            cb * cb * ENTRY_BYTES
        })
        .sum()
}

/// Check every cell the calling rank stores against `reference`; returns
/// cells checked (panics on a mismatch, which the driver reports as a failed
/// workload).
fn verify_my_fronts(plan: &EaddPlan, reference: &HashMap<usize, Vec<f64>>, me: usize) -> u64 {
    (0..plan.tree.nodes.len())
        .filter(|&id| plan.map[id].contains(me))
        .map(|id| verify_against_reference(plan, reference, id) as u64)
        .sum()
}

fn unit_metrics(r: &mut Report, unit_ns: &[u64], bytes: u64) {
    let unit = Sample::timing(unit_ns.iter().map(|&ns| ns as f64 / 1e6).collect(), "ms");
    r.put_tail("unit_ms", &unit);
    r.put("unit_p50_ms", unit);
    let series = Series {
        ops_per_batch: bytes / ENTRY_BYTES,
        batch_ns: unit_ns.to_vec(),
    };
    r.put_primary(&series);
    r.put(
        "sparse.bytes_per_traverse",
        Sample::exact(bytes as f64, "B", true),
    );
}

// ------------------------------------------------------------------ sim

struct SimShape {
    k: usize,
    ranks: usize,
}

/// Units of a full-length `sim_eadd` run (~0.95 s each at the seed, process
/// start and plan included).
const SIM_UNITS: u64 = 12;

fn sim_shape(smoke: bool) -> SimShape {
    if smoke {
        SimShape { k: 8, ranks: 16 }
    } else {
        SimShape { k: 24, ranks: 256 }
    }
}

/// One simulated traversal: `(wall ns, virtual end time, runtime)`.
fn sim_unit(seed: u64, plan: &Rc<EaddPlan>, variant: Variant) -> (u64, Time, SimRuntime) {
    let t = Instant::now();
    let rt = SimRuntime::new(MachineConfig::cori_haswell(), plan.p, 4 << 10);
    let finished = Rc::new(Cell::new(0usize));
    let latest = Rc::new(Cell::new(Time::ZERO));
    // The input is a fixed matrix, so all the seed draws is the point on the
    // virtual clock (0-2 us) at which every rank arrives. Per-rank skews were
    // tried and rejected: the simulated schedule is chaotic in them (16 ns of
    // skew moves the end time by 3 %), which would drown the metric.
    let start = Time::from_ns(splitmix64(seed) % 2000);
    for r in 0..plan.p {
        let (plan, finished, latest) = (plan.clone(), finished.clone(), latest.clone());
        rt.spawn_at(r, start, move || {
            init_rank_storage(&plan);
            install_plan(plan.clone());
            upcxx::barrier_async()
                .then_fut(move |_| eadd_traverse(plan, variant))
                .then(move |_| {
                    finished.set(finished.get() + 1);
                    latest.set(
                        latest
                            .get()
                            .max(upcxx::sim_rank_now().expect("sim conduit")),
                    );
                });
        });
    }
    rt.run();
    assert_eq!(finished.get(), plan.p, "incomplete traversal");
    (t.elapsed().as_nanos() as u64, latest.get(), rt)
}

/// Unit numbers from here on run an MPI variant, for the Fig. 8 ratios.
const MPI_UNITS: [(u64, Variant, &str); 2] = [
    (1000, Variant::MpiAlltoallv, "minimpi.eadd_alltoallv_ratio"),
    (1001, Variant::MpiP2p, "minimpi.eadd_p2p_ratio"),
];

/// One unit in this process: build the plan (the set-up), simulate one
/// traversal, report the raw numbers. Unit 0 also checks every cell.
pub fn sim_unit_main(p: &RunParams, unit_no: u64) {
    let shape = sim_shape(p.smoke);
    let mut rec = Recorder::new();
    let t = Instant::now();
    let plan = build_plan(shape.k, shape.ranks);
    let setup_s = t.elapsed().as_secs_f64();
    let variant = MPI_UNITS
        .iter()
        .find(|(no, ..)| *no == unit_no)
        .map_or(Variant::UpcxxRpc, |(_, v, _)| *v);
    let span = p
        .trace
        .then(|| rec.begin("eadd.sim_traverse", unit_no, NO_PARENT));
    let (run_ns, virt, rt) = sim_unit(p.seed, &plan, variant);
    span.into_iter().for_each(|id| rec.end(id));
    let cells: u64 = if unit_no == 0 {
        let reference = serial_reference(&plan);
        (0..plan.p)
            .map(|r| rt.with_rank(r, || verify_my_fronts(&plan, &reference, r)))
            .sum()
    } else {
        0
    };
    let world = rt.world();
    let busy: Time = (0..plan.p).map(|r| world.rank_busy(r)).sum();
    let mut r = Report::default();
    for (name, value, unit) in [
        ("setup_s", setup_s, "s"),
        ("run_ns", run_ns as f64, "ns"),
        ("virt_ns", virt.as_ns_f64(), "vns"),
        ("events", world.events_executed() as f64, "count"),
        ("msgs", world.msg_count() as f64, "count"),
        ("busy_ns", busy.as_ns_f64(), "vns"),
        ("cells", cells as f64, "count"),
        ("bytes", bytes_per_traverse(&plan) as f64, "B"),
        ("rss_mib", crate::sys::peak_rss_mib(), "MiB"),
    ] {
        r.put(name, Sample::new(value, unit, 1));
    }
    r.note("fronts", plan.tree.nodes.len());
    r.note("levels", plan.tree.n_levels);
    if p.trace {
        crate::driver::write_trace(p, &rec);
    }
    r.write(&p.out);
    // Skip tearing the simulated world down; the numbers are on disk.
    std::process::exit(0);
}

/// `sim_eadd`: a fixed number of units, each in its own process.
pub fn sim(p: &RunParams, pass: &Pass) -> Report {
    let shape = sim_shape(p.smoke);
    let units: Vec<Report> = (0..pass.count(SIM_UNITS, if p.smoke { 2 } else { 5 }))
        .map(|i| unit_process(p, pass, i))
        .collect();
    let col = |name: &str| -> Vec<f64> {
        units
            .iter()
            .map(|u| u.value(name).expect("unit field"))
            .collect()
    };
    let same = |name: &str| col(name).windows(2).all(|w| w[0] == w[1]);
    let exact = ["virt_ns", "events", "msgs", "busy_ns"]
        .into_iter()
        .all(same);
    let cells = col("cells")[0] as u64;
    let mut r = Report {
        attempted: cells,
        failed: if exact { 0 } else { cells },
        ..Report::default()
    };
    let n = units.len() as u64;
    let unit_ns: Vec<u64> = col("run_ns").iter().map(|&ns| ns as u64).collect();
    unit_metrics(&mut r, &unit_ns, col("bytes")[0] as u64);
    r.notes.extend(units[0].notes.clone());
    let (virt, events) = (col("virt_ns")[0], col("events")[0]);
    r.put("virt_ns_per_op", Sample::exact(virt, "vns", exact));
    r.put(
        "setup_s",
        Sample::new(stats::median(&mut col("setup_s")), "s", n),
    );
    let rss = col("rss_mib").into_iter().fold(0.0, f64::max);
    r.put("peak_rss_mib", Sample::new(rss, "MiB", n));
    let ops = col("bytes")[0] / ENTRY_BYTES as f64;
    r.put(
        "des.events_per_op",
        Sample::exact(events / ops, "count", exact),
    );
    r.put(
        "gasnet.sim.msgs_per_op",
        Sample::exact(col("msgs")[0] / ops, "count", exact),
    );
    r.put(
        "gasnet.sim.rank_busy_frac",
        Sample::exact(
            col("busy_ns")[0] / (virt * shape.ranks as f64),
            "ratio",
            exact,
        ),
    );
    let mut per_event: Vec<f64> = col("run_ns").iter().map(|ns| ns / events).collect();
    r.put(
        "gasnet.sim.wall_ns_per_event",
        Sample::new(stats::median(&mut per_event), "ns", n),
    );
    if pass.traced {
        // The paper's Fig. 8 comparison: the two MPI strategies once each,
        // as virtual time over UpcxxRpc's.
        for (unit_no, _, metric) in MPI_UNITS {
            let t = unit_process(p, pass, unit_no)
                .value("virt_ns")
                .expect("unit field");
            r.put(metric, Sample::exact(t / virt, "ratio", true));
        }
        r.note("minimpi.ratio_base_virt_ns", virt);
    }
    r.note("grid", format!("{0}x{0}x{0}", shape.k));
    r.note("ranks", shape.ranks);
    r
}

// ------------------------------------------------------------------ smp

fn smp_grid(smoke: bool) -> usize {
    if smoke {
        8
    } else {
        16
    }
}

/// Units of a full-length `smp_eadd` run (~28 ms each at the seed, the
/// untimed re-initialisation of the front storage included).
const SMP_UNITS: u64 = 420;

/// `smp_eadd`.
pub fn smp(p: &RunParams, pass: &Pass) {
    let k = smp_grid(p.smoke);
    let units = pass.count(SMP_UNITS, if p.smoke { 2 } else { 20 });
    pass.world(ConduitKind::Smp, 8 << 20, || {
        let me = upcxx::rank_me();
        // The plan holds `Rc`s, so every rank builds its own replica —
        // exactly the "replicated analysis data" of the paper.
        let plan = build_plan(k, upcxx::rank_n());
        let mut rec = Recorder::new();
        let traverse = |rec: &mut Recorder, unit: u64| {
            let init = pass
                .traced
                .then(|| rec.begin("eadd.init_storage", unit, NO_PARENT));
            init_rank_storage(&plan);
            install_plan(plan.clone());
            init.into_iter().for_each(|id| rec.end(id));
            upcxx::barrier();
            let t = Instant::now();
            let span = pass
                .traced
                .then(|| rec.begin("eadd.traverse", unit, NO_PARENT));
            eadd_traverse(plan.clone(), Variant::UpcxxRpc).wait();
            upcxx::barrier();
            span.into_iter().for_each(|id| rec.end(id));
            t.elapsed().as_nanos() as u64
        };
        traverse(&mut rec, 0);
        let setup = pass.ready(p);
        let unit_ns: Vec<u64> = (0..units).map(|unit| traverse(&mut rec, unit)).collect();
        let checked = verify_my_fronts(&plan, &serial_reference(&plan), me);
        let cells = upcxx::reduce_all(checked, upcxx::ops::add_u64).wait();
        if me == 0 {
            let mut r = Report {
                attempted: cells,
                ..Report::default()
            };
            unit_metrics(&mut r, &unit_ns, bytes_per_traverse(&plan));
            r.note("fronts", plan.tree.nodes.len());
            r.note("levels", plan.tree.n_levels);
            r.put("setup_s", setup);
            r.put(
                "peak_rss_mib",
                Sample::new(crate::sys::peak_rss_mib(), "MiB", 1),
            );
            if pass.traced {
                if let Some(s) = rec.summary().get("eadd.init_storage") {
                    r.put(
                        "sparse.init_storage_ms",
                        Sample::new(s.p50_ns / 1e6, "ms", s.count),
                    );
                }
                crate::driver::write_trace(p, &rec);
            }
            r.note("grid", format!("{k}x{k}x{k}"));
            r.write(&pass.part);
        }
        upcxx::barrier();
    });
}
