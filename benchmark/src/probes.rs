//! Isolated per-layer probes (`--trace` runs only): each times or counts one
//! module through its public functions, with nothing else running, so a
//! change to that layer has a number of its own to move. They run in a child
//! process of their own, proc worlds first — the proc launcher re-executes the
//! binary and replays `launch` calls by counter, so nothing costly may precede
//! a proc world.
//!
//! Not separable from outside, and said so in the README: the always-on
//! metrics/flight hooks sit *inside* `core.rma.rput_overhead_ns`.

use crate::alloc_count::{self, per_op};
use crate::report::{Report, Sample};
use crate::stats::{self, Series};
use crate::workloads::{eadd, world, RunParams};
use gasnet::Conduit as _;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use upcxx::ConduitKind;

/// Batches every timing probe takes its median over.
const BATCHES: u64 = 30;

/// The timing statistic (median of batch means) of `f` in ns per call over
/// [`BATCHES`] batches of `ops_per_batch` calls, after one warm-up batch.
fn probe_ns(ops_per_batch: u64, mut f: impl FnMut(u64)) -> Sample {
    let mut series = Series::new(ops_per_batch);
    for b in 0..=BATCHES {
        let t = Instant::now();
        for i in 0..ops_per_batch {
            f(b * ops_per_batch + i);
        }
        if b > 0 {
            series.batch_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    // 30 batches support no tail worth printing.
    Sample {
        tail: None,
        ..Sample::latency_ns(&series)
    }
}

fn exact_count(p: alloc_count::PerOp) -> Sample {
    Sample::exact(p.allocs, "count", p.exact)
}

fn bump(x: u64) -> u64 {
    x + 1
}

/// Scale a probe's op count down for smoke runs.
fn scaled(n: u64, smoke: bool) -> u64 {
    if smoke {
        (n / 20).max(4)
    } else {
        n
    }
}

// ----------------------------------------------------------- proc worlds

/// `gasnet.proc.*` and `core.rpc.null_rt_proc_ns`. Rank 0 of each world
/// leaves its numbers in a part file the launcher reads back.
fn proc_probes(r: &mut Report, out: &Path, smoke: bool) {
    // An empty 2-rank world, spawn to teardown, as the launcher sees it.
    let mut launch_ms = Vec::new();
    for _ in 0..if smoke { 1 } else { 5 } {
        let t = Instant::now();
        gasnet::proc::launch(2, gasnet::proc::ProcConfig::default(), |_| {});
        launch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let n = launch_ms.len() as u64;
    r.put(
        "gasnet.proc.launch_ms",
        Sample::new(stats::median(&mut launch_ms), "ms", n),
    );

    let raw = out.with_extension("proc_raw.json");
    gasnet::proc::launch(2, gasnet::proc::ProcConfig::default(), |h| {
        if h.rank_me() == 0 {
            let buf = vec![0x5au8; 1024];
            let mut part = Report::default();
            part.put(
                "gasnet.proc.put_1KiB_ns",
                probe_ns(scaled(20_000, smoke), |i| {
                    h.put_bytes(1, (i as usize % 1024) * 1024, black_box(&buf));
                }),
            );
            part.write(&raw);
        }
        h.barrier();
    });
    r.merge(Report::read(&raw).expect("proc put probe report"));

    let rpc = out.with_extension("proc_rpc.json");
    world(ConduitKind::Proc, 8 << 20, || {
        if upcxx::rank_me() == 0 {
            let mut part = Report::default();
            part.put(
                "core.rpc.null_rt_proc_ns",
                probe_ns(scaled(2_000, smoke), |i| {
                    black_box(upcxx::rpc(1, bump, i).wait());
                }),
            );
            part.write(&rpc);
        }
        upcxx::barrier();
    });
    r.merge(Report::read(&rpc).expect("proc rpc probe report"));
}

// ------------------------------------------------------ in-process layers

fn des_probe(r: &mut Report, smoke: bool) {
    use pgas_des::{SharedSim, Time};
    let events = scaled(100_000, smoke);
    let mut per_event = Vec::new();
    for _ in 0..10 {
        let sim = SharedSim::new();
        let t = Instant::now();
        for i in 0..events {
            sim.schedule_at(Time::from_ns(i * 7 % 1000), Box::new(|| {}));
        }
        sim.run();
        per_event.push(t.elapsed().as_nanos() as f64 / events as f64);
        assert_eq!(sim.events_executed(), events);
    }
    r.put(
        "des.sched_ns_per_event",
        Sample::new(stats::median(&mut per_event), "ns", 10),
    );
}

fn future_probes(r: &mut Report, smoke: bool) {
    const LINKS: u64 = 100;
    let chain = || {
        let p = upcxx::Promise::<u64>::new();
        let mut f = p.get_future();
        for _ in 0..LINKS {
            f = f.then(|v| v + 1);
        }
        p.fulfill(black_box(1));
        black_box(f.wait());
    };
    let per_chain = probe_ns(scaled(1_000, smoke), |_| chain());
    r.put(
        "core.future.then_ns",
        Sample {
            value: per_chain.value / LINKS as f64,
            ..per_chain
        },
    );
    let links = per_op(100, |n| (0..n).for_each(|_| chain()));
    let bare = per_op(100, |n| {
        for _ in 0..n {
            let p = upcxx::Promise::<u64>::new();
            let f = p.get_future();
            p.fulfill(black_box(1));
            black_box(f.wait());
        }
    });
    r.put(
        "core.future.allocs_per_then",
        Sample::exact(
            (links.allocs - bare.allocs) / LINKS as f64,
            "count",
            links.exact && bare.exact,
        ),
    );
    r.put(
        "core.future.promise_ns",
        probe_ns(scaled(50_000, smoke), |i| {
            let p = upcxx::Promise::<u64>::new();
            let f = p.get_future();
            p.fulfill(black_box(i));
            black_box(f.wait());
        }),
    );
    const INPUTS: u64 = 64;
    let all = probe_ns(scaled(2_000, smoke), |_| {
        let ps: Vec<upcxx::Promise<u64>> = (0..INPUTS).map(|_| upcxx::Promise::new()).collect();
        let f = upcxx::when_all_vec(ps.iter().map(|p| p.get_future()).collect());
        for (i, p) in ps.iter().enumerate() {
            p.fulfill(i as u64);
        }
        black_box(f.wait());
    });
    r.put(
        "core.future.when_all_ns_per_input",
        Sample {
            value: all.value / INPUTS as f64,
            ..all
        },
    );
}

fn ser_probes(r: &mut Report, smoke: bool) {
    use upcxx::ser::{from_bytes, to_bytes};
    // The `insert_rpc` argument, round-tripped: key + value.
    let small = (7u64, vec![0xa5u8; 64]);
    let large = (7u64, vec![0xa5u8; 1016]);
    let roundtrip = |msg: &(u64, Vec<u8>)| {
        let back: (u64, Vec<u8>) = from_bytes(to_bytes(black_box(msg)));
        black_box(back);
    };
    r.put(
        "core.ser.tuple_72B_ns",
        probe_ns(scaled(50_000, smoke), |_| roundtrip(&small)),
    );
    r.put(
        "core.ser.tuple_1KiB_ns",
        probe_ns(scaled(20_000, smoke), |_| roundtrip(&large)),
    );
    r.put(
        "core.ser.allocs_per_roundtrip",
        exact_count(per_op(1_000, |n| (0..n).for_each(|_| roundtrip(&small)))),
    );
    let payload: Vec<u64> = (0..512).collect();
    r.put(
        "core.ser.view_4KiB_ns",
        probe_ns(scaled(20_000, smoke), |_| {
            let bytes = to_bytes(&upcxx::make_view(black_box(&payload)));
            let view: upcxx::View<u64> = from_bytes(bytes);
            black_box(view.iter().sum::<u64>());
        }),
    );
}

fn alloc_probe(r: &mut Report, smoke: bool) {
    let mut seg = upcxx::alloc::SegAlloc::new(1 << 20);
    // A realistic free list: 64 live blocks around the pair being timed.
    let live: Vec<usize> = (0..64).map(|_| seg.alloc(1024).expect("fits")).collect();
    r.put(
        "core.alloc.pair_ns",
        probe_ns(scaled(100_000, smoke), |_| {
            let off = seg.alloc(black_box(1024)).expect("fits");
            seg.dealloc(off);
        }),
    );
    live.into_iter().for_each(|off| seg.dealloc(off));
}

fn local_dht_probe(r: &mut Report, smoke: bool) {
    // The paper's 1-rank point: hash-map insert + value copy, no UPC++ call.
    let keys = crate::gen::remote_keys(1, 0, 2, 2048);
    let val = vec![0xa5u8; 1024];
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    r.put(
        "dht.local_insert_ns",
        probe_ns(scaled(20_000, smoke), |i| {
            map.insert(keys[i as usize % keys.len()], black_box(&val).clone());
        }),
    );
}

// ------------------------------------------------------------ raw conduit

fn smp_conduit_probes(r: &mut Report, smoke: bool) {
    let out = Mutex::new(Report::default());
    let bar_ops = scaled(2_000, smoke);
    gasnet::smp::launch(2, gasnet::smp::SmpConfig { seg_size: 1 << 20 }, |h| {
        if h.rank_me() == 0 {
            let mut part = Report::default();
            for (name, len, ops) in [
                ("8B", 8, 200_000),
                ("1KiB", 1024, 100_000),
                ("64KiB", 65536, 5_000),
            ] {
                let buf = vec![0x5au8; len];
                part.put(
                    &format!("gasnet.smp.put_{name}_ns"),
                    probe_ns(scaled(ops, smoke), |i| {
                        h.put_bytes(1, (i as usize % 8) * len, black_box(&buf));
                    }),
                );
            }
            let mut dst = vec![0u8; 1024];
            part.put(
                "gasnet.smp.get_1KiB_ns",
                probe_ns(scaled(100_000, smoke), |i| {
                    h.get_bytes(1, (i as usize % 8) * 1024, black_box(&mut dst));
                }),
            );
            part.put(
                "gasnet.smp.amo_ns",
                probe_ns(scaled(200_000, smoke), |_| {
                    black_box(h.atomic_fetch_add_u64(1, 0, 1));
                }),
            );
            *out.lock().expect("probe mutex") = part;
        }
        // Both ranks: the same number of barriers, timed on rank 0.
        let bar = probe_ns(bar_ops, |_| h.barrier());
        if h.rank_me() == 0 {
            out.lock()
                .expect("probe mutex")
                .put("gasnet.smp.barrier_ns", bar);
        }
    });
    r.merge(out.into_inner().expect("probe mutex"));
}

// ------------------------------------------------------------- smp world

/// Allocations per op on the *target* thread of a window rank 0 drives:
/// windows of N, 2N and 3N ops between barriers; differences cancel what the
/// barriers themselves allocate. Returns `(allocs/op, windows agreed)`.
fn target_allocs_per_op(ops: u64, mut window: impl FnMut(u64)) -> (f64, bool) {
    let me = upcxx::rank_me();
    let mut deltas = [0u64; 3];
    for (w, delta) in deltas.iter_mut().enumerate() {
        upcxx::barrier();
        let before = alloc_count::snapshot().0;
        if me == 0 {
            window(ops * (w as u64 + 1));
        }
        upcxx::barrier();
        *delta = alloc_count::snapshot().0 - before;
    }
    let (d1, d2) = (deltas[1] - deltas[0], deltas[2] - deltas[1]);
    (d1 as f64 / ops as f64, d1 == d2)
}

fn smp_world_probes(r: &mut Report, smoke: bool) {
    let out = Mutex::new(Report::default());
    let coll_ops = scaled(2_000, smoke);
    world(ConduitKind::Smp, 8 << 20, || {
        let me = upcxx::rank_me();
        let mut part = Report::default();
        let region = upcxx::allocate::<u8>(1 << 20);
        let word = upcxx::allocate::<u64>(1);
        let peer_region = upcxx::allgather(region)[1];
        let peer_word = upcxx::allgather(word)[1];
        pgas_dht::enable_recycling();
        upcxx::barrier();

        if me == 0 {
            part.put(
                "core.ctx.idle_progress_ns",
                probe_ns(scaled(200_000, smoke), |_| upcxx::progress()),
            );
            for (name, len, ops) in [
                ("8B", 8usize, 100_000),
                ("1KiB", 1024, 100_000),
                ("64KiB", 65536, 5_000),
            ] {
                let buf = vec![0x5au8; len];
                part.put(
                    &format!("core.rma.rput_{name}_ns"),
                    probe_ns(scaled(ops, smoke), |i| {
                        upcxx::rput(black_box(&buf), peer_region.add((i as usize % 8) * len))
                            .wait();
                    }),
                );
                part.put(
                    &format!("core.rma.rget_{name}_ns"),
                    probe_ns(scaled(ops, smoke), |i| {
                        black_box(upcxx::rget(peer_region.add((i as usize % 8) * len), len).wait());
                    }),
                );
            }
            let buf = vec![0x5au8; 1024];
            part.put(
                "core.rma.allocs_per_rput",
                exact_count(per_op(1_000, |n| {
                    (0..n).for_each(|_| upcxx::rput(&buf, peer_region).wait());
                })),
            );
            let gets = per_op(1_000, |n| {
                (0..n).for_each(|_| drop(black_box(upcxx::rget(peer_region, 1024).wait())));
            });
            part.put("core.rma.allocs_per_rget", exact_count(gets));
            part.put(
                "core.rma.bytes_alloc_per_rget",
                Sample::exact(gets.bytes, "B", gets.exact),
            );
            part.put(
                "core.rpc.null_rt_ns",
                probe_ns(scaled(20_000, smoke), |i| {
                    black_box(upcxx::rpc(1, bump, i).wait());
                }),
            );
            part.put(
                "core.rpc.allocs_per_rt",
                exact_count(per_op(1_000, |n| {
                    (0..n).for_each(|i| {
                        black_box(upcxx::rpc(1, bump, i).wait());
                    });
                })),
            );
            let dom = upcxx::AtomicDomain::all();
            part.put(
                "core.atomic.fetch_add_ns",
                probe_ns(scaled(50_000, smoke), |_| {
                    black_box(dom.fetch_add(peer_word, 1).wait());
                }),
            );
            part.put("core.metrics.to_json_us", {
                let ns = probe_ns(scaled(2_000, smoke), |_| {
                    black_box(upcxx::metrics::to_json());
                });
                Sample {
                    value: ns.value / 1e3,
                    unit: "us".into(),
                    ..ns
                }
            });

            // The DHT's three ops, blocking, allocations on the initiator.
            let keys = crate::gen::remote_keys(1, 0, 2, 256);
            let key = |i: u64| keys[i as usize % keys.len()];
            (0..256).for_each(|i| pgas_dht::insert(key(i), vec![1; 1024]).wait());
            part.put(
                "dht.insert_rpc_allocs_per_op",
                exact_count(per_op(512, |n| {
                    (0..n).for_each(|i| pgas_dht::insert_rpc(key(i), vec![1; 64]).wait());
                })),
            );
            part.put(
                "dht.insert_rma_allocs_per_op",
                exact_count(per_op(512, |n| {
                    (0..n).for_each(|i| pgas_dht::insert(key(i), vec![1; 1024]).wait());
                })),
            );
            part.put(
                "dht.find_allocs_per_op",
                exact_count(per_op(512, |n| {
                    (0..n).for_each(|i| drop(black_box(pgas_dht::find(key(i)).wait())));
                })),
            );
        }
        upcxx::barrier();

        // Target-side allocations of an RPC round trip (read on rank 1).
        let (allocs, agreed) = target_allocs_per_op(500, |n| {
            (0..n).for_each(|i| {
                black_box(upcxx::rpc(1, bump, i).wait());
            });
        });
        if me == 1 {
            out.lock().expect("probe mutex").put(
                "core.rpc.allocs_per_rt_target",
                Sample::exact(allocs, "count", agreed),
            );
        }

        // Collectives: both ranks, timed on rank 0.
        let bar = probe_ns(coll_ops, |_| upcxx::barrier());
        let red = probe_ns(coll_ops, |i| {
            black_box(upcxx::reduce_all(i, upcxx::ops::add_u64).wait());
        });
        if me == 0 {
            part.put("core.coll.barrier_ns", bar);
            part.put("core.coll.reduce_all_ns", red);
        }

        // Unaggregated rpc_ff flood with counted acks (the `ff` phase of the
        // DHT workloads with aggregation off).
        let mut sent = (0, 0);
        let keys = [0u64];
        assert!(crate::workloads::dht::ff_round(&keys, me, &mut sent));
        let mut ff = crate::workloads::SymmetricPhase::new(
            crate::workloads::dht::FF_ROUND,
            scaled(40, smoke),
        );
        ff.slice(|_| assert!(crate::workloads::dht::ff_round(&keys, me, &mut sent)));
        let ff = ff.series;
        let rate = crate::workloads::sum_over_ranks(ff.ops_per_s());
        if me == 0 {
            part.put(
                "core.rpc.ff_agg_off_per_s",
                Sample::new(rate, "msg/s", ff.batch_ns.len() as u64),
            );
        }

        // sparse: pack and accumulate of the largest child front this rank
        // holds, and the plan build.
        let mut plan_ms: Vec<f64> = Vec::new();
        let mut plan = None;
        for _ in 0..if smoke { 1 } else { 5 } {
            let t = Instant::now();
            plan = Some(eadd::build_plan(if smoke { 8 } else { 16 }, 2));
            plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let plan = plan.expect("built");
        sparse_solver::eadd::init_rank_storage(&plan);
        let id = (0..plan.tree.nodes.len())
            .filter(|&id| plan.tree.nodes[id].parent.is_some() && plan.map[id].contains(me))
            .max_by_key(|&id| plan.fronts[id].dim() - plan.fronts[id].ncols())
            .expect("a non-root front");
        let parent = plan.tree.nodes[id].parent.expect("non-root");
        let packs = scaled(200, smoke);
        let pack = probe_ns(packs / 10, |_| {
            black_box(sparse_solver::eadd::pack(&plan, id));
        });
        let mine = sparse_solver::eadd::pack(&plan, id)
            .remove(&me)
            .unwrap_or_default();
        let accumulate = probe_ns(packs / 10, |_| {
            sparse_solver::eadd::accumulate(&plan, parent, mine.iter().copied(), mine.len());
        });
        if me == 0 {
            let us = |s: Sample| Sample {
                value: s.value / 1e3,
                unit: "us".into(),
                ..s
            };
            part.put("sparse.pack_us", us(pack));
            part.put("sparse.accumulate_us", us(accumulate));
            let n = plan_ms.len() as u64;
            part.put(
                "sparse.plan_ms",
                Sample::new(stats::median(&mut plan_ms), "ms", n),
            );
            part.note("sparse.probe_front_entries", mine.len());
            out.lock().expect("probe mutex").merge(part);
        }
        upcxx::barrier();
    });
    r.merge(out.into_inner().expect("probe mutex"));
}

/// Run every probe and leave the report at `p.out`.
pub fn run(p: &RunParams) {
    let mut r = Report::default();
    proc_probes(&mut r, &p.out, p.smoke);
    r.put(
        "machine.clock_read_ns",
        Sample::new(crate::sys::clock_read_ns(), "ns", 1),
    );
    des_probe(&mut r, p.smoke);
    future_probes(&mut r, p.smoke);
    ser_probes(&mut r, p.smoke);
    alloc_probe(&mut r, p.smoke);
    local_dht_probe(&mut r, p.smoke);
    smp_conduit_probes(&mut r, p.smoke);
    smp_world_probes(&mut r, p.smoke);
    if let (Some(rput), Some(raw)) = (
        r.value("core.rma.rput_1KiB_ns"),
        r.value("gasnet.smp.put_1KiB_ns"),
    ) {
        r.put(
            "core.rma.rput_overhead_ns",
            Sample::new(rput - raw, "ns", BATCHES),
        );
    }
    // Probes verify nothing; they count as one attempted, correct step so a
    // crash in any of them still shows as a failed child.
    r.attempted = 1;
    r.write(&p.out);
}
