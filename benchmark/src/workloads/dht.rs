//! `smp_dht` and `proc_dht` — the paper's §IV-C distributed hash table, the
//! identical program on two conduits.
//!
//! Five phases share the run time equally, interleaved in 8 rounds. Both ranks
//! drive symmetric streams except in `rt`, where rank 0 drives and rank 1
//! serves from `barrier()`:
//!
//! | phase        | op                                         | window |
//! |--------------|--------------------------------------------|--------|
//! | `rt`         | `insert_rpc`, 64 B                         | 1      |
//! | `insert_rpc` | `insert_rpc`, 64 B                         | 32     |
//! | `insert_rma` | `insert` (rpc `make_lz` → `rput`), 1 KiB   | 32     |
//! | `find`       | `find` (rpc → `rget`), 1 KiB               | 32     |
//! | `ff`         | `rpc_ff` of `(u64, u64)`, aggregation 4 KiB| round  |
//!
//! "Window 32" is issue-32-then-wait-for-all. Keys are owned by the peer
//! only (see `gen::remote_keys`). Every find is compared with `f(seed, key)`;
//! RPC inserts are read back after their phase; `rpc_ff` delivery is proven by
//! counted acknowledgements carrying a checksum, because `flush_all()` +
//! `barrier()` is not `rpc_ff` quiescence.

use super::{sum_over_ranks, timed, Pass, RunParams, SymmetricPhase};
use crate::gen::{self, Values};
use crate::report::{Report, Sample};
use crate::spans::{Recorder, NO_PARENT, SAMPLE_EVERY};
use crate::stats::Series;
use pgas_des::rng::splitmix64;
use std::cell::Cell;
use upcxx::{AggConfig, ConduitKind};

/// Distinct keys per rank; with landing-zone recycling 2 048 x 1 KiB stays
/// well inside the 8 MiB segment.
const KEYS: usize = 2048;
const VAL_RPC: usize = 64;
const VAL_RMA: usize = 1024;
const WINDOW: usize = 32;
/// Ops per timed batch of the round-trip phase.
const RT_BATCH: usize = 64;
/// Windows per timed batch of the window-32 phases.
const WINDOWS_PER_BATCH: usize = 8;
const WIN_BATCH: usize = WINDOW * WINDOWS_PER_BATCH;
/// Messages per `ff` round (inject → last ack) and per acknowledgement.
pub(crate) const FF_ROUND: u64 = 4096;
const FF_ACK_EVERY: u64 = 512;
/// Rounds the five phases are interleaved in.
const ROUNDS: u64 = 8;

/// Timed batches of each phase in a full-length run, sized so that every
/// phase takes ~2.4 s at the seed commit (proc ops are ~3x slower, except the
/// aggregated `ff` flood, which is faster there).
struct Batches {
    rt: u64,
    insert_rpc: u64,
    insert_rma: u64,
    find: u64,
    ff: u64,
}

fn full_run(conduit: ConduitKind) -> Batches {
    match conduit {
        ConduitKind::Proc => Batches {
            rt: 4400,
            insert_rpc: 2000,
            insert_rma: 1900,
            find: 1850,
            ff: 1200,
        },
        _ => Batches {
            rt: 17_000,
            insert_rpc: 4000,
            insert_rma: 3200,
            find: 2800,
            ff: 600,
        },
    }
}

// -------------------------------------------------------------- rpc_ff

/// Rank-local `rpc_ff` bookkeeping. A thread-local is per rank on both
/// conduits (smp: rank = thread, proc: rank = process).
struct FfState {
    /// Messages and value checksum received, per origin rank.
    recv: [Cell<(u64, u64)>; 2],
    /// Latest `(count, checksum)` the peer acknowledged to this rank.
    acked: Cell<(u64, u64)>,
}

thread_local! {
    static FF: FfState = const {
        FfState {
            recv: [Cell::new((0, 0)), Cell::new((0, 0))],
            acked: Cell::new((0, 0)),
        }
    };
}

/// The counting handler: the key's top bit names the origin rank.
fn ff_count(args: (u64, u64)) {
    let (key, val) = args;
    let origin = (key >> 63) as usize;
    let (n, sum) = FF.with(|s| {
        let (n, sum) = s.recv[origin].get();
        let next = (n + 1, sum.wrapping_add(val ^ key));
        s.recv[origin].set(next);
        next
    });
    if n % FF_ACK_EVERY == 0 {
        upcxx::rpc_ff(origin, ff_ack, (n, sum));
    }
}

fn ff_ack(args: (u64, u64)) {
    FF.with(|s| s.acked.set(args));
}

/// One `ff` round: inject `FF_ROUND` messages, flush, progress until the peer
/// has acknowledged all of them. Returns whether the acknowledged checksum
/// matches what was sent.
pub(crate) fn ff_round(keys: &[u64], me: usize, sent: &mut (u64, u64)) -> bool {
    let peer = 1 - me;
    for _ in 0..FF_ROUND {
        let key = (keys[sent.0 as usize % keys.len()] & !(1 << 63)) | (me as u64) << 63;
        let val = splitmix64(sent.0 ^ key);
        upcxx::rpc_ff(peer, ff_count, (key, val));
        *sent = (sent.0 + 1, sent.1.wrapping_add(val ^ key));
    }
    upcxx::flush_all();
    while FF.with(|s| s.acked.get().0) < sent.0 {
        upcxx::progress();
    }
    FF.with(|s| s.acked.get()) == *sent
}

// ------------------------------------------------------- request/reply

struct Inputs {
    keys: Vec<u64>,
    values: Values,
}

impl Inputs {
    #[inline]
    fn key(&self, op: u64) -> u64 {
        self.keys[op as usize % KEYS]
    }
}

/// One batch of blocking `insert_rpc` round trips (window 1).
fn rt_batch<const TRACE: bool>(inp: &Inputs, k: u64, rec: &mut Recorder) {
    for j in 0..RT_BATCH as u64 {
        let op = k * RT_BATCH as u64 + j;
        let key = inp.key(op);
        let val = inp.values.of(key, VAL_RPC).to_vec();
        if TRACE && j.is_multiple_of(SAMPLE_EVERY) {
            let span = rec.begin("op.rpc_rt", op, NO_PARENT);
            let fut = rec.scope("rpc.issue", op, span, || pgas_dht::insert_rpc(key, val));
            rec.scope("ctx.wait", op, span, || fut.wait());
            rec.end(span);
        } else {
            pgas_dht::insert_rpc(key, val).wait();
        }
    }
}

/// One batch of a window-32 phase: 8 windows of issue-32-then-wait. `issue`
/// starts op number `op` and returns its future; `check` inspects the results
/// of a window and returns how many were wrong.
fn window_batch<const TRACE: bool, T: Clone + 'static>(
    k: u64,
    span_name: &'static str,
    rec: &mut Recorder,
    mut issue: impl FnMut(u64) -> upcxx::Future<T>,
    mut check: impl FnMut(u64, Vec<T>) -> u64,
) -> u64 {
    let mut wrong = 0;
    for w in 0..WINDOWS_PER_BATCH as u64 {
        let first = k * WIN_BATCH as u64 + w * WINDOW as u64;
        let futs: Vec<_> = (first..first + WINDOW as u64)
            .map(|op| {
                if TRACE && op.is_multiple_of(SAMPLE_EVERY) {
                    rec.scope(span_name, op, NO_PARENT, || issue(op))
                } else {
                    issue(op)
                }
            })
            .collect();
        wrong += check(first, upcxx::when_all_vec(futs).wait());
    }
    wrong
}

/// Read back every key the RPC-insert phases touched (untimed).
fn verify_rpc_inserts(inp: &Inputs, touched: u64) -> u64 {
    let n = touched.min(KEYS as u64);
    let mut wrong = 0;
    for first in (0..n).step_by(WINDOW) {
        let ops = first..(first + WINDOW as u64).min(n);
        let futs: Vec<_> = ops
            .clone()
            .map(|op| pgas_dht::find_rpc(inp.key(op)))
            .collect();
        for (op, got) in ops.zip(upcxx::when_all_vec(futs).wait()) {
            wrong += u64::from(got.as_deref() != Some(inp.values.of(inp.key(op), VAL_RPC)));
        }
    }
    wrong
}

// ------------------------------------------------------------- workload

/// Counter snapshot of the calling rank for the aggregation metrics.
fn agg_counters() -> [f64; 4] {
    let json = upcxx::metrics::to_json();
    let get = |k| crate::json::num_by_key(&json, k).unwrap_or(0.0);
    let reasons = [
        "Threshold",
        "Ordering",
        "Progress",
        "Barrier",
        "Explicit",
        "ItemTail",
        "Reconfig",
    ];
    [
        get("agg_msgs"),
        get("agg_batches"),
        get("Threshold"),
        reasons.iter().map(|r| get(r)).sum(),
    ]
}

fn body<const TRACE: bool>(p: &RunParams, pass: &Pass, conduit: ConduitKind) {
    let me = upcxx::rank_me();
    pgas_dht::enable_recycling();
    let inp = Inputs {
        keys: gen::remote_keys(p.seed, me, 2, KEYS),
        values: Values::new(p.seed, VAL_RMA),
    };
    let mut rec = Recorder::new();
    let insert_rpc = |op| {
        let key = inp.key(op);
        pgas_dht::insert_rpc(key, inp.values.of(key, VAL_RPC).to_vec())
    };
    let insert_rma = |op| {
        let key = inp.key(op);
        pgas_dht::insert(key, inp.values.of(key, VAL_RMA).to_vec())
    };
    let find = |op| pgas_dht::find(inp.key(op));
    let check_find = |first: u64, got: Vec<Option<Vec<u8>>>| {
        (first..)
            .zip(got)
            .filter(|(op, got)| got.as_deref() != Some(inp.values.of(inp.key(*op), VAL_RMA)))
            .count() as u64
    };
    let no_check = |_: u64, _: Vec<()>| 0;

    let agg = |enabled| {
        upcxx::set_agg_config(AggConfig {
            enabled,
            max_bytes: 4096,
        })
    };
    let mut sent = (0, 0);
    let mut ff_batch = |wrong: &mut u64| {
        if !ff_round(&inp.keys, me, &mut sent) {
            *wrong += FF_ROUND;
        }
    };

    // Warm-up: connections, buffer pools, one aggregated flood, and one
    // landing zone per key so the find phase has data whatever the phase
    // order.
    window_batch::<false, _>(0, "", &mut rec, insert_rpc, no_check);
    for k in 0..(KEYS / WIN_BATCH) as u64 {
        window_batch::<false, _>(k, "", &mut rec, insert_rma, no_check);
    }
    let mut wrong = window_batch::<false, _>(0, "", &mut rec, find, check_find);
    agg(true);
    ff_batch(&mut wrong);
    agg(false);
    upcxx::barrier();
    let setup = pass.ready(p);
    let cpu0 = (crate::sys::cpu_ticks(), crate::sys::ctx_switches());
    // The five phases are interleaved in rounds (see `SymmetricPhase`), each
    // with a fixed number of batches per round.
    let rounds = if p.smoke { 1 } else { ROUNDS };
    let full = full_run(conduit);
    let per_round = |at_full| pass.count(at_full, pass.min_batches).div_ceil(rounds);
    let rt_per_round = per_round(full.rt);
    let mut rt = Series::new(RT_BATCH as u64);
    let mut rpc = SymmetricPhase::new(WIN_BATCH as u64, per_round(full.insert_rpc));
    let mut rma = SymmetricPhase::new(WIN_BATCH as u64, per_round(full.insert_rma));
    let mut finds = SymmetricPhase::new(WIN_BATCH as u64, per_round(full.find));
    let mut ff = SymmetricPhase::new(FF_ROUND, per_round(full.ff));
    let mut agg_delta = [0.0; 4];

    for _ in 0..rounds {
        // rt: rank 0 drives, rank 1 serves from the barrier.
        if me == 0 {
            let first = rt.batch_ns.len() as u64;
            for k in first..first + rt_per_round {
                timed(&mut rt, || rt_batch::<TRACE>(&inp, k, &mut rec));
            }
        }
        upcxx::barrier();
        rpc.slice(|k| {
            window_batch::<TRACE, _>(k, "dht.insert_rpc", &mut rec, insert_rpc, no_check);
        });
        rma.slice(|k| {
            window_batch::<TRACE, _>(k, "dht.insert", &mut rec, insert_rma, no_check);
        });
        finds.slice(|k| {
            wrong += window_batch::<TRACE, _>(k, "dht.find", &mut rec, find, check_find);
        });
        agg(true);
        let before = agg_counters();
        ff.slice(|_| ff_batch(&mut wrong));
        for (d, (b, a)) in agg_delta
            .iter_mut()
            .zip(agg_counters().into_iter().zip(before))
        {
            *d += b - a;
        }
        agg(false);
    }
    let (rpc, rma, finds, ff) = (rpc.series, rma.series, finds.series, ff.series);
    wrong += verify_rpc_inserts(&inp, rt.ops().max(rpc.ops()));
    upcxx::barrier();

    // Σ over ranks (collective), then rank 0 reports.
    let my_ops = rt.ops() + rpc.ops() + rma.ops() + finds.ops() + ff.ops();
    let attempted = upcxx::reduce_all(my_ops, upcxx::ops::add_u64).wait();
    let failed = upcxx::reduce_all(wrong, upcxx::ops::add_u64).wait();
    let rates = [&rpc, &rma, &finds, &ff].map(|s| sum_over_ranks(s.ops_per_s()));
    let rss = super::peak_rss_over_ranks();
    if me == 0 {
        let mut r = Report {
            attempted,
            failed,
            ..Report::default()
        };
        let lat = Sample::latency_ns(&rt);
        r.put_tail("rpc_rt_ns", &lat);
        r.put("rpc_rt_p50_ns", lat);
        let named = [
            ("insert_rpc", &rpc, "op/s"),
            ("insert_rma", &rma, "op/s"),
            ("find", &finds, "op/s"),
            ("ff", &ff, "msg/s"),
        ];
        for ((name, series, unit), rate) in named.into_iter().zip(rates) {
            let lat = Sample::latency_ns(series);
            r.put_tail(&format!("{name}_ns"), &lat);
            r.put(&format!("{name}_per_s"), Sample::new(rate, unit, lat.n));
        }
        r.put_primary(&rpc);
        r.put("setup_s", setup);
        r.put("peak_rss_mib", Sample::new(rss, "MiB", 2));

        r.put(
            "core.agg.msgs_per_batch",
            Sample::new(agg_delta[0] / agg_delta[1], "count", 1),
        );
        r.put(
            "core.agg.threshold_flush_frac",
            Sample::new(agg_delta[2] / agg_delta[3], "ratio", 1),
        );
        if let Some(calls) = super::counter("progress_calls") {
            r.put(
                "core.ctx.progress_calls_per_op",
                Sample::new(calls / my_ops as f64, "count", 1),
            );
        }
        if conduit == ConduitKind::Proc {
            let ((u0, s0), sw0) = cpu0;
            let ((u1, s1), sw1) = (crate::sys::cpu_ticks(), crate::sys::ctx_switches());
            let busy = ((u1 - u0) + (s1 - s0)) as f64;
            r.put(
                "gasnet.proc.sys_cpu_frac",
                Sample::new((s1 - s0) as f64 / busy, "ratio", 1),
            );
            r.put(
                "gasnet.proc.ctxsw_per_op",
                Sample::new((sw1 - sw0) as f64 / my_ops as f64, "count", 1),
            );
        }
        if TRACE {
            let summary = rec.summary();
            for (span, metric) in [
                ("rpc.issue", "core.rpc.issue_ns"),
                ("ctx.wait", "core.rpc.wait_ns"),
                ("dht.insert", "dht.insert_issue_ns"),
                ("dht.find", "dht.find_issue_ns"),
            ] {
                if let Some(s) = summary.get(span) {
                    r.put(metric, Sample::new(s.self_p50_ns, "ns", s.count));
                }
            }
            crate::driver::write_trace(p, &rec);
        }
        r.note("keys_per_rank", KEYS);
        r.note("window", "issue 32, then wait for all 32");
        r.write(&pass.part);
    }
    upcxx::barrier();
}

/// `smp_dht` / `proc_dht`: the same program, `conduit` apart.
pub fn run(p: &RunParams, pass: &Pass, conduit: ConduitKind) {
    pass.world(conduit, 8 << 20, || {
        if pass.traced {
            body::<true>(p, pass, conduit);
        } else {
            body::<false>(p, pass, conduit);
        }
    });
}
