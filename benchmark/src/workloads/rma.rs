//! `smp_rma_small` and `smp_rma_bulk` — the paper's Fig. 3 on the smp conduit.
//!
//! Rank 0 drives; rank 1 parks in `barrier()` (the eager RMA path needs no
//! target-side progress). Every put is verified by the get that follows it
//! reading the same bytes back, every get by comparing with the seeded source.

use super::{timed, Pass, RunParams};
use crate::gen;
use crate::report::{Report, Sample};
use crate::spans::{Recorder, NO_PARENT, SAMPLE_EVERY};
use crate::stats::Series;
use pgas_des::rng::Rng;
use std::time::Instant;
use upcxx::{ConduitKind, GlobalPtr};

const MIB: f64 = (1u64 << 20) as f64;

// ---------------------------------------------------------------- small

/// Ops per timed batch.
const BATCH: usize = 1024;
/// Remote slots, one per op of a batch (so no two ops of a batch overlap).
const SLOT_BYTES: usize = 1024;
/// Sizes alternate inside a batch; the two floors differ by a few percent.
const SIZES: [usize; 2] = [8, 1024];
/// Untimed put+get batch pairs before the first timed op.
const WARMUP_BATCHES: u64 = 64;
/// Timed put+get batch pairs of a full-length run (~0.37 ms each at the seed).
const SMALL_PAIRS: u64 = 30_000;
/// Distinct slot orders cycled through.
const ORDERS: usize = 16;
/// Source bytes are slices of this seeded pool.
const POOL_BYTES: usize = 64 << 10;

struct SmallInputs {
    pool: Vec<u8>,
    /// Slot visited by op `i` under order `o`.
    orders: Vec<Vec<u32>>,
    /// Base source offset of op `i`; batch `k` shifts it so the bytes a get
    /// expects differ from what the previous round left in the slot.
    src_off: Vec<u32>,
}

impl SmallInputs {
    fn new(seed: u64) -> SmallInputs {
        let mut rng = Rng::new(seed ^ 0x736d_616c);
        SmallInputs {
            pool: gen::bytes(seed, 1, POOL_BYTES),
            orders: (0..ORDERS)
                .map(|o| gen::permutation(seed, o as u64, BATCH))
                .collect(),
            src_off: (0..BATCH)
                .map(|_| rng.gen_range(POOL_BYTES - SLOT_BYTES) as u32)
                .collect(),
        }
    }

    /// `(slot, source bytes)` of op `i` in batch `k`.
    #[inline]
    fn op(&self, k: u64, i: usize) -> (usize, &[u8]) {
        let slot = self.orders[k as usize % ORDERS][i] as usize;
        let off = (self.src_off[i] as usize + k as usize * 8) % (POOL_BYTES - SLOT_BYTES);
        (slot, &self.pool[off..off + SIZES[i & 1]])
    }
}

/// One put batch: blocking `rput(..).wait()`, window 1.
fn put_batch<const TRACE: bool>(
    inp: &SmallInputs,
    region: GlobalPtr<u8>,
    k: u64,
    rec: &mut Recorder,
) {
    for i in 0..BATCH {
        let (slot, src) = inp.op(k, i);
        let dst = region.add(slot * SLOT_BYTES);
        if TRACE && (i as u64).is_multiple_of(SAMPLE_EVERY) {
            let id = k * BATCH as u64 + i as u64;
            let op = rec.begin("op.put", id, NO_PARENT);
            let fut = rec.scope("rma.inject", id, op, || upcxx::rput(src, dst));
            rec.scope("ctx.wait", id, op, || fut.wait());
            rec.end(op);
        } else {
            upcxx::rput(src, dst).wait();
        }
    }
}

/// One get batch reading back what `put_batch(k)` wrote; returns mismatches.
fn get_batch<const TRACE: bool>(
    inp: &SmallInputs,
    region: GlobalPtr<u8>,
    k: u64,
    rec: &mut Recorder,
) -> u64 {
    let mut wrong = 0;
    for i in 0..BATCH {
        let (slot, want) = inp.op(k, i);
        let src = region.add(slot * SLOT_BYTES);
        let got = if TRACE && (i as u64).is_multiple_of(SAMPLE_EVERY) {
            let id = k * BATCH as u64 + i as u64;
            let op = rec.begin("op.get", id, NO_PARENT);
            let fut = rec.scope("rma.inject", id, op, || upcxx::rget(src, want.len()));
            let got = rec.scope("ctx.wait", id, op, || fut.wait());
            rec.end(op);
            got
        } else {
            upcxx::rget(src, want.len()).wait()
        };
        wrong += u64::from(got != want);
    }
    wrong
}

fn small_loop<const TRACE: bool>(
    inp: &SmallInputs,
    region: GlobalPtr<u8>,
    pass: &Pass,
    rec: &mut Recorder,
) -> (Series, Series, u64) {
    // Batches alternate put / get, each timed on its own.
    let (mut puts, mut gets) = (Series::new(BATCH as u64), Series::new(BATCH as u64));
    let mut wrong = 0;
    for k in 0..pass.count(SMALL_PAIRS, pass.min_batches) {
        timed(&mut puts, || put_batch::<TRACE>(inp, region, k, rec));
        wrong += timed(&mut gets, || get_batch::<TRACE>(inp, region, k, rec));
    }
    (puts, gets, wrong)
}

/// `smp_rma_small`.
pub fn small(p: &RunParams, pass: &Pass) {
    let notes = [
        ("region_bytes", (BATCH * SLOT_BYTES).to_string()),
        ("sizes", "8 B and 1 KiB alternating".to_string()),
    ];
    one_sided(
        p,
        pass,
        (8 << 20, BATCH * SLOT_BYTES),
        (None, &notes),
        |region, rec| {
            let inp = SmallInputs::new(p.seed);
            // Warm-up long enough (~25 ms) that set-up time is steady work,
            // not thread-spawn jitter.
            for k in 0..WARMUP_BATCHES {
                put_batch::<false>(&inp, region, k, rec);
                get_batch::<false>(&inp, region, k, rec);
            }
            inp
        },
        |inp, region, rec| {
            if pass.traced {
                small_loop::<true>(inp, region, pass, rec)
            } else {
                small_loop::<false>(inp, region, pass, rec)
            }
        },
    );
}

// ----------------------------------------------------------------- bulk

const BLOCK: usize = 256 << 10;
const WINDOW: usize = 8;
/// Timed put+get pass pairs of a full-length run (~22 ms each at the seed,
/// the untimed comparison of every block included).
const BULK_PAIRS: u64 = 520;

/// Bytes of the remote region: 16x the 2 MiB per-core L2. The 260 MiB L3 is
/// the host's and cannot be exceeded within budget, so the result is an
/// "L3-or-DRAM copy rate".
fn bulk_region(smoke: bool) -> usize {
    if smoke {
        4 << 20
    } else {
        32 << 20
    }
}

/// One put pass over the region in windows of 8 blocks; pass `k` sends source
/// block `b + k`, so each pass changes every remote byte.
fn put_pass<const TRACE: bool>(src: &[u8], region: GlobalPtr<u8>, k: u64, rec: &mut Recorder) {
    let blocks = src.len() / BLOCK;
    let mut futs = Vec::with_capacity(WINDOW);
    for w in (0..blocks).step_by(WINDOW) {
        let win = if TRACE {
            rec.begin("op.put_window", k * blocks as u64 + w as u64, NO_PARENT)
        } else {
            NO_PARENT
        };
        for b in w..w + WINDOW {
            let sb = (b + k as usize) % blocks;
            let from = &src[sb * BLOCK..(sb + 1) * BLOCK];
            let dst = region.add(b * BLOCK);
            futs.push(if TRACE {
                rec.scope("rma.inject", (k << 32) | b as u64, win, || {
                    upcxx::rput(from, dst)
                })
            } else {
                upcxx::rput(from, dst)
            });
        }
        for f in futs.drain(..) {
            if TRACE {
                rec.scope("ctx.wait", k, win, || f.wait());
            } else {
                f.wait();
            }
        }
        if TRACE {
            rec.end(win);
        }
    }
}

/// One get pass; returns `(timed ns, mismatching blocks)`. The comparison of
/// each window with the source runs with the clock stopped.
fn get_pass<const TRACE: bool>(
    src: &[u8],
    region: GlobalPtr<u8>,
    k: u64,
    rec: &mut Recorder,
) -> (u64, u64) {
    let blocks = src.len() / BLOCK;
    let (mut ns, mut wrong) = (0, 0);
    let mut futs = Vec::with_capacity(WINDOW);
    let mut got = Vec::with_capacity(WINDOW);
    for w in (0..blocks).step_by(WINDOW) {
        let t = Instant::now();
        let win = if TRACE {
            rec.begin("op.get_window", k * blocks as u64 + w as u64, NO_PARENT)
        } else {
            NO_PARENT
        };
        for b in w..w + WINDOW {
            let from = region.add(b * BLOCK);
            futs.push(if TRACE {
                rec.scope("rma.inject", (k << 32) | b as u64, win, || {
                    upcxx::rget(from, BLOCK)
                })
            } else {
                upcxx::rget(from, BLOCK)
            });
        }
        for f in futs.drain(..) {
            got.push(if TRACE {
                rec.scope("ctx.wait", k, win, || f.wait())
            } else {
                f.wait()
            });
        }
        if TRACE {
            rec.end(win);
        }
        ns += t.elapsed().as_nanos() as u64;
        for (b, block) in (w..).zip(got.drain(..)) {
            let sb = (b + k as usize) % blocks;
            wrong += u64::from(block[..] != src[sb * BLOCK..(sb + 1) * BLOCK]);
        }
    }
    (ns, wrong)
}

fn bulk_loop<const TRACE: bool>(
    src: &[u8],
    region: GlobalPtr<u8>,
    pass: &Pass,
    rec: &mut Recorder,
) -> (Series, Series, u64) {
    let blocks = (src.len() / BLOCK) as u64;
    let (mut puts, mut gets) = (Series::new(blocks), Series::new(blocks));
    let mut wrong = 0;
    for k in 0..pass.count(BULK_PAIRS, pass.min_batches) {
        timed(&mut puts, || put_pass::<TRACE>(src, region, k, rec));
        let (ns, bad) = get_pass::<TRACE>(src, region, k, rec);
        gets.batch_ns.push(ns);
        wrong += bad;
    }
    (puts, gets, wrong)
}

/// `smp_rma_bulk`.
pub fn bulk(p: &RunParams, pass: &Pass) {
    let region_bytes = bulk_region(p.smoke);
    let notes = [
        ("region_bytes", region_bytes.to_string()),
        (
            "copy_rate_label",
            "L3-or-DRAM copy rate: region is 16x the 2 MiB L2, below the host's 260 MiB L3"
                .to_string(),
        ),
    ];
    one_sided(
        p,
        pass,
        (3 * region_bytes, region_bytes),
        (Some(BLOCK), &notes),
        |region, rec| {
            let src = gen::bytes(p.seed, 2, region_bytes);
            put_pass::<false>(&src, region, 0, rec);
            get_pass::<false>(&src, region, 0, rec);
            src
        },
        |src, region, rec| {
            if pass.traced {
                bulk_loop::<true>(src, region, pass, rec)
            } else {
                bulk_loop::<false>(src, region, pass, rec)
            }
        },
    );
}

// --------------------------------------------------------------- shared

/// What both RMA workloads share (one world of a pass): launch a world of
/// `(segment, region)` bytes, in which rank 0 builds its inputs and warms up
/// (`setup`), measures (`measure`: put series, get series, wrong results) and
/// reports, while rank 1 parks in `barrier()`.
fn one_sided<I>(
    p: &RunParams,
    pass: &Pass,
    (seg_bytes, region_bytes): (usize, usize),
    (block_bytes, notes): (Option<usize>, &[(&str, String)]),
    setup: impl Fn(GlobalPtr<u8>, &mut Recorder) -> I + Sync,
    measure: impl Fn(&I, GlobalPtr<u8>, &mut Recorder) -> (Series, Series, u64) + Sync,
) {
    pass.world(ConduitKind::Smp, seg_bytes, || {
        let me = upcxx::rank_me();
        let region = upcxx::allgather(upcxx::allocate::<u8>(region_bytes))[1];
        let mut rec = Recorder::new();
        let inputs = (me == 0).then(|| setup(region, &mut rec));
        upcxx::barrier();
        let setup_s = pass.ready(p);
        if let Some(inputs) = &inputs {
            let (puts, gets, wrong) = measure(inputs, region, &mut rec);
            let mut r = Report {
                attempted: puts.ops() + gets.ops(),
                failed: wrong,
                ..Report::default()
            };
            rma_metrics(&mut r, &puts, &gets, block_bytes);
            for (key, val) in notes {
                r.note(key, val);
            }
            r.put("setup_s", setup_s);
            finish(&mut r, pass, &rec, p);
            r.write(&pass.part);
        }
        upcxx::barrier();
    });
}

/// The metrics of a put and a get series: bandwidth where every op moves one
/// block of `block_bytes` (bulk; the put pass's is a per-layer metric, see
/// `spec::WORKLOADS`), latency otherwise (small). The put series is the
/// primary phase.
fn rma_metrics(r: &mut Report, puts: &Series, gets: &Series, block_bytes: Option<usize>) {
    for (op, series) in [("put", puts), ("get", gets)] {
        let lat = Sample::latency_ns(series);
        r.put_tail(&format!("{op}_ns"), &lat);
        match block_bytes {
            Some(bytes) => {
                let mib_s = bytes as f64 * 1e9 / lat.value / MIB;
                let name = if op == "put" {
                    "core.rma.bulk_put_mib_s"
                } else {
                    "get_mib_s"
                };
                r.put(name, Sample::new(mib_s, "MiB/s", lat.n));
            }
            None => r.put(&format!("{op}_p50_ns"), lat),
        }
    }
    r.put_primary(puts);
}

/// What every RMA report ends with: set-up, memory, counter ratios, spans.
fn finish(r: &mut Report, pass: &Pass, rec: &Recorder, p: &RunParams) {
    r.put(
        "peak_rss_mib",
        Sample::new(crate::sys::peak_rss_mib(), "MiB", 1),
    );
    let ops = r.attempted as f64;
    if let (Some(eager), Some(all)) = (super::counter("rma_eager"), super::counter("rma_ops")) {
        r.put("core.rma.eager_frac", Sample::new(eager / all, "ratio", 1));
    }
    if let Some(calls) = super::counter("progress_calls") {
        // Informational: spin counts depend on timing.
        r.put(
            "core.ctx.progress_calls_per_op",
            Sample::new(calls / ops, "count", 1),
        );
    }
    if pass.traced {
        let summary = rec.summary();
        for (span, metric) in [
            ("rma.inject", "core.rma.inject_ns"),
            ("ctx.wait", "core.rma.wait_ns"),
        ] {
            if let Some(s) = summary.get(span) {
                r.put(metric, Sample::new(s.self_p50_ns, "ns", s.count));
            }
        }
        crate::driver::write_trace(p, rec);
    }
}
