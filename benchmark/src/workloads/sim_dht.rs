//! `sim_dht` — the paper's Fig. 4 blocking insert loop at 128 simulated ranks
//! (4 nodes) on the `cori_haswell` model. A world process builds one simulated
//! world, runs the loop twice untimed (first touch of every landing zone, then
//! the first recycled one) and then a fixed number of timed units. One unit is
//! every rank inserting its 16 keys again, each insert blocking on the last:
//! the identical simulation repeated in-process, so its virtual times and
//! every count must repeat exactly.
//!
//! The world is small and warm on purpose. A simulated rank costs 70-85 KiB,
//! and per insert a world costs 2.4 us at 64 ranks, 2.5 at 128, 2.9 at 256
//! and 5.8 at 2 048 ranks built cold: what misses the 2 MiB L2 here goes to an
//! L3 shared with the rest of the host, whose latency moves by half within
//! minutes (77-120 ns per dependent load over 32 MiB). A big or cold world's
//! unit time follows the host, not the program (see the README).

use super::{Pass, RunParams};
use crate::gen::Values;
use crate::report::{Report, Sample};
use crate::spans::{Recorder, NO_PARENT, SAMPLE_EVERY};
use crate::stats::Series;
use netsim::MachineConfig;
use pgas_des::rng::splitmix64;
use pgas_des::Time;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;
use upcxx::SimRuntime;

const VAL: usize = 1024;
/// Per-rank segment: an owner's landing zones (16 expected, recycled from the
/// second pass on) fit four times over.
const SEG: usize = 64 << 10;
/// Untimed passes before the first unit: the first allocates every landing
/// zone, the second allocates the one more each owner needs before recycling
/// has a zone to hand out.
const WARM_UP: u64 = 2;

struct Shape {
    ranks: usize,
    /// Blocking inserts per rank and unit.
    iters: usize,
}

/// Units of a full-length run (~5.4 ms each at the seed), over all worlds.
const UNITS: u64 = 1820;

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            ranks: 32,
            iters: 4,
        }
    } else {
        Shape {
            ranks: 128,
            iters: 16,
        }
    }
}

fn key(seed: u64, rank: usize, i: usize) -> u64 {
    splitmix64(seed ^ ((rank as u64) << 24 | i as u64))
}

struct Shared {
    seed: u64,
    ranks: usize,
    iters: usize,
    values: Values,
    /// Pass number, for span ids.
    pass: Cell<u64>,
    /// Virtual time at which the current pass began.
    start: Cell<Time>,
    /// Σ over ranks of the virtual time their loop of the current pass took.
    loop_sum: Cell<Time>,
    done_at: Cell<Time>,
    completed: Cell<u64>,
    wrong_finds: Cell<u64>,
    rec: RefCell<Recorder>,
}

/// The paper's benchmark loop on one rank: insert, block (`then`), repeat.
fn step<const TRACE: bool>(sh: Rc<Shared>, rank: usize, i: usize) {
    if i == sh.iters {
        let now = upcxx::sim_now().expect("sim conduit");
        sh.done_at.set(sh.done_at.get().max(now));
        sh.loop_sum.set(sh.loop_sum.get() + (now - sh.start.get()));
        return;
    }
    let key = key(sh.seed, rank, i);
    let val = sh.values.of(key, VAL).to_vec();
    let op = ((sh.pass.get() as usize * sh.ranks + rank) * sh.iters + i) as u64;
    let fut = if TRACE && op.is_multiple_of(SAMPLE_EVERY) {
        sh.rec
            .borrow_mut()
            .scope("dht.insert", op, NO_PARENT, || pgas_dht::insert(key, val))
    } else {
        pgas_dht::insert(key, val)
    };
    let sh2 = sh.clone();
    fut.then(move |_| {
        sh2.completed.set(sh2.completed.get() + 1);
        step::<TRACE>(sh2, rank, i + 1);
    });
}

/// What the world counted so far: `(events, messages, Σ rank busy time)`.
fn counts(rt: &SimRuntime, ranks: usize) -> (u64, u64, Time) {
    let w = rt.world();
    let busy = (0..ranks).fold(Time::ZERO, |sum, r| sum + w.rank_busy(r));
    (w.events_executed(), w.msg_count(), busy)
}

/// One pass: every rank runs the loop from the current virtual time to
/// quiescence. Returns `(wall ns, virtual length, Σ over ranks of their
/// loop's virtual length)`.
fn run_pass<const TRACE: bool>(rt: &SimRuntime, sh: &Rc<Shared>) -> (u64, Time, Time) {
    let start = rt.world().now();
    sh.start.set(start);
    sh.loop_sum.set(Time::ZERO);
    let t = Instant::now();
    let span = TRACE.then(|| {
        sh.rec
            .borrow_mut()
            .begin("sim.run", sh.pass.get(), NO_PARENT)
    });
    for r in 0..sh.ranks {
        let sh = sh.clone();
        rt.spawn_at(r, start, move || step::<TRACE>(sh, r, 0));
    }
    rt.run();
    span.into_iter().for_each(|id| sh.rec.borrow_mut().end(id));
    let wall = t.elapsed().as_nanos() as u64;
    sh.pass.set(sh.pass.get() + 1);
    (wall, sh.done_at.get() - start, sh.loop_sum.get())
}

fn world<const TRACE: bool>(p: &RunParams, pass: &Pass) {
    pass.stamp_launch();
    let shape = shape(p.smoke);
    let units = pass.count(UNITS, if p.smoke { 3 } else { 200 });
    let sh = Rc::new(Shared {
        seed: p.seed,
        ranks: shape.ranks,
        iters: shape.iters,
        values: Values::new(p.seed, VAL),
        pass: Cell::new(0),
        start: Cell::new(Time::ZERO),
        loop_sum: Cell::new(Time::ZERO),
        done_at: Cell::new(Time::ZERO),
        completed: Cell::new(0),
        wrong_finds: Cell::new(0),
        rec: RefCell::new(Recorder::new()),
    });
    let t = Instant::now();
    let rt = SimRuntime::new(MachineConfig::cori_haswell(), shape.ranks, SEG);
    for r in 0..shape.ranks {
        rt.spawn(r, pgas_dht::enable_recycling);
    }
    rt.run();
    let built_ms = t.elapsed().as_secs_f64() * 1e3;
    for _ in 0..WARM_UP {
        run_pass::<TRACE>(&rt, &sh);
    }
    let setup = pass.ready(p);

    // The identical simulation, repeated: virtual length and counts of every
    // unit must equal the first's.
    let mut runs = Series::new((shape.ranks * shape.iters) as u64);
    let mut exact = true;
    let mut first = None;
    for _ in 0..units {
        let before = counts(&rt, shape.ranks);
        let (wall, virt, loops) = run_pass::<TRACE>(&rt, &sh);
        let after = counts(&rt, shape.ranks);
        runs.batch_ns.push(wall);
        let this = (
            virt,
            loops,
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
        );
        exact &= *first.get_or_insert(this) == this;
    }
    let (virt, loops, events, msgs, busy) = first.expect("at least one unit");

    // Untimed check: every rank reads its last key back with `find`.
    let now = rt.world().now();
    for r in 0..shape.ranks {
        let sh = sh.clone();
        let k = key(p.seed, r, shape.iters - 1);
        rt.spawn_at(r, now, move || {
            pgas_dht::find(k).then(move |got| {
                if got.as_deref() != Some(sh.values.of(k, VAL)) {
                    sh.wrong_finds.set(sh.wrong_finds.get() + 1);
                }
            });
        });
    }
    rt.run();

    let ops = runs.ops_per_batch as f64;
    let attempted = runs.ops();
    let issued = (WARM_UP + units) * runs.ops_per_batch;
    let bad = issued - sh.completed.get() + sh.wrong_finds.get();
    let mut r = Report {
        attempted,
        failed: if exact { bad } else { attempted },
        ..Report::default()
    };
    let unit = Sample::timing(
        runs.batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        "ms",
    );
    r.put_tail("unit_ms", &unit);
    r.put("unit_p50_ms", unit);
    let virt_ns = virt.as_ns_f64();
    // A rank's loop is `iters` blocking inserts; the mean over ranks, not the
    // last rank to finish, whose time follows the most loaded owner the
    // seed's keys happen to make.
    r.put(
        "virt_ns_per_op",
        Sample::exact(loops.as_ns_f64() / ops, "vns", exact),
    );
    r.put_primary(&runs);
    r.put("sim.setup_ms", Sample::new(built_ms, "ms", 1));
    r.put("setup_s", setup);
    r.put(
        "peak_rss_mib",
        Sample::new(crate::sys::peak_rss_mib(), "MiB", 1),
    );
    r.put(
        "des.events_per_op",
        Sample::exact(events as f64 / ops, "count", exact),
    );
    r.put(
        "gasnet.sim.msgs_per_op",
        Sample::exact(msgs as f64 / ops, "count", exact),
    );
    r.put(
        "gasnet.sim.rank_busy_frac",
        Sample::exact(
            busy.as_ns_f64() / (virt_ns * shape.ranks as f64),
            "ratio",
            exact,
        ),
    );
    r.put(
        "gasnet.sim.wall_ns_per_event",
        Sample::new(runs.median_ns_per_op() * ops / events as f64, "ns", units),
    );
    if TRACE {
        let rec = sh.rec.borrow();
        if let Some(s) = rec.summary().get("dht.insert") {
            r.put("dht.insert_issue_ns", Sample::new(s.p50_ns, "ns", s.count));
        }
        crate::driver::write_trace(p, &rec);
    }
    r.note("ranks", shape.ranks);
    r.note("inserts_per_rank_and_unit", shape.iters);
    r.note("virt_ns_per_unit", virt_ns);
    r.write(&pass.part);
}

/// One world of `sim_dht` in this process.
pub fn run(p: &RunParams, pass: &Pass) {
    if pass.traced {
        world::<true>(p, pass)
    } else {
        world::<false>(p, pass)
    }
}

/// Every world simulated the same thing, so a virtual time or count on which
/// they disagree makes the run a failed one.
pub fn require_exact(r: &mut Report) {
    if r.metrics.values().any(|s| s.exact == Some(false)) {
        r.failed = r.attempted;
    }
}
