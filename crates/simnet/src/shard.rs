//! The sharded conservative-lookahead engine.
//!
//! Processes spawned with [`Simulation::spawn_on`] are partitioned into
//! **shards** (one per model node, typically). Each shard owns a private
//! event queue and RNG stream behind a single mutex, plus a clock and a
//! counter table its processes read and bump without that mutex, so
//! shards never contend on shared state while running.
//!
//! This engine runs the scale workloads (`workloads::scale_alltoall` /
//! `scale_stencil`), and only what they use: thread-backed processes,
//! deliveries, emits, stats and RNG. Inline reactors, FIFO resources and
//! tracing are the classic loop's; [`Simulation`] refuses them here.
//!
//! # Synchronization protocol (barrier windows)
//!
//! The run proceeds in rounds driven by a coordinator (the thread that
//! called [`Simulation::run`]):
//!
//! 1. **Flush** — cross-shard events buffered in per-shard outboxes are
//!    moved into their destination queues; buffered `emit` events are
//!    merged in canonical order and handed to the sink.
//! 2. **Horizon** — for each shard, the *effective head* `h_s` is its
//!    next event time (or its clock, if processes are ready to run).
//!    The window end is `W = min over shards of (h_s + la_out(s))`
//!    where `la_out(s)` is the smallest lookahead of any link leaving
//!    shard `s`.
//! 3. **Window** — every shard independently processes events strictly
//!    before `W`. A cross-shard delivery must carry a delay of at least
//!    the link lookahead, so every event it generates lands at or after
//!    `W` — no shard can receive an event in its past, hence no
//!    speculation and no rollback. The flush step asserts this
//!    invariant on every crossing event.
//!
//! # Determinism
//!
//! Every event carries the canonical key `(virtual time, source shard,
//! source sequence)` (see [`crate::event`]). A shard's execution inside
//! a window is sequential, so its sequence numbers are a pure function
//! of the simulation's history, never of OS scheduling. Cross-shard
//! events are sunk into destination queues between windows, where the
//! canonical key — not arrival order — decides processing order. The
//! result is bit-for-bit identical at any worker-thread count,
//! including 1.
//!
//! # Locking
//!
//! Workers only ever lock the state of shards they own; the coordinator
//! locks one shard at a time between windows; process threads lock only
//! their own shard (plus a read lock on the immutable pid directory).
//! No code path holds two shard locks at once, so the engine adds no
//! edges to the analyzer's lock-order graph.
//!
//! [`Simulation`]: crate::Simulation
//! [`Simulation::spawn_on`]: crate::Simulation::spawn_on
//! [`Simulation::run`]: crate::Simulation::run

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock, RwLock};
use std::task::Poll;

use parking_lot::{Condvar, Mutex};

use crate::emit::{deliver_batched, Emitted, EventSink};
use crate::event::{EventKind, EventQueue};
use crate::process::{
    drive, hand_off, process_thread, take_leftovers, Baton, BlockReason, LoopState, Payload, Pid,
    ProcKind, ProcSlot, ProcStatus, Step,
};
use crate::rng::SimRng;
use crate::sim::{ProcReport, ProcessCtx, Report, Route, SimError};
use crate::stats::{StatTable, Stats};
use crate::time::{Clock, SimDelta, SimTime};

/// Per-link lookahead map: the minimum cross-shard delivery latency the
/// model guarantees, per `(from, to)` pair, with a default for
/// unconfigured links.
#[derive(Clone)]
pub(crate) struct LookaheadCfg {
    pub(crate) default: SimDelta,
    pub(crate) links: BTreeMap<(u32, u32), SimDelta>,
}

impl LookaheadCfg {
    pub(crate) fn new(default: SimDelta) -> Self {
        LookaheadCfg {
            default,
            links: BTreeMap::new(),
        }
    }

    /// Lookahead of the directed link `from -> to`.
    pub(crate) fn of(&self, from: u32, to: u32) -> SimDelta {
        self.links.get(&(from, to)).copied().unwrap_or(self.default)
    }
}

/// Where a pid lives: which shard, and at which local slot index. The
/// index is only needed at spawn time; routing uses the shard.
#[derive(Clone, Copy)]
struct ProcLoc {
    shard: u32,
    #[allow(dead_code)]
    idx: u32,
}

/// A cross-shard event parked in its source shard's outbox until the
/// next flush.
struct OutEvent {
    at: SimTime,
    src: u32,
    seq: u64,
    dest: u32,
    kind: EventKind,
}

/// A buffered `emit` awaiting canonical-order delivery to the sink.
struct EmitRec {
    at: SimTime,
    pid: Pid,
    seq: u64,
    payload: Payload,
}

/// Profile bucket name: wall-clock time spent executing events inside
/// windows, per shard (see [`ShardStats::exec_ns`]).
pub const SCOPE_ENGINE_EXEC: &str = "engine_exec";
/// Profile bucket name: wall-clock time workers spent parked at the
/// round gate waiting for the next window (see
/// [`ShardStats::barrier_wait_ns`]).
pub const SCOPE_ENGINE_BARRIER_WAIT: &str = "engine_barrier_wait";
/// Profile bucket name: coordinator time merging cross-shard events and
/// emits between windows (see [`EngineProfile::emit_merge_ns`]).
pub const SCOPE_ENGINE_EMIT_MERGE: &str = "engine_emit_merge";
/// Profile bucket name: coordinator time computing conservative window
/// horizons (see [`EngineProfile::coordinator_ns`]).
pub const SCOPE_ENGINE_COORDINATOR: &str = "engine_coordinator";

/// Wall-clock time attribution for one shard of a profiled run
/// ([`crate::Simulation::set_profile`]).
///
/// All `_ns` fields are **wall-clock** durations: they vary run to run
/// and must never feed back into simulation results (the engine only
/// reads them into the final [`crate::Report`]). The `windows`/`events`
/// counts are virtual-time-deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id.
    pub shard: u32,
    /// Windows dispatched to this shard (equals the run's window count).
    pub windows: u64,
    /// Events this shard executed.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside [`run_window`] execution.
    pub exec_ns: u64,
    /// Wall-clock nanoseconds the owning worker spent waiting at the
    /// round gate, attributed evenly across the shards it owns. Zero
    /// when the run is single-threaded (windows run inline, no gate).
    pub barrier_wait_ns: u64,
}

/// Engine-level wall-clock attribution of a profiled sharded run,
/// attached to [`crate::Report::profile`].
///
/// The buckets attribute where the *engine's own* overhead goes —
/// event-execute vs barrier-wait vs emit-merge vs coordinator — they are
/// not a partition of the run's total wall time (worker execution and
/// the coordinator's wait for workers overlap).
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Per-shard buckets, in shard-id order.
    pub shards: Vec<ShardStats>,
    /// Coordinator wall-clock nanoseconds in the flush step: moving
    /// outbox events into destination queues and merging buffered emits
    /// in canonical order.
    pub emit_merge_ns: u64,
    /// Coordinator wall-clock nanoseconds computing window horizons.
    pub coordinator_ns: u64,
    /// Barrier windows the run executed.
    pub windows: u64,
    /// Worker threads the run used.
    pub threads: usize,
}

impl EngineProfile {
    /// Sum of per-shard event-execution time.
    pub fn exec_ns_total(&self) -> u64 {
        self.shards.iter().map(|s| s.exec_ns).sum()
    }

    /// Sum of per-shard barrier-wait time.
    pub fn barrier_wait_ns_total(&self) -> u64 {
        self.shards.iter().map(|s| s.barrier_wait_ns).sum()
    }

    /// Events executed across all shards.
    pub fn events_total(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// The engine buckets as `(scope name, wall ns)` rows, aggregated
    /// across shards — the shape the profile report and the `cargo
    /// xtask profile` table consume.
    pub fn buckets(&self) -> Vec<(&'static str, u64)> {
        vec![
            (SCOPE_ENGINE_EXEC, self.exec_ns_total()),
            (SCOPE_ENGINE_BARRIER_WAIT, self.barrier_wait_ns_total()),
            (SCOPE_ENGINE_EMIT_MERGE, self.emit_merge_ns),
            (SCOPE_ENGINE_COORDINATOR, self.coordinator_ns),
        ]
    }
}

/// Everything one shard owns. Exactly one thread touches this at a time:
/// whoever carries the shard's loop during a window (its worker, or one
/// of its process threads), the coordinator between windows, or a
/// running process via its `ProcessCtx`.
struct ShardState {
    queue: EventQueue,
    slots: Vec<ProcSlot>,
    /// Local slot index -> global pid.
    pids: Vec<Pid>,
    /// Global pid (raw) -> local slot index.
    local: BTreeMap<u32, u32>,
    /// Local slot indexes ready to run at `now`.
    ready: VecDeque<u32>,
    rng: SimRng,
    /// Shard-private monotone counter stamping every queue push, outbox
    /// entry and emit — the `seq` half of the canonical event key.
    next_seq: u64,
    outbox: Vec<OutEvent>,
    emits: Vec<EmitRec>,
    events: u64,
    error: Option<SimError>,
    /// Message of a process panic captured inside a window, re-raised by
    /// the coordinator with the classic engine's message format.
    fatal: Option<String>,
    /// End of the window being run: events at or after it wait.
    w_end: SimTime,
    time_limit: Option<SimTime>,
    /// Process executions this window since the clock last advanced
    /// (livelock guard).
    execs: u64,
    /// Yield-injection shim (`set_chaos`, multi-worker runs only).
    chaos: Option<SimRng>,
    /// Windows dispatched to this shard (profiled runs only).
    prof_windows: u64,
    /// Wall-clock ns spent executing windows (profiled runs only).
    prof_exec_ns: u64,
    /// Wall-clock ns of gate wait attributed to this shard (profiled
    /// multi-threaded runs only).
    prof_barrier_ns: u64,
}

/// One shard: an id, its mutex-guarded state, and the clock and counters
/// that its processes read and bump without that mutex.
pub(crate) struct ShardCell {
    pub(crate) id: u32,
    state: Mutex<ShardState>,
    /// The shard's clock: set by its loop's step, read without the lock.
    pub(crate) clock: Clock,
    /// The shard's counters, bumped without the lock and merged in
    /// shard order when the run ends.
    pub(crate) stats: StatTable,
    /// Where the shard's worker parks while process threads carry the
    /// window's loop.
    owner: Baton,
}

impl ShardCell {
    fn new(id: u32) -> ShardCell {
        ShardCell {
            id,
            state: Mutex::new(ShardState {
                queue: EventQueue::new(),
                slots: Vec::new(),
                pids: Vec::new(),
                local: BTreeMap::new(),
                ready: VecDeque::new(),
                rng: SimRng::new(0),
                next_seq: 0,
                outbox: Vec::new(),
                emits: Vec::new(),
                events: 0,
                error: None,
                fatal: None,
                w_end: SimTime::ZERO,
                time_limit: None,
                execs: 0,
                chaos: None,
                prof_windows: 0,
                prof_exec_ns: 0,
                prof_barrier_ns: 0,
            }),
            clock: Clock::new(),
            stats: StatTable::new(),
            owner: Baton::new(),
        }
    }
}

/// Run-time configuration frozen at the start of `run_sharded`.
struct Sealed {
    la: LookaheadCfg,
    sink: Option<EventSink>,
}

/// The shared runtime of a sharded simulation.
pub(crate) struct ShardedRt {
    shards: RwLock<Vec<Arc<ShardCell>>>,
    dir: RwLock<Vec<ProcLoc>>,
    sealed: OnceLock<Sealed>,
}

impl ShardedRt {
    pub(crate) fn new() -> ShardedRt {
        ShardedRt {
            shards: RwLock::new(Vec::new()),
            dir: RwLock::new(Vec::new()),
            sealed: OnceLock::new(),
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shards.read().expect("shard list poisoned").len()
    }
}

/// Options for one sharded run, assembled by [`crate::Simulation::run`].
pub(crate) struct RunOpts {
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    pub(crate) time_limit: Option<SimTime>,
    pub(crate) sink: Option<EventSink>,
    pub(crate) lookahead: LookaheadCfg,
    /// Seed for the OS-level yield-injection shim (tests only): workers
    /// randomly call `thread::yield_now` between events to stress
    /// thread-interleaving independence.
    pub(crate) chaos: Option<u64>,
    /// Collect wall-clock [`EngineProfile`] buckets into the report.
    pub(crate) profile: bool,
}

/// Deterministic per-shard RNG stream. Shard 0 gets the raw seed and
/// other shards a SplitMix-scrambled derivative; the committed
/// `ext_scale_*` artifacts pin both, so neither may change.
fn shard_seed(seed: u64, shard: u32) -> u64 {
    if shard == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard cell for `shard`, growing the shard list as needed.
/// Build-phase only (single-threaded).
fn cell_of(rt: &ShardedRt, shard: usize) -> Arc<ShardCell> {
    let mut g = rt.shards.write().expect("shard list poisoned");
    while g.len() <= shard {
        let id = g.len() as u32;
        g.push(Arc::new(ShardCell::new(id)));
    }
    Arc::clone(&g[shard])
}

/// Location of `pid`, panicking on an unknown pid.
fn loc_of(rt: &ShardedRt, pid: Pid) -> ProcLoc {
    let dir = rt.dir.read().expect("pid directory poisoned");
    *dir.get(pid.index())
        .unwrap_or_else(|| panic!("delivery to unknown {pid:?}"))
}

/// Spawn a process onto `shard`. Build-phase only: the sharded engine
/// fixes the process population before `run()` so pid assignment can
/// never depend on thread timing.
pub(crate) fn spawn_on_shard<F>(
    rt: &Arc<ShardedRt>,
    stack_size: usize,
    shard: usize,
    name: String,
    f: F,
) -> Pid
where
    F: FnOnce(ProcessCtx) + Send + 'static,
{
    let baton = Arc::new(Baton::new());
    let (cell, idx, pid) = register_process(rt, shard, name.clone(), Arc::clone(&baton));
    let ctx = ProcessCtx {
        route: Route::Sharded {
            rt: Arc::clone(rt),
            cell: Arc::clone(&cell),
            idx,
        },
        pid,
        baton: Ok(Arc::clone(&baton)),
        stack_size,
    };
    let tcell = Arc::clone(&cell);
    let handle = std::thread::Builder::new()
        .name(name)
        .stack_size(stack_size)
        .spawn(move || {
            process_thread(
                &baton,
                move || f(ctx),
                |panic| {
                    let now = tcell.clock.get();
                    let mut st = tcell.state.lock();
                    if let Some(msg) = st.slots[idx as usize].exited(now, panic) {
                        st.fatal = Some(msg);
                    }
                    drop(st);
                    carry(&tcell, None);
                },
            )
        })
        .expect("failed to spawn process thread");
    if let ProcKind::Thread { join, .. } = &mut cell.state.lock().slots[idx as usize].kind {
        *join = Some(handle);
    }
    pid
}

/// Give a new thread-backed process parked on `baton` its pid and its
/// slot on `shard`, ready to run at time zero. Returns the shard cell,
/// the local slot index and the pid.
fn register_process(
    rt: &ShardedRt,
    shard: usize,
    name: String,
    baton: Arc<Baton>,
) -> (Arc<ShardCell>, u32, Pid) {
    let kind = ProcKind::Thread { baton, join: None };
    assert!(
        rt.sealed.get().is_none(),
        "dynamic spawn is not supported by the sharded engine; \
         spawn every process before run()"
    );
    let cell = cell_of(rt, shard);
    let pid = Pid(rt.dir.read().expect("pid directory poisoned").len() as u32);
    let idx;
    {
        let mut st = cell.state.lock();
        idx = st.slots.len() as u32;
        st.slots.push(ProcSlot::new(name, kind));
        st.pids.push(pid);
        st.local.insert(pid.0, idx);
        st.ready.push_back(idx);
    }
    rt.dir
        .write()
        .expect("pid directory poisoned")
        .push(ProcLoc {
            shard: shard as u32,
            idx,
        });
    (cell, idx, pid)
}

// ---------------------------------------------------------------------
// The coordinator: window loop, flush, horizon computation, reporting.
// ---------------------------------------------------------------------

/// Run a sharded simulation to completion. Mirrors the classic engine's
/// contract: same error variants, same panic message format, and — for
/// a fixed seed and topology — the same result at every thread count.
pub(crate) fn run_sharded(rt: &Arc<ShardedRt>, opts: RunOpts) -> Result<Report, SimError> {
    let shards: Vec<Arc<ShardCell>> = {
        let g = rt.shards.read().expect("shard list poisoned");
        g.clone()
    };
    let n = shards.len();
    if n == 0 {
        return Ok(Report {
            end_time: SimTime::ZERO,
            stats: Stats::new(),
            trace: None,
            procs: Vec::new(),
            events: 0,
            resources: Vec::new(),
            profile: opts.profile.then(EngineProfile::default),
        });
    }
    // Freeze the lookahead map and precompute each shard's smallest
    // outgoing-link lookahead.
    let mut out_min: Vec<Option<SimDelta>> = Vec::with_capacity(n);
    for s in 0..n as u32 {
        let mut min: Option<SimDelta> = None;
        for t in 0..n as u32 {
            if t == s {
                continue;
            }
            let la = opts.lookahead.of(s, t);
            assert!(
                la > SimDelta::ZERO,
                "lookahead for link {s}->{t} must be positive"
            );
            min = Some(match min {
                Some(m) => m.min(la),
                None => la,
            });
        }
        out_min.push(min);
    }
    if rt
        .sealed
        .set(Sealed {
            la: opts.lookahead.clone(),
            sink: opts.sink.clone(),
        })
        .is_err()
    {
        panic!("a sharded simulation can only run once");
    }
    let workers = opts.threads.max(1).min(n);
    // Seed per-shard RNG streams.
    for cell in &shards {
        let mut st = cell.state.lock();
        st.rng = SimRng::new(shard_seed(opts.seed, cell.id));
        st.time_limit = opts.time_limit;
        if workers > 1 {
            st.chaos = opts.chaos.map(|c| SimRng::new(shard_seed(c, cell.id + 1)));
        }
    }
    let prof = opts.profile;
    let mut pool = (workers > 1).then(|| Pool::start(&shards, workers, prof));

    let mut window_end = SimTime::ZERO;
    let mut windows: u64 = 0;
    let mut xshard: u64 = 0;
    let mut emit_merge_ns: u64 = 0;
    let mut coordinator_ns: u64 = 0;
    let outcome: Result<(), Stop> = loop {
        // 1. Flush the previous window's cross-shard traffic and emits.
        let t0 = prof.then(std::time::Instant::now); // lint:allow(wall-clock)
        flush_cross_shard(&shards, rt, window_end, &mut xshard);
        if let Some(t0) = t0 {
            emit_merge_ns += t0.elapsed().as_nanos() as u64;
        }
        // 2. Resolve panics/errors from the previous window, in shard
        //    order (deterministic regardless of which worker hit them).
        if let Some(msg) = take_fatal(&shards) {
            break Err(Stop::Panic(msg));
        }
        if let Some(err) = take_error(&shards) {
            break Err(Stop::Error(err));
        }
        // 3. Compute the conservative window end.
        let t0 = prof.then(std::time::Instant::now); // lint:allow(wall-clock)
        let mut w = SimTime::MAX;
        let mut any_active = false;
        for cell in &shards {
            let head = {
                let st = cell.state.lock();
                if st.ready.is_empty() {
                    st.queue.peek_at()
                } else {
                    Some(cell.clock.get())
                }
            };
            if let Some(h) = head {
                any_active = true;
                if let Some(la) = out_min[cell.id as usize] {
                    let end = SimTime::from_ps(h.as_ps().saturating_add(la.as_ps()));
                    w = w.min(end);
                }
            }
        }
        if let Some(t0) = t0 {
            coordinator_ns += t0.elapsed().as_nanos() as u64;
        }
        if !any_active {
            break Ok(());
        }
        windows += 1;
        window_end = w;
        // 4. Run the window on every shard.
        match &pool {
            Some(p) => p.run_round(w),
            None => {
                for cell in &shards {
                    run_window(cell, w, prof);
                }
            }
        }
    };
    stop_pool(&mut pool);
    // The run is over, however it ended: let no thread outlive it.
    for cell in &shards {
        let left = take_leftovers(&mut cell.state.lock().slots);
        left.release();
    }
    match outcome {
        Ok(()) => {}
        Err(Stop::Panic(msg)) => panic!("{msg}"),
        Err(Stop::Error(err)) => return Err(err),
    }

    // Termination: everything must have finished.
    let mut end_time = SimTime::ZERO;
    let mut blocked: Vec<(u32, String, BlockReason)> = Vec::new();
    for cell in &shards {
        end_time = end_time.max(cell.clock.get());
        let st = cell.state.lock();
        for (i, slot) in st.slots.iter().enumerate() {
            if let ProcStatus::Blocked(r) = slot.status {
                blocked.push((st.pids[i].0, slot.name.clone(), r));
            }
        }
    }
    if !blocked.is_empty() {
        blocked.sort_by_key(|(pid, _, _)| *pid);
        return Err(SimError::Deadlock {
            now: end_time,
            blocked: blocked.into_iter().map(|(_, n, r)| (n, r)).collect(),
        });
    }
    // Merge per-shard state into one report, always in shard-id order.
    let mut procs: Vec<(u32, ProcReport)> = Vec::new();
    let mut stats = Stats::new();
    let mut events: u64 = 0;
    let mut shard_stats: Vec<ShardStats> = Vec::new();
    for cell in &shards {
        let st = cell.state.lock();
        if prof {
            shard_stats.push(ShardStats {
                shard: cell.id,
                windows: st.prof_windows,
                events: st.events,
                exec_ns: st.prof_exec_ns,
                barrier_wait_ns: st.prof_barrier_ns,
            });
        }
        for (i, slot) in st.slots.iter().enumerate() {
            procs.push((
                st.pids[i].0,
                ProcReport {
                    name: slot.name.clone(),
                    compute_time: slot.compute_time,
                    finished_at: slot.finished_at.unwrap_or(end_time),
                },
            ));
        }
        cell.stats.fold_into(&mut stats);
        events += st.events;
    }
    procs.sort_by_key(|(pid, _)| *pid);
    stats.incr("simnet.sharded.shards", n as u64);
    stats.incr("simnet.sharded.windows", windows);
    stats.incr("simnet.sharded.xshard_events", xshard);
    let report = Report {
        end_time,
        stats,
        trace: None,
        procs: procs.into_iter().map(|(_, p)| p).collect(),
        events,
        resources: Vec::new(),
        profile: prof.then_some(EngineProfile {
            shards: shard_stats,
            emit_merge_ns,
            coordinator_ns,
            windows,
            threads: workers,
        }),
    };
    Ok(report)
}

/// Move every outbox event into its destination queue and hand the
/// window's buffered emits to the sink in canonical order. Asserts the
/// conservative invariant: nothing generated inside the last window may
/// land before that window's end.
fn flush_cross_shard(
    shards: &[Arc<ShardCell>],
    rt: &ShardedRt,
    horizon: SimTime,
    xshard: &mut u64,
) {
    let sealed = rt.sealed.get().expect("sharded runtime not sealed");
    let mut moved: Vec<OutEvent> = Vec::new();
    let mut emits: Vec<(u32, EmitRec)> = Vec::new();
    for cell in shards {
        let mut st = cell.state.lock();
        moved.append(&mut st.outbox);
        let id = cell.id;
        emits.extend(st.emits.drain(..).map(|e| (id, e)));
    }
    for ev in &moved {
        assert!(
            ev.at >= horizon,
            "conservative lookahead violated: a cross-shard event for {} \
             was generated inside a window that ended at {} \
             (shard {} -> shard {})",
            ev.at,
            horizon,
            ev.src,
            ev.dest
        );
    }
    *xshard += moved.len() as u64;
    moved.sort_by_key(|e| e.dest);
    let mut iter = moved.into_iter().peekable();
    while let Some(first) = iter.next() {
        let dest = first.dest;
        let mut st = shards[dest as usize].state.lock();
        st.queue
            .push_keyed(first.at, first.src, first.seq, first.kind);
        while iter.peek().is_some_and(|e| e.dest == dest) {
            let e = iter.next().expect("peeked event");
            st.queue.push_keyed(e.at, e.src, e.seq, e.kind);
        }
        drop(st);
    }
    // Canonical emit order: (virtual time, shard, shard-local seq).
    emits.sort_by_key(|a| (a.1.at, a.0, a.1.seq));
    if let Some(sink) = &sealed.sink {
        deliver_batched(sink, &emits, |(_, e)| Emitted {
            at: e.at,
            pid: e.pid,
            event: &*e.payload,
        });
    }
}

/// Why the window loop ended early.
enum Stop {
    Panic(String),
    Error(SimError),
}

/// First captured process panic in shard order, if any.
fn take_fatal(shards: &[Arc<ShardCell>]) -> Option<String> {
    for cell in shards {
        let mut st = cell.state.lock();
        if let Some(f) = st.fatal.take() {
            return Some(f);
        }
    }
    None
}

/// First recorded engine error in shard order, if any.
fn take_error(shards: &[Arc<ShardCell>]) -> Option<SimError> {
    for cell in shards {
        let mut st = cell.state.lock();
        if let Some(e) = st.error.take() {
            return Some(e);
        }
    }
    None
}

fn stop_pool(pool: &mut Option<Pool>) {
    if let Some(p) = pool.take() {
        p.shutdown();
    }
}

// ---------------------------------------------------------------------
// The worker pool: a round-based fork/join gate.
// ---------------------------------------------------------------------

struct GateState {
    round: u64,
    window: SimTime,
    done: usize,
    shutdown: bool,
}

struct Gate {
    m: Mutex<GateState>,
    cv: Condvar,
}

struct Pool {
    gate: Arc<Gate>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn start(shards: &[Arc<ShardCell>], workers: usize, prof: bool) -> Pool {
        let gate = Arc::new(Gate {
            m: Mutex::new(GateState {
                round: 0,
                window: SimTime::ZERO,
                done: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let mut handles = Vec::new();
        for w in 0..workers {
            // Static shard->worker assignment; each worker walks its
            // shards in id order. The assignment is invisible to
            // results — windows are independent per shard.
            let mine: Vec<Arc<ShardCell>> = shards
                .iter()
                .filter(|c| c.id as usize % workers == w)
                .cloned()
                .collect();
            let gate2 = Arc::clone(&gate);
            let handle = std::thread::Builder::new()
                .name(format!("simnet-worker{w}"))
                .spawn(move || worker_loop(gate2, mine, prof))
                .expect("failed to spawn shard worker");
            handles.push(handle);
        }
        Pool {
            gate,
            workers,
            handles,
        }
    }

    /// Dispatch one window to every worker and wait for all of them.
    fn run_round(&self, window: SimTime) {
        {
            let mut g = self.gate.m.lock();
            g.round += 1;
            g.window = window;
            g.done = 0;
        }
        self.gate.cv.notify_all();
        let mut g = self.gate.m.lock();
        while g.done < self.workers {
            self.gate.cv.wait(&mut g);
        }
    }

    fn shutdown(mut self) {
        self.gate.m.lock().shutdown = true;
        self.gate.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(gate: Arc<Gate>, shards: Vec<Arc<ShardCell>>, prof: bool) {
    let mut seen = 0u64;
    let mut wait_ns: u64 = 0;
    loop {
        let window;
        {
            let mut g = gate.m.lock();
            loop {
                if g.shutdown {
                    drop(g);
                    if prof {
                        distribute_gate_wait(&shards, wait_ns);
                    }
                    return;
                }
                if g.round > seen {
                    break;
                }
                if prof {
                    let t0 = std::time::Instant::now(); // lint:allow(wall-clock)
                    gate.cv.wait(&mut g);
                    wait_ns += t0.elapsed().as_nanos() as u64;
                } else {
                    gate.cv.wait(&mut g);
                }
            }
            seen = g.round;
            window = g.window;
        }
        for cell in &shards {
            run_window(cell, window, prof);
        }
        gate.m.lock().done += 1;
        gate.cv.notify_all();
    }
}

/// Attribute a worker's total gate-wait time evenly across the shards it
/// owns: the wait is a property of the worker thread, not of any single
/// shard, so an even split is the only assignment that does not invent
/// per-shard precision the measurement lacks.
fn distribute_gate_wait(shards: &[Arc<ShardCell>], wait_ns: u64) {
    if shards.is_empty() || wait_ns == 0 {
        return;
    }
    let share = wait_ns / shards.len() as u64;
    for cell in shards {
        cell.state.lock().prof_barrier_ns += share;
    }
}

// ---------------------------------------------------------------------
// Inside one window: the per-shard scheduler loop (mirrors the classic
// engine's two phases, bounded by the window end).
// ---------------------------------------------------------------------

/// Process one shard's events strictly before `w_end`, timing the whole
/// window into the shard's `exec_ns` bucket on profiled runs. The timer
/// reads wall clock strictly *outside* the execution path it measures,
/// so profiling can never perturb virtual-time results.
fn run_window(cell: &ShardCell, w_end: SimTime, prof: bool) {
    if !prof {
        run_window_inner(cell, w_end);
        return;
    }
    let t0 = std::time::Instant::now(); // lint:allow(wall-clock)
    run_window_inner(cell, w_end);
    let dt = t0.elapsed().as_nanos() as u64;
    let mut st = cell.state.lock();
    st.prof_exec_ns += dt;
    st.prof_windows += 1;
}

/// Process one shard's events strictly before `w_end`, as the loop's
/// owner. Errors and process panics are parked in the shard state for
/// the coordinator to resolve deterministically after the round.
fn run_window_inner(cell: &ShardCell, w_end: SimTime) {
    {
        let mut st = cell.state.lock();
        st.w_end = w_end;
        st.execs = 0;
    }
    drive(
        &cell.owner,
        || step(cell, true),
        |_| unreachable!("a shard holds no reactor or future process"),
    );
}

/// The shard loop's next step inside the current window
/// ([`LoopState::step`]).
fn step(cell: &ShardCell, owner: bool) -> Step {
    let mut guard = cell.state.lock();
    let st = &mut *guard;
    let view = LoopState {
        clock: &cell.clock,
        queue: &mut st.queue,
        slots: &mut st.slots,
        ready: &mut st.ready,
        stats: &cell.stats,
        events: &mut st.events,
        execs: &mut st.execs,
        error: &mut st.error,
        panicked: st.fatal.is_some(),
        time_limit: st.time_limit,
        w_end: Some(st.w_end),
        local: Some(&st.local),
    };
    let next = view.step(owner);
    // Yield-injection shim, once per activation: perturb OS scheduling,
    // which must never perturb results.
    let inject =
        !matches!(next, Step::Owner) && st.chaos.as_mut().is_some_and(|rng| rng.gen_range(4) == 0);
    drop(guard);
    if inject {
        std::thread::yield_now();
    }
    next
}

/// A process thread whose process has just blocked (`me`) or exited
/// (`None`) carries its shard's loop on from here.
pub(crate) fn carry(cell: &ShardCell, me: Option<&Baton>) {
    hand_off(me, &cell.owner, step(cell, false));
}

// ---------------------------------------------------------------------
// ProcessCtx operations, sharded side. Each locks only the caller's own
// shard; the pid directory is read (never locked for writing) first.
// ---------------------------------------------------------------------

pub(crate) fn ctx_name(cell: &ShardCell, idx: u32) -> String {
    cell.state.lock().slots[idx as usize].name.clone()
}

/// Arm a sleep (or compute) of `d`: the wake-up event and the blocked
/// status. The caller parks ([`carry`]).
pub(crate) fn ctx_arm_wake(cell: &ShardCell, idx: u32, pid: Pid, d: SimDelta, is_compute: bool) {
    let mut st = cell.state.lock();
    let seq = st.next_seq;
    st.next_seq += 1;
    st.queue
        .push_keyed(cell.clock.get() + d, cell.id, seq, EventKind::Wake(pid));
    let slot = &mut st.slots[idx as usize];
    slot.status = ProcStatus::Blocked(BlockReason::Sleep);
    if is_compute {
        slot.compute_time += d;
    }
}

/// Put a yielding process back at the end of the ready queue.
pub(crate) fn ctx_ready_again(cell: &ShardCell, idx: u32) {
    let mut st = cell.state.lock();
    st.slots[idx as usize].status = ProcStatus::Ready;
    st.ready.push_back(idx);
}

/// The next mailbox message, or `Pending` with the process blocked on
/// its mailbox.
pub(crate) fn ctx_poll_recv(cell: &ShardCell, idx: u32) -> Poll<Payload> {
    let mut st = cell.state.lock();
    let slot = &mut st.slots[idx as usize];
    match slot.mailbox.pop_front() {
        Some(msg) => Poll::Ready(msg),
        None => {
            slot.status = ProcStatus::Blocked(BlockReason::WaitMessage);
            Poll::Pending
        }
    }
}

pub(crate) fn ctx_try_recv(cell: &ShardCell, idx: u32) -> Option<Payload> {
    cell.state.lock().slots[idx as usize].mailbox.pop_front()
}

pub(crate) fn ctx_mailbox_len(cell: &ShardCell, idx: u32) -> usize {
    cell.state.lock().slots[idx as usize].mailbox.len()
}

pub(crate) fn ctx_deliver(
    rt: &ShardedRt,
    cell: &ShardCell,
    to: Pid,
    delay: SimDelta,
    payload: Payload,
) {
    let dest = loc_of(rt, to).shard;
    let sealed = rt.sealed.get().expect("sharded runtime not sealed");
    let src = cell.id;
    let at = cell.clock.get() + delay;
    let mut st = cell.state.lock();
    let seq = st.next_seq;
    st.next_seq += 1;
    if dest == src {
        st.queue
            .push_keyed(at, src, seq, EventKind::Deliver(to, payload));
    } else {
        let la = sealed.la.of(src, dest);
        assert!(
            delay >= la,
            "cross-shard delivery from shard {src} to shard {dest} with delay \
             {}ps below the link lookahead {}ps; raise the delay or lower the \
             lookahead (Simulation::set_lookahead / set_link_lookahead)",
            delay.as_ps(),
            la.as_ps()
        );
        st.outbox.push(OutEvent {
            at,
            src,
            seq,
            dest,
            kind: EventKind::Deliver(to, payload),
        });
    }
}

pub(crate) fn ctx_deliver_at(
    rt: &ShardedRt,
    cell: &ShardCell,
    to: Pid,
    at: SimTime,
    payload: Payload,
) {
    let dest = loc_of(rt, to).shard;
    let sealed = rt.sealed.get().expect("sharded runtime not sealed");
    let src = cell.id;
    let now = cell.clock.get();
    let at = at.max(now);
    let mut st = cell.state.lock();
    let seq = st.next_seq;
    st.next_seq += 1;
    if dest == src {
        st.queue
            .push_keyed(at, src, seq, EventKind::Deliver(to, payload));
    } else {
        let la = sealed.la.of(src, dest);
        assert!(
            at >= now + la,
            "cross-shard delivery from shard {src} to shard {dest} at {} is \
             inside the lookahead window ending {} (lookahead {}ps)",
            at,
            now + la,
            la.as_ps()
        );
        st.outbox.push(OutEvent {
            at,
            src,
            seq,
            dest,
            kind: EventKind::Deliver(to, payload),
        });
    }
}

/// `true` when an event sink is installed (so `emit` can skip boxing).
pub(crate) fn sink_installed(rt: &ShardedRt) -> bool {
    rt.sealed.get().is_some_and(|s| s.sink.is_some())
}

/// Buffer an emitted event; the coordinator delivers it to the sink in
/// canonical `(time, shard, seq)` order at the next flush.
pub(crate) fn ctx_emit(cell: &ShardCell, pid: Pid, payload: Payload) {
    let at = cell.clock.get();
    let mut st = cell.state.lock();
    let seq = st.next_seq;
    st.next_seq += 1;
    st.emits.push(EmitRec {
        at,
        pid,
        seq,
        payload,
    });
}

pub(crate) fn ctx_gen_range(cell: &ShardCell, bound: u64) -> u64 {
    cell.state.lock().rng.gen_range(bound)
}

pub(crate) fn ctx_gen_f64(cell: &ShardCell) -> f64 {
    cell.state.lock().rng.gen_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_map_overrides_default() {
        let mut la = LookaheadCfg::new(SimDelta::from_us(1));
        la.links.insert((0, 1), SimDelta::from_ns(200));
        assert_eq!(la.of(0, 1), SimDelta::from_ns(200));
        assert_eq!(la.of(1, 0), SimDelta::from_us(1));
        assert_eq!(la.of(2, 3), SimDelta::from_us(1));
    }

    #[test]
    fn shard_zero_keeps_the_raw_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
        assert_ne!(shard_seed(42, 1), shard_seed(43, 1));
    }
}
