//! The simulation kernel: scheduler, process control, and the public
//! [`Simulation`] / [`ProcessCtx`] API.
//!
//! # Execution model
//!
//! At most one thread runs at a time: the loop's owner (the caller of
//! [`Simulation::run`]) or exactly one process thread. Control is handed
//! over through per-thread batons; an inline reactor
//! ([`Simulation::spawn_reactor`]) has no thread and is simply called by
//! the owner. The loop:
//!
//! 1. runs every `Ready` process until it blocks (a reactor: until its
//!    mailbox is empty),
//! 2. pops the earliest pending event, advances the clock, and handles it
//!    (which may make processes `Ready` again),
//! 3. repeats until no events remain.
//!
//! A process thread that blocks takes the loop's next step itself and
//! wakes its successor directly; the owner sleeps until a step needs it
//! (a reactor is next, the run is over, something failed).
//!
//! If processes are still blocked when the queue drains, the run reports a
//! **deadlock** naming them. If the clock stops advancing while processes
//! keep re-readying each other, the run reports a **livelock**.
//!
//! # Locking rule for upper layers
//!
//! Simulated code often shares state through an `Arc<Mutex<World>>`. Never
//! hold such a lock across a blocking [`ProcessCtx`] call (`sleep`,
//! `compute`, `recv`, `yield_now`): the next process to run would block on
//! the mutex while the scheduler waits for it to yield, wedging the whole
//! simulation (a real deadlock of OS threads, not a simulated one).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::emit::{EmitBuffer, EventSink};
use crate::event::{EventKind, EventQueue};
use crate::process::{
    drive, drive_reactor, hand_off, process_thread, take_leftovers, Baton, BlockReason, LoopState,
    Payload, Pid, ProcKind, ProcSlot, ProcStatus, Reactor, ReactorBody, Step,
};
use crate::resource::{ResourceId, ResourceState};
use crate::rng::SimRng;
use crate::shard;
use crate::stats::{StatKey, StatTable, Stats};
use crate::time::{Clock, SimDelta, SimTime};
use crate::trace::Trace;

/// Process-global count of simulated events handled by completed runs,
/// on either engine. The engine self-benchmarks read this to report
/// simulated-events-per-second without threading a handle through every
/// layer.
static ENGINE_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total simulated events handled by every completed [`Simulation::run`]
/// in this process so far (monotone; both engines contribute).
pub fn engine_events() -> u64 {
    ENGINE_EVENTS.load(Ordering::Relaxed)
}

fn record_engine_events(n: u64) {
    ENGINE_EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Environment knob naming the sharded engine's worker-thread count
/// (default 1). Results are bit-identical at any value; only wall-clock
/// speed changes. [`Simulation::set_threads`] overrides it.
pub const SIMNET_THREADS_ENV: &str = "SIMNET_THREADS";

/// Environment knob seeding the sharded engine's yield-injection shim
/// (tests only): workers randomly yield the OS thread between events to
/// stress thread-interleaving independence.
pub const SIMNET_CHAOS_ENV: &str = "SIMNET_CHAOS";

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug)]
pub enum SimError {
    /// No pending events but some processes are still blocked.
    Deadlock {
        /// Virtual time at which the simulation wedged.
        now: SimTime,
        /// `(process name, why it is blocked)` for every blocked process.
        blocked: Vec<(String, BlockReason)>,
    },
    /// The configured time limit was reached.
    TimeLimitExceeded {
        /// The limit that was hit.
        limit: SimTime,
    },
    /// The clock stopped advancing while processes kept running.
    Livelock {
        /// Virtual time at which progress stopped.
        now: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { now, blocked } => {
                write!(f, "simulation deadlock at {now}: blocked processes: ")?;
                for (i, (name, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} ({why:?})")?;
                }
                Ok(())
            }
            SimError::TimeLimitExceeded { limit } => {
                write!(f, "simulation exceeded time limit {limit}")
            }
            SimError::Livelock { now } => {
                write!(f, "simulation livelocked at {now} (clock not advancing)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of one process at the end of a run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Name given at spawn time.
    pub name: String,
    /// Total virtual time spent in `compute()`.
    pub compute_time: SimDelta,
    /// When the process closure returned (an inline reactor: when its
    /// handler returned `false`, or `init` returned `None`).
    pub finished_at: SimTime,
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Virtual time when the last event was processed.
    pub end_time: SimTime,
    /// Engine and upper-layer statistics.
    pub stats: Stats,
    /// Trace records, if tracing was enabled.
    pub trace: Option<Trace>,
    /// Per-process summaries, in pid order — every simulated process,
    /// thread-backed or inline reactor (so its length counts processes,
    /// not OS threads).
    pub procs: Vec<ProcReport>,
    /// Number of events handled.
    pub events: u64,
    /// Per-resource utilization: `(name, total busy time, reservations)`.
    pub resources: Vec<(String, SimDelta, u64)>,
    /// Engine wall-clock self-profile, present only when
    /// [`Simulation::set_profile`] enabled it on a sharded run (the
    /// classic engine has no windows or barriers to attribute, so it
    /// always reports `None`). Durations are wall-clock and
    /// nondeterministic; the shard/window/event counts inside are not.
    pub profile: Option<shard::EngineProfile>,
}

impl Report {
    /// Spawn-time name of `pid`, for labeling event streams and dumps
    /// (`procs` is in pid order). `None` for an out-of-range pid.
    pub fn proc_name(&self, pid: Pid) -> Option<&str> {
        self.procs.get(pid.index()).map(|p| p.name.as_str())
    }
}

pub(crate) struct SimState {
    queue: EventQueue,
    procs: Vec<ProcSlot>,
    /// Slot indexes (raw pids) ready to run at `now`.
    ready: VecDeque<u32>,
    resources: Vec<ResourceState>,
    trace: Option<Trace>,
    rng: SimRng,
    time_limit: Option<SimTime>,
    events: u64,
    /// Emissions not yet handed to the sink.
    emits: EmitBuffer,
    /// Process executions since the clock last advanced (livelock guard).
    execs: u64,
    /// Why the loop stopped early, if it did.
    error: Option<SimError>,
    /// Message of a process panic, to re-raise on `run()`'s caller.
    fatal: Option<String>,
}

pub(crate) struct SimInner {
    state: Mutex<SimState>,
    /// The clock: set by the loop's step, read without the lock.
    clock: Clock,
    /// Counters, bumped without the lock.
    stats: StatTable,
    /// Tracing is on. Set before `run()` starts and never after, so an
    /// untraced run checks it without the lock.
    traced: AtomicBool,
    /// Where `run()`'s caller parks while process threads carry the loop.
    owner: Baton,
    /// The event sink, sealed when `run()` starts; unset means none, so
    /// an emit without a sink takes no lock.
    sink: OnceLock<EventSink>,
}

/// A deterministic discrete-event simulation.
///
/// Build it, spawn processes, then call [`run`](Simulation::run).
///
/// ```
/// use simnet::{Simulation, SimDelta};
///
/// let mut sim = Simulation::new(42);
/// sim.spawn("worker", |ctx| {
///     ctx.compute(SimDelta::from_us(5));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, simnet::SimTime::ZERO + SimDelta::from_us(5));
/// ```
pub struct Simulation {
    inner: Arc<SimInner>,
    stack_size: usize,
    seed: u64,
    /// Worker-thread override for the sharded engine (else
    /// `SIMNET_THREADS`, else 1).
    threads: Option<usize>,
    /// Yield-injection seed override (else `SIMNET_CHAOS`, else off).
    chaos: Option<u64>,
    /// Lookahead map used when the simulation is sharded.
    lookahead: shard::LookaheadCfg,
    /// Present once `spawn_on` has been called: the simulation runs on
    /// the sharded conservative-lookahead engine.
    sharded: Option<Arc<shard::ShardedRt>>,
    /// Collect [`shard::EngineProfile`] wall-clock buckets (sharded
    /// engine only; off by default).
    profile: bool,
    /// Installed by [`set_event_sink`](Self::set_event_sink); sealed into
    /// the engine by `run()`.
    sink: Option<EventSink>,
}

/// A typed span opened by [`ProcessCtx::span_begin`] and not yet closed.
///
/// Carries its own start time, so nested and interleaved spans need no
/// bookkeeping in the trace. `start` is `None` when tracing was disabled
/// at open time, making the eventual [`ProcessCtx::span_end`] a no-op.
#[must_use = "close the span with ProcessCtx::span_end"]
#[derive(Debug)]
pub struct OpenSpan {
    start: Option<SimTime>,
    cat: String,
    name: String,
}

/// Which engine a [`ProcessCtx`] talks to.
#[derive(Clone)]
pub(crate) enum Route {
    /// The classic single-queue engine.
    Classic(Arc<SimInner>),
    /// The sharded engine: the shared runtime plus this process's own
    /// shard cell and local slot index.
    Sharded {
        rt: Arc<shard::ShardedRt>,
        cell: Arc<shard::ShardCell>,
        idx: u32,
    },
}

/// Handle given to each simulated process. Cheap to clone.
#[derive(Clone)]
pub struct ProcessCtx {
    pub(crate) route: Route,
    pub(crate) pid: Pid,
    /// `None` for an inline reactor, which has no thread to park.
    pub(crate) baton: Option<Arc<Baton>>,
    pub(crate) stack_size: usize,
}

impl Simulation {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            inner: Arc::new(SimInner {
                state: Mutex::new(SimState {
                    queue: EventQueue::new(),
                    procs: Vec::new(),
                    ready: VecDeque::new(),
                    resources: Vec::new(),
                    trace: None,
                    rng: SimRng::new(seed),
                    time_limit: None,
                    events: 0,
                    emits: EmitBuffer::default(),
                    execs: 0,
                    error: None,
                    fatal: None,
                }),
                clock: Clock::new(),
                stats: StatTable::new(),
                traced: AtomicBool::new(false),
                owner: Baton::new(),
                sink: OnceLock::new(),
            }),
            stack_size: 1 << 20,
            seed,
            threads: None,
            chaos: None,
            lookahead: shard::LookaheadCfg::new(SimDelta::from_us(1)),
            sharded: None,
            profile: false,
            sink: None,
        }
    }

    /// Enable trace collection (off by default; it allocates per record).
    pub fn enable_trace(&mut self) {
        self.inner.state.lock().trace = Some(Trace::default());
        self.inner.traced.store(true, Ordering::Relaxed);
    }

    /// Abort the run with [`SimError::TimeLimitExceeded`] if the clock would
    /// pass `limit`.
    pub fn set_time_limit(&mut self, limit: SimTime) {
        self.inner.state.lock().time_limit = Some(limit);
    }

    /// Stack size for process threads (default 1 MiB).
    pub fn set_stack_size(&mut self, bytes: usize) {
        self.stack_size = bytes;
    }

    /// Install an observer for [`ProcessCtx::emit`] events (e.g. a protocol
    /// conformance checker). At most one sink; later calls replace it.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        self.sink = Some(sink);
    }

    /// Spawn a simulated process. It becomes runnable at time zero (or, when
    /// spawned from a running process, at the current instant). In a sharded
    /// simulation (one where [`spawn_on`](Self::spawn_on) has been used),
    /// the process lands on shard 0.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcessCtx) + Send + 'static,
    {
        if let Some(rt) = &self.sharded {
            return shard::spawn_on_shard(rt, self.stack_size, 0, name.into(), f);
        }
        spawn_process(&self.inner, self.stack_size, name.into(), f)
    }

    /// Spawn a simulated process onto `shard`, switching the simulation to
    /// the **sharded conservative-lookahead engine** (see [`crate::shard`]'s
    /// module docs reflected in DESIGN.md §16).
    ///
    /// Each shard runs on its own event queue; a cross-shard
    /// [`ProcessCtx::deliver`] must carry a delay of at least the link
    /// lookahead (see [`set_lookahead`](Self::set_lookahead)). Results are
    /// bit-for-bit identical at every worker-thread count.
    ///
    /// The first `spawn_on` must come before any plain [`spawn`](Self::spawn)
    /// (later plain spawns land on shard 0), and all processes must be
    /// spawned before [`run`](Self::run) — the sharded engine rejects
    /// dynamic spawns so pid assignment can never depend on thread timing.
    pub fn spawn_on<F>(&mut self, shard_id: usize, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcessCtx) + Send + 'static,
    {
        let stack_size = self.stack_size;
        shard::spawn_on_shard(self.sharded_rt(), stack_size, shard_id, name.into(), f)
    }

    /// Spawn an **inline reactor**: a process with a pid, a name, a
    /// mailbox and a [`ProcReport`] entry like any other, but no thread.
    /// `init` runs at the process's first activation (where a thread's
    /// first instructions would) and returns the message handler, or
    /// `None` to finish at once. The scheduler then calls the handler on
    /// its own thread once per mailbox message; when the mailbox is empty
    /// the reactor waits for the next delivery, and when the handler
    /// returns `false` the process has finished.
    ///
    /// A reactor runs to completion every time: calling a blocking
    /// [`ProcessCtx`] operation (`sleep`, `compute`, `recv`, `yield_now`)
    /// from `init` or the handler panics. Everything else — `deliver`,
    /// `try_recv`, `reserve`, `emit`, stats, RNG — works as in a thread.
    /// In a sharded simulation the reactor lands on shard 0.
    pub fn spawn_reactor<I>(&mut self, name: impl Into<String>, init: I) -> Pid
    where
        I: FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
    {
        if let Some(rt) = &self.sharded {
            return shard::spawn_reactor_on_shard(rt, self.stack_size, 0, name.into(), init);
        }
        spawn_reactor_process(&self.inner, self.stack_size, name.into(), init)
    }

    /// [`spawn_reactor`](Self::spawn_reactor) onto `shard`, with
    /// [`spawn_on`](Self::spawn_on)'s rules.
    pub fn spawn_reactor_on<I>(&mut self, shard_id: usize, name: impl Into<String>, init: I) -> Pid
    where
        I: FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
    {
        let stack_size = self.stack_size;
        shard::spawn_reactor_on_shard(self.sharded_rt(), stack_size, shard_id, name.into(), init)
    }

    /// The sharded runtime, switching the simulation over to it on first
    /// use.
    fn sharded_rt(&mut self) -> &Arc<shard::ShardedRt> {
        if self.sharded.is_none() {
            let classic = self.inner.state.lock().procs.len();
            assert_eq!(
                classic, 0,
                "spawn_on must come before any plain spawn ({classic} processes \
                 were already spawned on the classic engine)"
            );
        }
        self.sharded
            .get_or_insert_with(|| Arc::new(shard::ShardedRt::new()))
    }

    /// Default per-link lookahead for the sharded engine: the minimum
    /// cross-shard delivery delay the model guarantees (default 1 µs).
    /// Must be positive. Larger lookahead means longer synchronization
    /// windows and less coordination overhead; every cross-shard
    /// delivery must have `delay >= lookahead`.
    pub fn set_lookahead(&mut self, la: SimDelta) {
        assert!(la > SimDelta::ZERO, "lookahead must be positive");
        self.lookahead.default = la;
    }

    /// Override the lookahead of one directed shard link `from -> to`.
    pub fn set_link_lookahead(&mut self, from: usize, to: usize, la: SimDelta) {
        assert!(la > SimDelta::ZERO, "lookahead must be positive");
        self.lookahead.links.insert((from as u32, to as u32), la);
    }

    /// Worker threads for the sharded engine (overrides the
    /// `SIMNET_THREADS` environment variable; default 1). Purely a
    /// speed knob: results are identical at any value.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = Some(threads);
    }

    /// Seed the sharded engine's OS-level yield-injection shim
    /// (overrides `SIMNET_CHAOS`; tests only). Workers randomly yield
    /// between events to stress that thread interleaving cannot affect
    /// results.
    pub fn set_chaos(&mut self, seed: u64) {
        self.chaos = Some(seed);
    }

    /// Collect the sharded engine's wall-clock self-profile into
    /// [`Report::profile`]: per-shard event-execute and barrier-wait
    /// buckets plus coordinator flush/horizon time. Off by default —
    /// when off, the engine takes no timestamps at all. Profiling never
    /// affects virtual-time results; only the run's wall speed (bounded
    /// overhead, gated in CI).
    pub fn set_profile(&mut self, on: bool) {
        self.profile = on;
    }

    /// Number of shards (0 for a classic, unsharded simulation).
    pub fn shards(&self) -> usize {
        self.sharded.as_ref().map_or(0, |rt| rt.num_shards())
    }

    /// Create a FIFO resource (see [`crate::ResourceId`]). In a sharded
    /// simulation the resource lives on shard 0 and only shard-0
    /// processes may reserve it; runtime code creates node-local
    /// resources via [`ProcessCtx::create_resource`] instead.
    pub fn create_resource(&mut self, name: impl Into<String>) -> ResourceId {
        if let Some(rt) = &self.sharded {
            return shard::create_resource_on(rt, 0, name.into());
        }
        let mut st = self.inner.state.lock();
        let id = ResourceId(st.resources.len() as u32);
        st.resources.push(ResourceState::new(name.into()));
        id
    }

    /// Run to completion. Returns the report, or an error describing a
    /// deadlock / livelock / time-limit overrun. Panics raised inside a
    /// simulated process are re-raised here with the process name attached.
    pub fn run(self) -> Result<Report, SimError> {
        if let Some(rt) = &self.sharded {
            let time_limit = self.inner.state.lock().time_limit;
            let trace = self.inner.traced.load(Ordering::Relaxed);
            let threads = self
                .threads
                .or_else(|| env_u64(SIMNET_THREADS_ENV).map(|n| n as usize))
                .unwrap_or(1);
            let chaos = self.chaos.or_else(|| env_u64(SIMNET_CHAOS_ENV));
            let report = shard::run_sharded(
                rt,
                shard::RunOpts {
                    seed: self.seed,
                    threads,
                    time_limit,
                    trace,
                    sink: self.sink.clone(),
                    lookahead: self.lookahead.clone(),
                    chaos,
                    profile: self.profile,
                },
            )?;
            record_engine_events(report.events);
            return Ok(report);
        }
        let inner = self.inner;
        if let Some(sink) = self.sink {
            // `run` consumes the simulation: this is the only seal.
            let _ = inner.sink.set(sink);
        }
        drive(
            &inner.owner,
            || step(&inner, true),
            |key, body| run_reactor(&inner, key, body),
        );
        // The run is over, however it ended: free what still-waiting
        // reactors hold, and let no thread outlive it. Then the sink gets
        // what is still buffered, before any error or panic surfaces.
        let left = take_leftovers(&mut inner.state.lock().procs);
        left.release();
        flush_emits(&inner);
        let mut st = inner.state.lock();
        if let Some(msg) = st.fatal.take() {
            drop(st);
            panic!("{msg}");
        }
        if let Some(err) = st.error.take() {
            return Err(err);
        }

        // Termination: everything must have finished.
        let blocked: Vec<(String, BlockReason)> = st
            .procs
            .iter()
            .filter_map(|p| match p.status {
                ProcStatus::Blocked(r) => Some((p.name.clone(), r)),
                _ => None,
            })
            .collect();
        let now = inner.clock.get();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { now, blocked });
        }
        let mut stats = Stats::new();
        inner.stats.fold_into(&mut stats);
        let report = Report {
            end_time: now,
            stats,
            trace: st.trace.take(),
            procs: st
                .procs
                .iter()
                .map(|p| ProcReport {
                    name: p.name.clone(),
                    compute_time: p.compute_time,
                    finished_at: p.finished_at.unwrap_or(now),
                })
                .collect(),
            events: st.events,
            resources: st
                .resources
                .iter()
                .map(|r| (r.name.clone(), r.busy_total, r.reservations))
                .collect(),
            profile: None,
        };
        drop(st);
        record_engine_events(report.events);
        Ok(report)
    }
}

/// Hand the sink the batch still buffered when a run ends.
fn flush_emits(inner: &SimInner) {
    let Some(sink) = inner.sink.get() else { return };
    let open = inner.state.lock().emits.take();
    if let Some(mut batch) = open {
        batch.deliver(sink);
    }
}

/// The classic loop's next step ([`LoopState::step`], with no window).
fn step(inner: &SimInner, owner: bool) -> Step {
    let mut guard = inner.state.lock();
    let st = &mut *guard;
    let view = LoopState {
        clock: &inner.clock,
        queue: &mut st.queue,
        slots: &mut st.procs,
        ready: &mut st.ready,
        stats: &inner.stats,
        events: &mut st.events,
        execs: &mut st.execs,
        error: &mut st.error,
        panicked: st.fatal.is_some(),
        time_limit: st.time_limit,
        w_end: None,
        local: None,
    };
    view.step(owner)
}

/// A process thread whose process has just blocked (`me`) or exited
/// (`None`) carries the loop on from here.
fn carry(inner: &SimInner, me: Option<&Baton>) {
    hand_off(me, &inner.owner, step(inner, false));
}

/// One activation of the reactor at slot `key`, on the owner's thread: no
/// baton changes hands. Nothing else runs meanwhile, so no delivery can
/// slip in between the mailbox running dry and the reactor being parked.
fn run_reactor(inner: &SimInner, key: u32, body: ReactorBody) {
    let i = key as usize;
    let outcome = drive_reactor(body, || inner.state.lock().procs[i].mailbox.pop_front());
    let now = inner.clock.get();
    let mut st = inner.state.lock();
    if let Some(msg) = st.procs[i].settle_reactor(now, outcome) {
        st.fatal = Some(msg);
    }
}

fn spawn_process<F>(inner: &Arc<SimInner>, stack_size: usize, name: String, f: F) -> Pid
where
    F: FnOnce(ProcessCtx) + Send + 'static,
{
    let baton = Arc::new(Baton::new());
    let pid = {
        let mut st = inner.state.lock();
        let pid = Pid(st.procs.len() as u32);
        let kind = ProcKind::Thread {
            baton: Arc::clone(&baton),
            join: None,
        };
        st.procs.push(ProcSlot::new(name.clone(), kind));
        st.ready.push_back(pid.0);
        pid
    };
    let ctx = ProcessCtx {
        route: Route::Classic(Arc::clone(inner)),
        pid,
        baton: Some(Arc::clone(&baton)),
        stack_size,
    };
    let tinner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(name)
        .stack_size(stack_size)
        .spawn(move || {
            process_thread(
                &baton,
                move || f(ctx),
                |panic| {
                    let now = tinner.clock.get();
                    let mut st = tinner.state.lock();
                    if let Some(msg) = st.procs[pid.index()].exited(now, panic) {
                        st.fatal = Some(msg);
                    }
                    drop(st);
                    carry(&tinner, None);
                },
            )
        })
        .expect("failed to spawn process thread");
    if let ProcKind::Thread { join, .. } = &mut inner.state.lock().procs[pid.index()].kind {
        *join = Some(handle);
    }
    pid
}

fn spawn_reactor_process<I>(inner: &Arc<SimInner>, stack_size: usize, name: String, init: I) -> Pid
where
    I: FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
{
    let mut st = inner.state.lock();
    let pid = Pid(st.procs.len() as u32);
    let ctx = ProcessCtx {
        route: Route::Classic(Arc::clone(inner)),
        pid,
        baton: None,
        stack_size,
    };
    let body = ReactorBody::Init(Box::new(move || init(ctx)));
    st.procs
        .push(ProcSlot::new(name, ProcKind::Reactor(Some(body))));
    st.ready.push_back(pid.0);
    pid
}

impl ProcessCtx {
    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time (of this process's shard, on the sharded
    /// engine — shards are loosely synchronized within one lookahead
    /// window).
    pub fn now(&self) -> SimTime {
        match &self.route {
            Route::Classic(inner) => inner.clock.get(),
            Route::Sharded { cell, .. } => cell.clock.get(),
        }
    }

    /// Whether this run records a trace (fixed before `run()` starts).
    fn tracing(&self) -> bool {
        match &self.route {
            Route::Classic(inner) => inner.traced.load(Ordering::Relaxed),
            Route::Sharded { rt, .. } => shard::tracing(rt),
        }
    }

    /// Name this process was spawned with.
    pub fn name(&self) -> String {
        match &self.route {
            Route::Classic(inner) => inner.state.lock().procs[self.pid.index()].name.clone(),
            Route::Sharded { cell, idx, .. } => shard::ctx_name(cell, *idx),
        }
    }

    /// Block for `d` of virtual time.
    pub fn sleep(&self, d: SimDelta) {
        self.block_for(d, false);
    }

    /// Model computation for `d`: identical to [`sleep`](Self::sleep) but
    /// accounted in the process's `compute_time` (used by overlap metrics).
    pub fn compute(&self, d: SimDelta) {
        self.block_for(d, true);
    }

    /// The baton a blocking call parks this process's thread on. A
    /// reactor has neither, so `call` is a bug in it: panic before any
    /// state is touched.
    fn thread_baton(&self, call: &str) -> &Baton {
        self.baton.as_deref().unwrap_or_else(|| {
            panic!(
                "blocking ProcessCtx::{call} called from inline reactor '{}': a reactor \
                 runs to completion on the scheduler's thread and has no thread to park",
                self.name()
            )
        })
    }

    fn block_for(&self, d: SimDelta, is_compute: bool) {
        let baton = self.thread_baton(if is_compute { "compute" } else { "sleep" });
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, idx, .. } => {
                shard::ctx_block_for(cell, baton, *idx, self.pid, d, is_compute);
                return;
            }
        };
        let start = inner.clock.get();
        {
            let mut st = inner.state.lock();
            st.queue.push(start + d, EventKind::Wake(self.pid));
            let slot = &mut st.procs[self.pid.index()];
            slot.status = ProcStatus::Blocked(BlockReason::Sleep);
            if is_compute {
                slot.compute_time += d;
            }
        }
        carry(inner, Some(baton));
        if is_compute && self.tracing() {
            let end = inner.clock.get();
            if let Some(trace) = inner.state.lock().trace.as_mut() {
                trace.push_span(start, end, self.pid, "compute".into(), "compute".into());
            }
        }
    }

    /// Let every other ready process and same-instant event run, then
    /// continue. Time does not advance. (On the sharded engine, "every
    /// other" means this shard's processes; other shards run their own
    /// schedules.)
    pub fn yield_now(&self) {
        let baton = self.thread_baton("yield_now");
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, idx, .. } => {
                shard::ctx_yield(cell, baton, *idx);
                return;
            }
        };
        {
            let mut st = inner.state.lock();
            let pid = self.pid;
            st.procs[pid.index()].status = ProcStatus::Ready;
            st.ready.push_back(pid.0);
        }
        carry(inner, Some(baton));
    }

    /// Blocking receive: the next mailbox message, waiting if necessary.
    pub fn recv(&self) -> Payload {
        let baton = self.thread_baton("recv");
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, idx, .. } => {
                return shard::ctx_recv(cell, baton, *idx);
            }
        };
        loop {
            {
                let mut st = inner.state.lock();
                if let Some(msg) = st.procs[self.pid.index()].mailbox.pop_front() {
                    return msg;
                }
                st.procs[self.pid.index()].status = ProcStatus::Blocked(BlockReason::WaitMessage);
            }
            carry(inner, Some(baton));
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Payload> {
        match &self.route {
            Route::Classic(inner) => inner.state.lock().procs[self.pid.index()]
                .mailbox
                .pop_front(),
            Route::Sharded { cell, idx, .. } => shard::ctx_try_recv(cell, *idx),
        }
    }

    /// Number of messages currently queued.
    pub fn mailbox_len(&self) -> usize {
        match &self.route {
            Route::Classic(inner) => inner.state.lock().procs[self.pid.index()].mailbox.len(),
            Route::Sharded { cell, idx, .. } => shard::ctx_mailbox_len(cell, *idx),
        }
    }

    /// Deliver `payload` to `to` after `delay` of virtual time.
    ///
    /// On the sharded engine a delivery to a process on another shard
    /// must have `delay >= ` the link lookahead (the model's minimum
    /// cross-node latency) — the engine asserts this, because it is
    /// exactly what makes speculation-free parallel execution safe.
    pub fn deliver(&self, to: Pid, delay: SimDelta, payload: Payload) {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { rt, cell, .. } => {
                shard::ctx_deliver(rt, cell, to, delay, payload);
                return;
            }
        };
        let at = inner.clock.get() + delay;
        inner
            .state
            .lock()
            .queue
            .push(at, EventKind::Deliver(to, payload));
    }

    /// Deliver `payload` back to the calling process after `delay` of
    /// virtual time — a one-shot timer. The process observes it as an
    /// ordinary mailbox message, so timers interleave deterministically
    /// with network deliveries (retransmission timeouts are the canonical
    /// use).
    pub fn deliver_self(&self, delay: SimDelta, payload: Payload) {
        self.deliver(self.pid, delay, payload);
    }

    /// Deliver `payload` to `to` at absolute time `at` (clamped to now).
    /// Cross-shard deliveries must satisfy `at >= now + lookahead`.
    pub fn deliver_at(&self, to: Pid, at: SimTime, payload: Payload) {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { rt, cell, .. } => {
                shard::ctx_deliver_at(rt, cell, to, at, payload);
                return;
            }
        };
        let at = at.max(inner.clock.get());
        inner
            .state
            .lock()
            .queue
            .push(at, EventKind::Deliver(to, payload));
    }

    /// Create a FIFO resource at runtime. On the sharded engine the
    /// resource belongs to this process's shard; only same-shard
    /// processes may reserve it.
    pub fn create_resource(&self, name: impl Into<String>) -> ResourceId {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, .. } => {
                return shard::ctx_create_resource(cell, name.into());
            }
        };
        let mut st = inner.state.lock();
        let id = ResourceId(st.resources.len() as u32);
        st.resources.push(ResourceState::new(name.into()));
        id
    }

    /// Reserve `res` for `dur`, starting no earlier than now. Returns the
    /// granted `(start, end)` window. Does not block the caller.
    pub fn reserve(&self, res: ResourceId, dur: SimDelta) -> (SimTime, SimTime) {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, .. } => {
                return shard::ctx_reserve(cell, res, None, dur);
            }
        };
        let now = inner.clock.get();
        inner.state.lock().resources[res.0 as usize].reserve(now, dur)
    }

    /// Reserve `res` for `dur`, starting no earlier than `earliest` (which
    /// may be in the future — e.g. after a posting-overhead delay).
    pub fn reserve_from(
        &self,
        res: ResourceId,
        earliest: SimTime,
        dur: SimDelta,
    ) -> (SimTime, SimTime) {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, .. } => {
                return shard::ctx_reserve(cell, res, Some(earliest), dur);
            }
        };
        let from = earliest.max(inner.clock.get());
        inner.state.lock().resources[res.0 as usize].reserve(from, dur)
    }

    /// Append a trace record (no-op unless tracing is enabled). The
    /// label is rendered only on a traced run, so a caller can pass
    /// `format_args!(..)` and pay nothing for it otherwise.
    pub fn trace(&self, label: impl std::fmt::Display) {
        if !self.tracing() {
            return;
        }
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, .. } => {
                shard::ctx_trace(cell, self.pid, label.to_string());
                return;
            }
        };
        let now = inner.clock.get();
        if let Some(trace) = inner.state.lock().trace.as_mut() {
            trace.push(now, self.pid, label.to_string());
        }
    }

    /// Open a typed span at the current instant (no-op unless tracing is
    /// enabled). Close it with [`span_end`](Self::span_end); the span is
    /// recorded only then, covering the virtual time in between.
    pub fn span_begin(&self, cat: impl Into<String>, name: impl Into<String>) -> OpenSpan {
        OpenSpan {
            start: self.tracing().then(|| self.now()),
            cat: cat.into(),
            name: name.into(),
        }
    }

    /// Close a span opened by [`span_begin`](Self::span_begin), appending
    /// it to the trace. A span opened while tracing was disabled is
    /// dropped silently.
    pub fn span_end(&self, span: OpenSpan) {
        let Some(start) = span.start else { return };
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { cell, .. } => {
                shard::ctx_span_end(cell, self.pid, start, span.cat, span.name);
                return;
            }
        };
        let end = inner.clock.get();
        if let Some(trace) = inner.state.lock().trace.as_mut() {
            trace.push_span(start, end, self.pid, span.cat, span.name);
        }
    }

    /// Publish a structured event to the installed [`EventSink`], if any.
    ///
    /// Delivery is batched, in emission order, and complete by the time
    /// `run()` returns. Without a sink an emit is a no-op that takes no
    /// lock. On the classic engine the event is cloned into a buffer in
    /// the simulation state; a batch goes to the sink, with the state
    /// unlocked, when it holds [`EMIT_BATCH`](crate::EMIT_BATCH) events,
    /// when an event of another type arrives, and at the end of the run.
    /// On the sharded engine the event is boxed into the shard's buffer
    /// and the sink runs on the coordinator thread between windows, in
    /// canonical `(time, shard, sequence)` order — identical at every
    /// thread count.
    pub fn emit<E: Any + Clone + Send>(&self, event: &E) {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { rt, cell, .. } => {
                if shard::sink_installed(rt) {
                    shard::ctx_emit(cell, self.pid, Box::new(event.clone()));
                }
                return;
            }
        };
        let Some(sink) = inner.sink.get() else { return };
        let now = inner.clock.get();
        let full = {
            let mut st = inner.state.lock();
            st.emits.push(now, self.pid, event)
        };
        if let Some(mut batch) = full {
            batch.deliver(sink);
            inner.state.lock().emits.recycle(batch);
        }
    }

    /// The run's counter table (this shard's, on the sharded engine).
    fn stats(&self) -> &StatTable {
        match &self.route {
            Route::Classic(inner) => &inner.stats,
            Route::Sharded { cell, .. } => &cell.stats,
        }
    }

    /// Add `n` to `key`'s counter. Takes no lock: the report's
    /// [`Stats`] are assembled from the run's counter table when the run
    /// ends, and a key bumped only by zero still appears there.
    pub fn stat_incr(&self, key: &StatKey, n: u64) {
        self.stats().incr(key, n);
    }

    /// Accumulate virtual time under `key`.
    pub fn stat_time(&self, key: &StatKey, d: SimDelta) {
        self.stats().add_time(key, d);
    }

    /// Read `key`'s counter so far (mainly for tests). Sharded engine:
    /// reads this shard's slice of the counter only.
    pub fn stat_counter(&self, key: &StatKey) -> u64 {
        self.stats().counter(key)
    }

    /// Uniform random value in `[0, bound)` from the simulation's RNG
    /// (this shard's private stream, on the sharded engine).
    pub fn gen_range(&self, bound: u64) -> u64 {
        match &self.route {
            Route::Classic(inner) => inner.state.lock().rng.gen_range(bound),
            Route::Sharded { cell, .. } => shard::ctx_gen_range(cell, bound),
        }
    }

    /// Uniform random f64 in `[0, 1)` from the simulation's RNG.
    pub fn gen_f64(&self) -> f64 {
        match &self.route {
            Route::Classic(inner) => inner.state.lock().rng.gen_f64(),
            Route::Sharded { cell, .. } => shard::ctx_gen_f64(cell),
        }
    }

    /// Spawn another process from inside the simulation. It becomes
    /// runnable at the current instant.
    ///
    /// Classic engine only: the sharded engine fixes the process
    /// population before `run()` (pid assignment from concurrently
    /// running shards could depend on thread timing) and panics here.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcessCtx) + Send + 'static,
    {
        let inner = match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { .. } => panic!(
                "dynamic spawn is not supported by the sharded engine; \
                 spawn every process with spawn_on() before run()"
            ),
        };
        spawn_process(inner, self.stack_size, name.into(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_simulation_completes() {
        let sim = Simulation::new(0);
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn single_process_computes() {
        let mut sim = Simulation::new(0);
        sim.spawn("p", |ctx| {
            ctx.compute(SimDelta::from_us(10));
            ctx.compute(SimDelta::from_us(5));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_us_f64(), 15.0);
        assert_eq!(report.procs[0].compute_time, SimDelta::from_us(15));
    }

    #[test]
    fn message_passing_advances_time() {
        let mut sim = Simulation::new(0);
        let got = Arc::new(AtomicU64::new(0));
        let got2 = Arc::clone(&got);
        let receiver = sim.spawn("rx", move |ctx| {
            let msg = ctx.recv();
            let v = *msg.downcast::<u64>().unwrap();
            got2.store(v, Ordering::SeqCst);
            assert_eq!(ctx.now(), SimTime::ZERO + SimDelta::from_us(3));
        });
        sim.spawn("tx", move |ctx| {
            ctx.deliver(receiver, SimDelta::from_us(3), Box::new(77u64));
        });
        let report = sim.run().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 77);
        assert_eq!(report.end_time, SimTime::ZERO + SimDelta::from_us(3));
    }

    #[test]
    fn mailbox_is_fifo() {
        let mut sim = Simulation::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let order2 = Arc::clone(&order);
        let rx = sim.spawn("rx", move |ctx| {
            for _ in 0..3 {
                let v = *ctx.recv().downcast::<u32>().unwrap();
                order2.lock().push(v);
            }
        });
        sim.spawn("tx", move |ctx| {
            // Same delivery instant: sequence numbers keep FIFO order.
            ctx.deliver(rx, SimDelta::from_ns(5), Box::new(1u32));
            ctx.deliver(rx, SimDelta::from_ns(5), Box::new(2u32));
            ctx.deliver(rx, SimDelta::from_ns(5), Box::new(3u32));
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Simulation::new(0);
        sim.spawn("stuck", |ctx| {
            let _ = ctx.recv(); // nobody ever sends
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, "stuck");
                assert_eq!(blocked[0].1, BlockReason::WaitMessage);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_is_enforced() {
        let mut sim = Simulation::new(0);
        sim.set_time_limit(SimTime::ZERO + SimDelta::from_us(1));
        sim.spawn("slow", |ctx| ctx.sleep(SimDelta::from_ms(1)));
        match sim.run() {
            Err(SimError::TimeLimitExceeded { .. }) => {}
            other => panic!("expected time limit error, got {other:?}"),
        }
    }

    #[test]
    fn a_livelock_is_detected_by_a_carrying_process_thread() {
        let mut sim = Simulation::new(0);
        // Alone in the loop, the spinner is always its own successor: its
        // thread takes every step and the owner only hears of the error.
        sim.spawn("spinner", |ctx| loop {
            ctx.yield_now();
        });
        // Wind the guard forward: the real bound takes seconds to reach.
        sim.inner.state.lock().execs = crate::process::LIVELOCK_LIMIT - 1000;
        match sim.run() {
            Err(SimError::Livelock { now }) => assert_eq!(now, SimTime::ZERO),
            other => panic!("expected a livelock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "simulated process 'boom' panicked: bang")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new(0);
        sim.spawn("boom", |_ctx| panic!("bang"));
        let _ = sim.run();
    }

    #[test]
    fn dynamic_spawn_runs() {
        let mut sim = Simulation::new(0);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        sim.spawn("parent", move |ctx| {
            ctx.sleep(SimDelta::from_us(2));
            let h = Arc::clone(&hits2);
            ctx.spawn("child", move |cctx| {
                cctx.sleep(SimDelta::from_us(1));
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        let report = sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(report.end_time.as_us_f64(), 3.0);
    }

    #[test]
    fn resource_reservation_serializes_transfers() {
        let mut sim = Simulation::new(0);
        let windows = Arc::new(Mutex::new(Vec::new()));
        let w2 = Arc::clone(&windows);
        sim.spawn("poster", move |ctx| {
            let nic = ctx.create_resource("nic");
            let a = ctx.reserve(nic, SimDelta::from_us(4));
            let b = ctx.reserve(nic, SimDelta::from_us(4));
            w2.lock().push((a, b));
        });
        sim.run().unwrap();
        let (a, b) = windows.lock()[0];
        assert_eq!(a.1, b.0, "second reservation starts when first ends");
    }

    #[test]
    fn yield_now_interleaves_same_instant() {
        let mut sim = Simulation::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        sim.spawn("a", move |ctx| {
            l1.lock().push("a1");
            ctx.yield_now();
            l1.lock().push("a2");
        });
        sim.spawn("b", move |ctx| {
            l2.lock().push("b1");
            ctx.yield_now();
            l2.lock().push("b2");
        });
        sim.run().unwrap();
        assert_eq!(*log.lock(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn trace_records_are_collected() {
        let mut sim = Simulation::new(0);
        sim.enable_trace();
        sim.spawn("p", |ctx| {
            ctx.trace("step.one");
            ctx.sleep(SimDelta::from_us(1));
            ctx.trace("step.two");
        });
        let report = sim.run().unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.records().len(), 2);
        assert_eq!(trace.records()[1].at.as_us_f64(), 1.0);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn run_once(seed: u64) -> String {
            let mut sim = Simulation::new(seed);
            sim.enable_trace();
            for i in 0..4 {
                sim.spawn(format!("p{i}"), move |ctx| {
                    let jitter = ctx.gen_range(1000);
                    ctx.sleep(SimDelta::from_ns(jitter));
                    ctx.trace(format!("done.{i}"));
                });
            }
            sim.run().unwrap().trace.unwrap().render()
        }
        assert_eq!(run_once(7), run_once(7));
        assert_ne!(run_once(7), run_once(8));
    }

    #[test]
    fn stats_visible_in_report() {
        let mut sim = Simulation::new(0);
        sim.spawn("p", |ctx| {
            static COUNTER: StatKey = StatKey::new("my.counter");
            static TIME: StatKey = StatKey::new("my.time");
            ctx.stat_incr(&COUNTER, 3);
            ctx.stat_time(&TIME, SimDelta::from_us(2));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.stats.counter("my.counter"), 3);
        assert_eq!(report.stats.time("my.time"), SimDelta::from_us(2));
    }

    #[test]
    fn deliver_to_finished_process_is_dropped() {
        let mut sim = Simulation::new(0);
        let rx = sim.spawn("short", |_ctx| {});
        sim.spawn("late", move |ctx| {
            ctx.sleep(SimDelta::from_us(1));
            ctx.deliver(rx, SimDelta::from_us(1), Box::new(1u8));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 1);
    }

    #[test]
    fn emitted_events_reach_the_sink_with_time_and_pid() {
        let mut sim = Simulation::new(0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        sim.set_event_sink(Arc::new(move |batch| {
            for e in batch {
                if let Some(v) = e.event.downcast_ref::<u64>() {
                    seen2.lock().push((e.at, e.pid, *v));
                }
            }
        }));
        let p = sim.spawn("emitter", |ctx| {
            ctx.emit(&1u64);
            ctx.sleep(SimDelta::from_us(2));
            ctx.emit(&2u64);
            ctx.emit(&"ignored: not a u64");
        });
        sim.run().unwrap();
        let seen = seen.lock();
        assert_eq!(
            *seen,
            vec![
                (SimTime::ZERO, p, 1),
                (SimTime::ZERO + SimDelta::from_us(2), p, 2),
            ]
        );
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let mut sim = Simulation::new(0);
        sim.spawn("quiet", |ctx| ctx.emit(&7u32));
        sim.run().unwrap();
    }

    #[test]
    fn many_processes_scale() {
        let mut sim = Simulation::new(0);
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..300 {
            let c = Arc::clone(&count);
            sim.spawn(format!("p{i}"), move |ctx| {
                ctx.sleep(SimDelta::from_ns(i));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 300);
    }
}
