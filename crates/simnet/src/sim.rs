//! The simulation kernel: scheduler, process control, and the public
//! [`Simulation`] / [`ProcessCtx`] API.
//!
//! # Execution model
//!
//! At most one thread runs at a time: the loop's owner (the caller of
//! [`Simulation::run`]) or exactly one process thread. Control is handed
//! over through per-thread batons; a future process
//! ([`Simulation::spawn_future`]) and an inline reactor
//! ([`Simulation::spawn_reactor`]) have no thread: the owner polls or
//! calls them. The loop:
//!
//! 1. runs every `Ready` process until it blocks (a future: until it is
//!    pending; a reactor: until its mailbox is empty),
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
//! `compute`, `recv`, `yield_now`, `block_on`) or an `.await`: the next
//! process to run would block on the mutex while the scheduler waits for
//! it to yield, wedging the whole simulation (a real deadlock of OS
//! threads, not a simulated one).

use std::any::Any;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::emit::{EmitBuffer, EventSink};
use crate::event::{EventKind, EventQueue};
use crate::process::{
    drive, drive_reactor, hand_off, process_thread, take_leftovers, Baton, BlockReason, FutureInit,
    Futures, LocalFuture, LoopState, Payload, Pid, ProcKind, ProcSlot, ProcStatus, Reactor,
    ReactorBody, Step,
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

/// Name of the environment variable the scale benches read for their
/// worker-thread count (`bench-harness`'s `--threads` fallback). The
/// engine itself reads no environment: [`Simulation::set_threads`] is
/// the only way to set a sharded simulation's worker count.
pub const SIMNET_THREADS_ENV: &str = "SIMNET_THREADS";

/// Refuse `call`, which only the classic loop supports. The sharded
/// runtime runs the scale workloads (`workloads::scale_alltoall` /
/// `scale_stencil`): thread-backed processes, deliveries, emits, stats
/// and RNG, nothing more.
fn sharded_refuses(call: &str) -> ! {
    panic!(
        "{call} is not supported by the sharded engine, which runs only the scale \
         workloads; build this simulation with spawn() on the classic loop"
    )
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
    /// Worker threads for the sharded engine.
    threads: usize,
    /// Yield-injection seed for the sharded engine (off when `None`).
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
    /// The baton a thread-backed process parks on; for a future process
    /// or an inline reactor, which run on the loop owner's thread and
    /// have none, the name of their kind.
    pub(crate) baton: Result<Arc<Baton>, &'static str>,
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
            threads: 1,
            chaos: None,
            lookahead: shard::LookaheadCfg::new(SimDelta::from_us(1)),
            sharded: None,
            profile: false,
            sink: None,
        }
    }

    /// Enable trace collection (off by default; it allocates per record).
    /// Classic loop only: a sharded simulation refuses it.
    pub fn enable_trace(&mut self) {
        if self.sharded.is_some() {
            sharded_refuses("Simulation::enable_trace");
        }
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
    /// The engine runs the scale workloads and refuses what they do not
    /// use: inline reactors, FIFO resources and tracing.
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
    /// Classic loop only: a sharded simulation refuses it.
    pub fn spawn_reactor<I>(&mut self, name: impl Into<String>, init: I) -> Pid
    where
        I: FnOnce(ProcessCtx) -> Option<Reactor> + Send + 'static,
    {
        if self.sharded.is_some() {
            sharded_refuses("Simulation::spawn_reactor");
        }
        spawn_inline(
            &self.inner,
            self.stack_size,
            name.into(),
            "inline reactor",
            |ctx| ProcKind::Reactor(Some(ReactorBody::Init(Box::new(move || init(ctx))))),
        )
    }

    /// Spawn a **future process**: a pid, a name, a mailbox and a
    /// [`ProcReport`] entry like any other, but no thread. `f` runs at the
    /// first activation, on [`run`](Self::run)'s thread, and returns the
    /// (not necessarily `Send`) body, which the scheduler then polls
    /// wherever it would hand a thread the baton. The body waits only by
    /// awaiting the `ProcessCtx` `*_async` waits (pending on anything
    /// else is reported as a panic of the process); the blocking calls
    /// panic. Classic loop only: a sharded simulation refuses it.
    pub fn spawn_future<I, F>(&mut self, name: impl Into<String>, f: I) -> Pid
    where
        I: FnOnce(ProcessCtx) -> F + Send + 'static,
        F: Future<Output = ()> + 'static,
    {
        if self.sharded.is_some() {
            sharded_refuses("Simulation::spawn_future");
        }
        spawn_inline(
            &self.inner,
            self.stack_size,
            name.into(),
            "future process",
            |ctx| ProcKind::Future(Some(Box::new(move || Box::pin(f(ctx)) as LocalFuture))),
        )
    }

    /// The sharded runtime, switching the simulation over to it on first
    /// use.
    fn sharded_rt(&mut self) -> &Arc<shard::ShardedRt> {
        if self.sharded.is_none() {
            if self.inner.traced.load(Ordering::Relaxed) {
                sharded_refuses("Simulation::enable_trace");
            }
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

    /// Worker threads for the sharded engine (default 1). Purely a
    /// speed knob: results are identical at any value.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
    }

    /// Seed the sharded engine's OS-level yield-injection shim (tests
    /// only). Workers randomly yield between events to stress that
    /// thread interleaving cannot affect results.
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

    /// Create a FIFO resource (see [`crate::ResourceId`]). Classic loop
    /// only: a sharded simulation refuses it.
    pub fn create_resource(&mut self, name: impl Into<String>) -> ResourceId {
        if self.sharded.is_some() {
            sharded_refuses("Simulation::create_resource");
        }
        new_resource(&self.inner, name.into())
    }

    /// Run to completion. Returns the report, or an error describing a
    /// deadlock / livelock / time-limit overrun. Panics raised inside a
    /// simulated process are re-raised here with the process name attached.
    pub fn run(self) -> Result<Report, SimError> {
        if let Some(rt) = &self.sharded {
            let time_limit = self.inner.state.lock().time_limit;
            let report = shard::run_sharded(
                rt,
                shard::RunOpts {
                    seed: self.seed,
                    threads: self.threads,
                    time_limit,
                    sink: self.sink.clone(),
                    lookahead: self.lookahead.clone(),
                    chaos: self.chaos,
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
        let mut futures = Futures::default();
        drive(
            &inner.owner,
            || step(&inner, true),
            |next| match next {
                Step::Reactor(key, body) => run_reactor(&inner, key, body),
                Step::Poll(key, init) => poll_future(&inner, &mut futures, key, init),
                Step::Process(_) | Step::Owner => unreachable!("drive runs these itself"),
            },
        );
        // The run is over, however it ended: free what still-waiting
        // reactors and futures hold, and let no thread outlive it. Then
        // the sink gets what is still buffered, before any error or panic
        // surfaces.
        let left = take_leftovers(&mut inner.state.lock().procs);
        drop(futures);
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

/// Poll the future process at slot `key`, on the owner's thread. A body
/// left pending must have set its process's status through a
/// `ProcessCtx` wait; one that returned or panicked finishes the
/// process.
fn poll_future(inner: &SimInner, futures: &mut Futures, key: u32, init: Option<FutureInit>) {
    let i = key as usize;
    let panic = match futures.poll(key, init) {
        Poll::Pending if inner.state.lock().procs[i].status != ProcStatus::Running => return,
        Poll::Pending => Some(
            "its future is pending on something other than a ProcessCtx wait \
             (recv_async, sleep_async, compute_async, yield_async)"
                .to_string(),
        ),
        Poll::Ready(end) => end.err(),
    };
    let now = inner.clock.get();
    let mut st = inner.state.lock();
    if let Some(msg) = st.procs[i].exited(now, panic) {
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
        baton: Ok(Arc::clone(&baton)),
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

/// Spawn a process the loop's owner runs itself (a reactor or a future,
/// by `kind`), with a context whose blocking calls name that kind.
fn spawn_inline(
    inner: &Arc<SimInner>,
    stack_size: usize,
    name: String,
    kind: &'static str,
    body: impl FnOnce(ProcessCtx) -> ProcKind,
) -> Pid {
    let mut st = inner.state.lock();
    let pid = Pid(st.procs.len() as u32);
    let ctx = ProcessCtx {
        route: Route::Classic(Arc::clone(inner)),
        pid,
        baton: Err(kind),
        stack_size,
    };
    st.procs.push(ProcSlot::new(name, body(ctx)));
    st.ready.push_back(pid.0);
    pid
}

/// A new FIFO resource on the classic engine.
fn new_resource(inner: &SimInner, name: String) -> ResourceId {
    let mut st = inner.state.lock();
    let id = ResourceId(st.resources.len() as u32);
    st.resources.push(ResourceState::new(name));
    id
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

    /// The classic engine behind this context, for `call`, which only
    /// the classic loop supports: a sharded process panics here.
    fn classic(&self, call: &str) -> &Arc<SimInner> {
        match &self.route {
            Route::Classic(inner) => inner,
            Route::Sharded { .. } => sharded_refuses(call),
        }
    }

    /// The classic engine behind this context if this run records a
    /// trace (fixed before `run()` starts; a sharded run never does).
    fn traced(&self) -> Option<&SimInner> {
        match &self.route {
            Route::Classic(inner) => inner.traced.load(Ordering::Relaxed).then_some(&**inner),
            Route::Sharded { .. } => None,
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
        self.blocking("sleep", self.sleep_async(d));
    }

    /// Model computation for `d`: identical to [`sleep`](Self::sleep) but
    /// accounted in the process's `compute_time` (used by overlap metrics).
    pub fn compute(&self, d: SimDelta) {
        self.blocking("compute", self.compute_async(d));
    }

    /// Let every other ready process and same-instant event run, then
    /// continue. Time does not advance. (On the sharded engine, "every
    /// other" means this shard's processes; other shards run their own
    /// schedules.)
    pub fn yield_now(&self) {
        self.blocking("yield_now", self.yield_async());
    }

    /// Blocking receive: the next mailbox message, waiting if necessary.
    pub fn recv(&self) -> Payload {
        self.blocking("recv", self.recv_async())
    }

    /// Run `fut` to completion on this process's thread: poll it, and
    /// each time it is pending (it awaited one of this context's waits),
    /// park until the process is ready again. The bridge from
    /// thread-backed code to an `async` API; a future process awaits
    /// instead, and calling this from one (or from a reactor) panics.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        self.blocking("block_on", fut)
    }

    /// [`sleep`](Self::sleep), for a future process: the wait is armed at
    /// the first poll and completes `d` later.
    pub fn sleep_async(&self, d: SimDelta) -> impl Future<Output = ()> + '_ {
        self.wait_for(d, false)
    }

    /// [`compute`](Self::compute), for a future process.
    pub fn compute_async(&self, d: SimDelta) -> impl Future<Output = ()> + '_ {
        self.wait_for(d, true)
    }

    /// [`yield_now`](Self::yield_now), for a future process.
    pub fn yield_async(&self) -> impl Future<Output = ()> + '_ {
        let mut yielded = false;
        poll_fn(move |_| {
            if yielded {
                return Poll::Ready(());
            }
            yielded = true;
            match &self.route {
                Route::Classic(inner) => {
                    let mut st = inner.state.lock();
                    st.procs[self.pid.index()].status = ProcStatus::Ready;
                    st.ready.push_back(self.pid.0);
                }
                Route::Sharded { cell, idx, .. } => shard::ctx_ready_again(cell, *idx),
            }
            Poll::Pending
        })
    }

    /// [`recv`](Self::recv), for a future process: the next mailbox
    /// message.
    pub fn recv_async(&self) -> impl Future<Output = Payload> + '_ {
        poll_fn(move |_| match &self.route {
            Route::Classic(inner) => {
                let mut st = inner.state.lock();
                let slot = &mut st.procs[self.pid.index()];
                match slot.mailbox.pop_front() {
                    Some(msg) => Poll::Ready(msg),
                    None => {
                        slot.status = ProcStatus::Blocked(BlockReason::WaitMessage);
                        Poll::Pending
                    }
                }
            }
            Route::Sharded { cell, idx, .. } => shard::ctx_poll_recv(cell, *idx),
        })
    }

    /// Sleep or compute for `d`: the first poll schedules the wake-up
    /// (and books compute time), the poll it readies completes.
    fn wait_for(&self, d: SimDelta, is_compute: bool) -> impl Future<Output = ()> + '_ {
        let mut start = None;
        poll_fn(move |_| {
            let Some(start) = start else {
                let now = self.now();
                start = Some(now);
                match &self.route {
                    Route::Classic(inner) => {
                        let mut st = inner.state.lock();
                        st.queue.push(now + d, EventKind::Wake(self.pid));
                        let slot = &mut st.procs[self.pid.index()];
                        slot.status = ProcStatus::Blocked(BlockReason::Sleep);
                        if is_compute {
                            slot.compute_time += d;
                        }
                    }
                    Route::Sharded { cell, idx, .. } => {
                        shard::ctx_arm_wake(cell, *idx, self.pid, d, is_compute)
                    }
                }
                return Poll::Pending;
            };
            if let Some(inner) = self.traced().filter(|_| is_compute) {
                let end = inner.clock.get();
                if let Some(trace) = inner.state.lock().trace.as_mut() {
                    trace.push_span(start, end, self.pid, "compute".into(), "compute".into());
                }
            }
            Poll::Ready(())
        })
    }

    /// The one check every blocking call makes before it touches any
    /// state: only a thread has somewhere to park. Then poll `fut`,
    /// parking the thread — and carrying the loop on — each time it is
    /// pending.
    fn blocking<F: Future>(&self, call: &str, fut: F) -> F::Output {
        let baton = self.baton.as_ref().unwrap_or_else(|kind| {
            panic!(
                "blocking ProcessCtx::{call} called from {kind} '{}': it runs on the \
                 scheduler's thread and has no thread to park",
                self.name()
            )
        });
        let mut fut = pin!(fut);
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
            match &self.route {
                Route::Classic(inner) => {
                    debug_assert_ne!(
                        inner.state.lock().procs[self.pid.index()].status,
                        ProcStatus::Running,
                        "ProcessCtx::{call}: pending on something other than a ProcessCtx wait"
                    );
                    carry(inner, Some(baton));
                }
                Route::Sharded { cell, .. } => shard::carry(cell, Some(baton)),
            }
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

    /// Create a FIFO resource at runtime. Classic loop only: a process
    /// on the sharded engine panics here.
    pub fn create_resource(&self, name: impl Into<String>) -> ResourceId {
        new_resource(self.classic("ProcessCtx::create_resource"), name.into())
    }

    /// Reserve `res` for `dur`, starting no earlier than now. Returns the
    /// granted `(start, end)` window. Does not block the caller.
    pub fn reserve(&self, res: ResourceId, dur: SimDelta) -> (SimTime, SimTime) {
        let inner = self.classic("ProcessCtx::reserve");
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
        let inner = self.classic("ProcessCtx::reserve_from");
        let from = earliest.max(inner.clock.get());
        inner.state.lock().resources[res.0 as usize].reserve(from, dur)
    }

    /// Append a trace record (no-op unless tracing is enabled). The
    /// label is rendered only on a traced run, so a caller can pass
    /// `format_args!(..)` and pay nothing for it otherwise.
    pub fn trace(&self, label: impl std::fmt::Display) {
        let Some(inner) = self.traced() else { return };
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
            start: self.traced().map(|inner| inner.clock.get()),
            cat: cat.into(),
            name: name.into(),
        }
    }

    /// Close a span opened by [`span_begin`](Self::span_begin), appending
    /// it to the trace. A span opened while tracing was disabled is
    /// dropped silently.
    pub fn span_end(&self, span: OpenSpan) {
        let Some(start) = span.start else { return };
        let Some(inner) = self.traced() else { return };
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
