//! The simulation kernel: scheduler, process control, and the public
//! [`Simulation`] / [`ProcessCtx`] API.
//!
//! # Execution model
//!
//! At most one thread runs at a time: the loop's owner (the caller of
//! [`Simulation::run`]) or exactly one process thread. A future process
//! ([`Simulation::spawn_future`]) has no thread: the owner polls it.
//! Control is handed to a thread-backed process ([`Simulation::spawn`])
//! through per-thread batons. The loop:
//!
//! 1. runs every `Ready` process until it blocks (a future: until it is
//!    pending),
//! 2. pops the earliest pending event, advances the clock, and handles it
//!    (which may make processes `Ready` again),
//! 3. repeats until no events remain.
//!
//! A process thread that blocks takes the loop's next step itself and
//! wakes its successor directly; the owner sleeps until a step needs it
//! (a future is next, the run is over, something failed).
//!
//! If processes are still blocked when the queue drains, the run reports a
//! **deadlock** naming them. If the clock stops advancing while processes
//! keep re-readying each other, the run reports a **livelock**.
//!
//! # Locking rule for upper layers
//!
//! Simulated code often shares state through an `Arc<Mutex<World>>`. Never
//! hold such a lock across a blocking [`ProcessCtx`] call (`sleep`,
//! `compute`, `recv`, `yield_now`) or an `.await`: the next
//! process to run would block on the mutex while the scheduler waits for
//! it to yield, wedging the whole simulation (a real deadlock of OS
//! threads, not a simulated one).

use std::any::Any;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::emit::{EmitBuffer, EventSink};
use crate::event::{EventKind, EventQueue};
use crate::process::{
    drive, hand_off, process_thread, take_leftovers, Baton, BlockReason, FutureInit, Futures,
    LocalFuture, LoopState, Payload, Pid, ProcKind, ProcSlot, ProcStatus, Step,
};
use crate::resource::{ResourceId, ResourceState};
use crate::rng::SimRng;
use crate::stats::{StatKey, StatTable, Stats};
use crate::time::{Clock, SimDelta, SimTime};
use crate::trace::Trace;

/// Name of a worker-thread environment variable that launchers may
/// still set (the protocol benchmark pins it to 1 for its children).
/// Nothing reads it: a simulation has one loop, run on the thread that
/// calls [`Simulation::run`], so there is no worker count to choose.
pub const SIMNET_THREADS_ENV: &str = "SIMNET_THREADS";

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
    /// When the process closure or future body returned.
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
    /// future or thread-backed (so its length counts processes, not OS
    /// threads).
    pub procs: Vec<ProcReport>,
    /// Number of events handled.
    pub events: u64,
    /// Per-resource utilization: `(name, total busy time, reservations)`.
    pub resources: Vec<(String, SimDelta, u64)>,
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
/// sim.spawn_future("worker", async |ctx| {
///     ctx.compute_async(SimDelta::from_us(5)).await;
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, simnet::SimTime::ZERO + SimDelta::from_us(5));
/// ```
pub struct Simulation {
    inner: Arc<SimInner>,
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

/// Stack size of a process thread.
const STACK_SIZE: usize = 1 << 20;

/// Handle given to each simulated process. Cheap to clone.
#[derive(Clone)]
pub struct ProcessCtx {
    pub(crate) inner: Arc<SimInner>,
    pub(crate) pid: Pid,
    /// The baton a thread-backed process parks on; `None` for a future
    /// process, which runs on the loop owner's thread.
    pub(crate) baton: Option<Arc<Baton>>,
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

    /// Install an observer for [`ProcessCtx::emit`] events (e.g. a protocol
    /// conformance checker). At most one sink; later calls replace it.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        self.sink = Some(sink);
    }

    /// Spawn a thread-backed process: `f` runs on an OS thread of its own
    /// and waits in blocking calls. It becomes runnable at time zero.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcessCtx) + Send + 'static,
    {
        spawn_process(&self.inner, name.into(), f)
    }

    /// Spawn a **future process**: a pid, a name, a mailbox and a
    /// [`ProcReport`] entry like any other, but no thread. `f` runs at the
    /// first activation, on [`run`](Self::run)'s thread, and returns the
    /// (not necessarily `Send`) body, which the scheduler then polls
    /// wherever it would hand a thread the baton. The body waits only by
    /// awaiting the `ProcessCtx` `*_async` waits (pending on anything
    /// else is reported as a panic of the process); the blocking calls
    /// panic.
    pub fn spawn_future<I, F>(&mut self, name: impl Into<String>, f: I) -> Pid
    where
        I: FnOnce(ProcessCtx) -> F + Send + 'static,
        F: Future<Output = ()> + 'static,
    {
        let mut st = self.inner.state.lock();
        let pid = Pid(st.procs.len() as u32);
        let ctx = ProcessCtx {
            inner: Arc::clone(&self.inner),
            pid,
            baton: None,
        };
        let init: FutureInit = Box::new(move || Box::pin(f(ctx)) as LocalFuture);
        st.procs
            .push(ProcSlot::new(name.into(), ProcKind::Future(Some(init))));
        st.ready.push_back(pid.0);
        pid
    }

    /// Create a FIFO resource (see [`crate::ResourceId`]).
    pub fn create_resource(&mut self, name: impl Into<String>) -> ResourceId {
        new_resource(&self.inner, name.into())
    }

    /// Run to completion. Returns the report, or an error describing a
    /// deadlock / livelock / time-limit overrun. Panics raised inside a
    /// simulated process are re-raised here with the process name attached.
    pub fn run(self) -> Result<Report, SimError> {
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
                Step::Poll(key, init) => poll_future(&inner, &mut futures, key, init),
                Step::Process(_) | Step::Owner => unreachable!("drive runs these itself"),
            },
        );
        // The run is over, however it ended: free what still-waiting
        // futures hold, and let no thread outlive it. Then
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
        };
        drop(st);
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

/// The loop's next step ([`LoopState::step`]).
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
    };
    view.step(owner)
}

/// A process thread whose process has just blocked (`me`) or exited
/// (`None`) carries the loop on from here.
fn carry(inner: &SimInner, me: Option<&Baton>) {
    hand_off(me, &inner.owner, step(inner, false));
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

fn spawn_process<F>(inner: &Arc<SimInner>, name: String, f: F) -> Pid
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
        inner: Arc::clone(inner),
        pid,
        baton: Some(Arc::clone(&baton)),
    };
    let tinner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(name)
        .stack_size(STACK_SIZE)
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

/// A new FIFO resource.
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.get()
    }

    /// The engine behind this context if this run records a trace (fixed
    /// before `run()` starts).
    fn traced(&self) -> Option<&SimInner> {
        self.inner
            .traced
            .load(Ordering::Relaxed)
            .then_some(&*self.inner)
    }

    /// Name this process was spawned with.
    pub fn name(&self) -> String {
        self.inner.state.lock().procs[self.pid.index()].name.clone()
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
    /// continue. Time does not advance.
    pub fn yield_now(&self) {
        self.blocking("yield_now", self.yield_async());
    }

    /// Blocking receive: the next mailbox message, waiting if necessary.
    pub fn recv(&self) -> Payload {
        self.blocking("recv", self.recv_async())
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
            let mut st = self.inner.state.lock();
            st.procs[self.pid.index()].status = ProcStatus::Ready;
            st.ready.push_back(self.pid.0);
            Poll::Pending
        })
    }

    /// [`recv`](Self::recv), for a future process: the next mailbox
    /// message.
    pub fn recv_async(&self) -> impl Future<Output = Payload> + '_ {
        poll_fn(move |_| {
            let mut st = self.inner.state.lock();
            let slot = &mut st.procs[self.pid.index()];
            match slot.mailbox.pop_front() {
                Some(msg) => Poll::Ready(msg),
                None => {
                    slot.status = ProcStatus::Blocked(BlockReason::WaitMessage);
                    Poll::Pending
                }
            }
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
                let mut st = self.inner.state.lock();
                st.queue.push(now + d, EventKind::Wake(self.pid));
                let slot = &mut st.procs[self.pid.index()];
                slot.status = ProcStatus::Blocked(BlockReason::Sleep);
                if is_compute {
                    slot.compute_time += d;
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
        let baton = self.baton.as_ref().unwrap_or_else(|| {
            panic!(
                "blocking ProcessCtx::{call} called from future process '{}': it runs on \
                 the scheduler's thread and has no thread to park",
                self.name()
            )
        });
        let mut fut = pin!(fut);
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
            debug_assert_ne!(
                self.inner.state.lock().procs[self.pid.index()].status,
                ProcStatus::Running,
                "ProcessCtx::{call}: pending on something other than a ProcessCtx wait"
            );
            carry(&self.inner, Some(baton));
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Payload> {
        self.inner.state.lock().procs[self.pid.index()]
            .mailbox
            .pop_front()
    }

    /// Deliver `payload` to `to` after `delay` of virtual time.
    pub fn deliver(&self, to: Pid, delay: SimDelta, payload: Payload) {
        let inner = &self.inner;
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
    pub fn deliver_at(&self, to: Pid, at: SimTime, payload: Payload) {
        let inner = &self.inner;
        let at = at.max(inner.clock.get());
        inner
            .state
            .lock()
            .queue
            .push(at, EventKind::Deliver(to, payload));
    }

    /// Create a FIFO resource at runtime.
    pub fn create_resource(&self, name: impl Into<String>) -> ResourceId {
        new_resource(&self.inner, name.into())
    }

    /// Reserve `res` for `dur`, starting no earlier than now. Returns the
    /// granted `(start, end)` window. Does not block the caller.
    pub fn reserve(&self, res: ResourceId, dur: SimDelta) -> (SimTime, SimTime) {
        let inner = &self.inner;
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
        let inner = &self.inner;
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
    /// lock. The event is cloned into a buffer in the simulation state;
    /// a batch goes to the sink, with the state unlocked, when it holds
    /// [`EMIT_BATCH`](crate::EMIT_BATCH) events, when an event of another
    /// type arrives, and at the end of the run.
    pub fn emit<E: Any + Clone + Send>(&self, event: &E) {
        let inner = &self.inner;
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

    /// The run's counter table.
    fn stats(&self) -> &StatTable {
        &self.inner.stats
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

    /// Read `key`'s counter so far (mainly for tests).
    pub fn stat_counter(&self, key: &StatKey) -> u64 {
        self.stats().counter(key)
    }

    /// Uniform random value in `[0, bound)` from the simulation's one
    /// RNG stream, seeded by [`Simulation::new`] and shared by every
    /// process in draw order. A model that wants a stream per node (as
    /// the scale workloads do) keeps its own [`SimRng`]s.
    pub fn gen_range(&self, bound: u64) -> u64 {
        self.inner.state.lock().rng.gen_range(bound)
    }

    /// Uniform random f64 in `[0, 1)` from the simulation's RNG.
    pub fn gen_f64(&self) -> f64 {
        self.inner.state.lock().rng.gen_f64()
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
