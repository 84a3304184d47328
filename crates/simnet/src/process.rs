//! Simulated processes.
//!
//! A simulated process comes in three kinds. All three have a pid, a
//! name, a mailbox and a report entry, and all three are scheduled by the
//! same loop (pop a ready process, else pop an event), which has an
//! **owner**: the thread that called `run()`, or a shard's worker.
//!
//! * A **thread-backed** process is an OS thread running a user closure
//!   against a [`ProcessCtx`]. Execution is strictly sequential: every
//!   thread has a [`Baton`] to park on, and control moves by waking
//!   exactly one parked thread, so at any moment at most one thread of a
//!   loop is running. A process thread that blocks or exits takes the
//!   next step itself and wakes its successor directly ([`hand_off`]);
//!   the owner sleeps until a step needs it ([`drive`]). The only kind
//!   the sharded engine runs, and the kind for code that blocks in plain
//!   calls (`minimpi`, the scale workloads).
//! * A **future** process is an `async` body with no thread, stack or
//!   baton: where a thread would be handed the baton, the owner polls it
//!   instead, and it runs until its next `.await` on a [`ProcessCtx`]
//!   wait (`recv_async`, `sleep_async`, `compute_async`, `yield_async`).
//!   The kind for offload ranks, whose one wait is their next control
//!   message. A thread's blocking calls are `block_on` of the same waits.
//! * An **inline reactor** is a message handler with no thread, stack or
//!   baton: the owner calls it once per mailbox message, and it runs to
//!   completion every time — the fit for a poll-mode worker that only
//!   ever reacts to messages (the DPU proxies).
//!
//! A thread carrying the loop leaves a future's or a reactor's step to
//! the owner ([`Step::Owner`]).
//!
//! [`ProcessCtx`]: crate::ProcessCtx

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::{Condvar, Mutex};

use crate::event::{EventKind, EventQueue};
use crate::sim::SimError;
use crate::stats::{StatKey, StatTable};
use crate::time::{Clock, SimDelta, SimTime};

/// Maximum process executions without the clock advancing before the engine
/// declares a livelock. Generous: legitimate same-instant cascades (e.g. a
/// 512-rank barrier release) touch each process a handful of times.
pub(crate) const LIVELOCK_LIMIT: u64 = 50_000_000;

/// Identifier of a simulated process. Indexes into the simulation's process
/// table; never reused within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a pid from a raw index — for observers replaying or
    /// synthesizing event streams outside a simulation. The simulation
    /// itself only hands out pids via `spawn`.
    pub fn from_index(i: usize) -> Pid {
        Pid(i as u32)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A message deposited into a process mailbox. The engine is payload-
/// agnostic; upper layers define their own message enums and downcast.
pub type Payload = Box<dyn Any + Send>;

/// Why a process is currently not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sleeping (or computing) until a scheduled wake-up.
    Sleep,
    /// Waiting for a mailbox message.
    WaitMessage,
}

/// Run state of a process, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcStatus {
    /// Eligible to run at the current instant.
    Ready,
    /// Currently executing (a thread holding its baton, a future being
    /// polled, or a reactor being called).
    Running,
    /// Blocked; see the reason.
    Blocked(BlockReason),
    /// The closure or future returned (or panicked).
    Finished,
}

/// What a parked thread finds posted on its [`Baton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Signal {
    /// Nothing yet: stay parked.
    None,
    /// Control of the loop is yours.
    Go,
    /// The run is over and this process never finished: unwind.
    Cancel,
}

/// Payload a cancelled process thread unwinds with; [`process_thread`]
/// swallows it.
struct Cancelled;

/// One thread's parking spot. Every thread-backed process has one, and so
/// does the thread that owns a loop (`run()`'s caller on the classic
/// engine, the shard's worker on the sharded one). Control moves by
/// posting [`Signal::Go`] on the next thread's baton and parking on one's
/// own; a signal posted before its thread has parked is found waiting.
pub(crate) struct Baton {
    signal: Mutex<Signal>,
    cv: Condvar,
}

impl Baton {
    pub(crate) fn new() -> Baton {
        Baton {
            signal: Mutex::new(Signal::None),
            cv: Condvar::new(),
        }
    }

    /// Post `signal` and wake the parked thread. The mutex is released
    /// before the notify: this `Condvar` does not requeue, so a thread
    /// woken under the lock would block on it straight away — a second
    /// context switch per hand-off.
    fn post(&self, signal: Signal) {
        *self.signal.lock() = signal;
        self.cv.notify_one();
    }

    /// Hand control to the thread parked (or about to park) here.
    pub(crate) fn wake(&self) {
        self.post(Signal::Go);
    }

    /// Park the calling thread until it is handed control. A cancelled
    /// process thread does not return: it unwinds its closure. The
    /// cancellation stays posted, so a blocking call made while unwinding
    /// cannot park again.
    pub(crate) fn park(&self) {
        let mut signal = self.signal.lock();
        while *signal == Signal::None {
            self.cv.wait(&mut signal);
        }
        if *signal == Signal::Cancel {
            drop(signal);
            resume_unwind(Box::new(Cancelled));
        }
        *signal = Signal::None;
    }
}

/// What the loop's next step ([`LoopState::step`]: pop ready, else pop an
/// event) turned up.
pub(crate) enum Step {
    /// A thread-backed process, already marked `Running`: give it control.
    Process(Arc<Baton>),
    /// A reactor activation (slot key, body). Only the owner is ever
    /// handed one, so handlers always run on the owner's thread.
    Reactor(u32, ReactorBody),
    /// Poll the future process at slot key, building it first from the
    /// init closure on its first activation. Owner only, like a reactor.
    Poll(u32, Option<FutureInit>),
    /// Only the owner can go on: a reactor or a future is next, the
    /// window or the run is over, or an error or a panic is pending.
    Owner,
}

/// What a step reads and writes, borrowed from the engine's own state
/// (`sim::SimState`, one shard's `shard::ShardState`) under its lock.
pub(crate) struct LoopState<'a> {
    pub(crate) clock: &'a Clock,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) slots: &'a mut [ProcSlot],
    /// Slot indexes ready to run at `now`.
    pub(crate) ready: &'a mut VecDeque<u32>,
    pub(crate) stats: &'a StatTable,
    pub(crate) events: &'a mut u64,
    /// Process executions since the clock last advanced (livelock guard).
    pub(crate) execs: &'a mut u64,
    /// Why the loop stopped early, if it did.
    pub(crate) error: &'a mut Option<SimError>,
    /// A process panic is waiting to be re-raised.
    pub(crate) panicked: bool,
    pub(crate) time_limit: Option<SimTime>,
    /// End of the shard's window: events at or after it wait. `None` on
    /// the classic loop, which has no windows.
    pub(crate) w_end: Option<SimTime>,
    /// Pid (raw) -> slot index on a shard; `None` where they are equal.
    pub(crate) local: Option<&'a BTreeMap<u32, u32>>,
}

impl LoopState<'_> {
    fn slot_of(&self, pid: Pid) -> u32 {
        self.local.map_or(pid.0, |local| {
            *local.get(&pid.0).expect("event routed to the wrong shard")
        })
    }

    /// The loop's next step, taken by whichever thread has control: the
    /// first ready process, else events until one readies a process. Only
    /// the `owner` pops a reactor or a future; a process thread leaves it
    /// queued and says [`Step::Owner`].
    pub(crate) fn step(self, owner: bool) -> Step {
        if self.panicked || self.error.is_some() {
            return Step::Owner;
        }
        if *self.execs > LIVELOCK_LIMIT {
            *self.error = Some(SimError::Livelock {
                now: self.clock.get(),
            });
            return Step::Owner;
        }
        loop {
            // Phase 1: the next ready process.
            if let Some(&key) = self.ready.front() {
                let slot = &mut self.slots[key as usize];
                debug_assert_eq!(slot.status, ProcStatus::Ready);
                let next = match &mut slot.kind {
                    ProcKind::Thread { baton, .. } => Step::Process(Arc::clone(baton)),
                    ProcKind::Reactor(_) | ProcKind::Future(_) if !owner => return Step::Owner,
                    ProcKind::Reactor(body) => {
                        Step::Reactor(key, body.take().expect("a ready reactor has its body"))
                    }
                    ProcKind::Future(init) => Step::Poll(key, init.take()),
                };
                slot.status = ProcStatus::Running;
                self.ready.pop_front();
                *self.execs += 1;
                return next;
            }
            // Phase 2: advance to the next event (inside the window).
            let Some(at) = self.queue.peek_at() else {
                return Step::Owner;
            };
            debug_assert!(at >= self.clock.get(), "event in the past");
            if self.w_end.is_some_and(|w_end| at >= w_end) {
                return Step::Owner;
            }
            if let Some(limit) = self.time_limit.filter(|&limit| at > limit) {
                *self.error = Some(SimError::TimeLimitExceeded { limit });
                return Step::Owner;
            }
            let ev = self.queue.pop().expect("peeked event");
            if ev.at > self.clock.get() {
                self.clock.set(ev.at);
                *self.execs = 0;
            }
            *self.events += 1;
            match ev.kind {
                EventKind::Wake(pid) => {
                    let key = self.slot_of(pid);
                    let slot = &mut self.slots[key as usize];
                    debug_assert_eq!(slot.status, ProcStatus::Blocked(BlockReason::Sleep));
                    slot.status = ProcStatus::Ready;
                    self.ready.push_back(key);
                }
                EventKind::Deliver(pid, payload) => {
                    let key = self.slot_of(pid);
                    let slot = &mut self.slots[key as usize];
                    if slot.status == ProcStatus::Finished {
                        static DELIVER_TO_FINISHED: StatKey =
                            StatKey::new("simnet.deliver_to_finished");
                        self.stats.incr(&DELIVER_TO_FINISHED, 1);
                    } else {
                        slot.mailbox.push_back(payload);
                        if slot.status == ProcStatus::Blocked(BlockReason::WaitMessage) {
                            slot.status = ProcStatus::Ready;
                            self.ready.push_back(key);
                        }
                    }
                }
            }
        }
    }
}

/// The loop owner's side: take steps until one says [`Step::Owner`],
/// running reactor and future steps itself (`inline`). While
/// thread-backed processes follow each other the owner stays parked —
/// they pass control among themselves (see [`hand_off`]).
pub(crate) fn drive(owner: &Baton, mut step: impl FnMut() -> Step, mut inline: impl FnMut(Step)) {
    loop {
        match step() {
            Step::Process(next) => {
                next.wake();
                owner.park();
            }
            Step::Owner => return,
            next => inline(next),
        }
    }
}

/// A process thread's side: its process has just blocked (`me`) or exited
/// (`None`), and it has taken the loop's next step itself. Its own
/// process next: carry on, no switch. Another thread's: wake it directly
/// and park — one switch where a trip through the owner costs two.
/// Anything else is the owner's business.
pub(crate) fn hand_off(me: Option<&Baton>, owner: &Baton, next: Step) {
    match next {
        Step::Process(next) if me.is_some_and(|me| std::ptr::eq(me, &*next)) => return,
        Step::Process(next) => next.wake(),
        Step::Owner => owner.wake(),
        Step::Reactor(..) | Step::Poll(..) => unreachable!("an owner's step went to a thread"),
    }
    if let Some(me) = me {
        me.park();
    }
}

/// Body of a process thread: wait to be started, run `f`, then report how
/// it ended (`None`, or the panic message) through `exit`, which marks
/// the slot finished and hands control on. A thread cancelled while
/// parked — before its first instruction or inside a blocking call —
/// touches nothing and just ends: the run is already over.
pub(crate) fn process_thread(baton: &Baton, f: impl FnOnce(), exit: impl FnOnce(Option<String>)) {
    match catch_unwind(AssertUnwindSafe(|| {
        baton.park();
        f();
    })) {
        Ok(()) => exit(None),
        Err(payload) if payload.is::<Cancelled>() => {}
        Err(payload) => exit(Some(panic_message(&*payload))),
    }
}

/// An inline reactor's message handler: called once per mailbox message
/// by whichever thread runs the scheduler loop. Returning `false`
/// finishes the process.
pub type Reactor = Box<dyn FnMut(Payload) -> bool + Send>;

/// A reactor between activations: not yet initialised, or waiting for
/// its next message.
pub(crate) enum ReactorBody {
    /// The `init` closure (its `ProcessCtx` already bound), run at the
    /// first activation. `None` from it means "finished at once".
    Init(Box<dyn FnOnce() -> Option<Reactor> + Send>),
    Live(Reactor),
}

/// Run one activation of a reactor: initialise it if this is its first,
/// then feed it `next()` until that runs dry (`Ok(Some(handler))`: park
/// it) or the handler returns `false` (`Ok(None)`: finished). A panic in
/// `init` or the handler comes back as its message.
pub(crate) fn drive_reactor(
    body: ReactorBody,
    mut next: impl FnMut() -> Option<Payload>,
) -> Result<Option<Reactor>, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let mut handler = match body {
            ReactorBody::Init(init) => init()?,
            ReactorBody::Live(handler) => handler,
        };
        while let Some(msg) = next() {
            if !handler(msg) {
                return None;
            }
        }
        Some(handler)
    }))
    .map_err(|payload| panic_message(&*payload))
}

/// A started future process's body. Not `Send`, so never in the shared
/// process slot: the loop's owner keeps it in its [`Futures`].
pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A future process before its first poll: the `Send` closure (its
/// `ProcessCtx` already bound) that builds the body on the owner's thread.
pub(crate) type FutureInit = Box<dyn FnOnce() -> LocalFuture + Send>;

/// Started future bodies by slot key, owned by the thread running the
/// loop and dropped when the run ends.
#[derive(Default)]
pub(crate) struct Futures(Vec<Option<LocalFuture>>);

impl Futures {
    /// Poll the future at slot `key` once, building it from `init` first
    /// on its first activation. `Ready(Err)` carries its panic message. A
    /// body that returned or panicked is dropped here, before the caller
    /// marks the slot finished — as a thread's locals are gone before it
    /// exits.
    pub(crate) fn poll(&mut self, key: u32, init: Option<FutureInit>) -> Poll<Result<(), String>> {
        let i = key as usize;
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        let slot = &mut self.0[i];
        let polled = catch_unwind(AssertUnwindSafe(|| {
            let body = match init {
                Some(init) => slot.insert(init()),
                None => slot
                    .as_mut()
                    .expect("a started future process keeps its body"),
            };
            body.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        }));
        if let Ok(Poll::Pending) = polled {
            return Poll::Pending;
        }
        drop(slot.take());
        Poll::Ready(polled.map(drop).map_err(|payload| panic_message(&*payload)))
    }
}

/// What a run that is over, however it ended, still has lying about: the
/// bodies of reactors and future processes left waiting, and process
/// threads to be joined.
pub(crate) struct Leftovers {
    /// A handler holds a `ProcessCtx`, which points back at the state
    /// that owns its slot: unless dropped here, neither is ever freed.
    reactors: Vec<ReactorBody>,
    /// Future processes never polled: their init closures hold a
    /// `ProcessCtx` just the same.
    futures: Vec<FutureInit>,
    /// Each with its baton if the process never finished: that thread is
    /// parked, and must be cancelled to end.
    threads: Vec<(Option<Arc<Baton>>, std::thread::JoinHandle<()>)>,
}

/// Take them out of `slots`, for the caller to [`Leftovers::release`]
/// once it has let go of the state lock: a dropped handler and an
/// unwinding closure may both still make non-blocking ctx calls.
pub(crate) fn take_leftovers(slots: &mut [ProcSlot]) -> Leftovers {
    let mut left = Leftovers {
        reactors: Vec::new(),
        futures: Vec::new(),
        threads: Vec::new(),
    };
    for slot in slots {
        let parked = slot.status != ProcStatus::Finished;
        match &mut slot.kind {
            ProcKind::Thread { baton, join } => {
                if let Some(handle) = join.take() {
                    let cancel = parked.then(|| Arc::clone(baton));
                    left.threads.push((cancel, handle));
                }
            }
            ProcKind::Reactor(body) => left.reactors.extend(body.take()),
            ProcKind::Future(init) => left.futures.extend(init.take()),
        }
    }
    left
}

impl Leftovers {
    /// Drop the handlers and unstarted futures, cancel the threads still
    /// parked and join them all, one at a time: nothing outlives `run()`.
    pub(crate) fn release(self) {
        drop(self.reactors);
        drop(self.futures);
        for (cancel, handle) in self.threads {
            if let Some(baton) = cancel {
                baton.post(Signal::Cancel);
            }
            let _ = handle.join();
        }
    }
}

/// What executes a process.
pub(crate) enum ProcKind {
    /// An OS thread parked on `baton` whenever it is not running.
    Thread {
        baton: Arc<Baton>,
        join: Option<std::thread::JoinHandle<()>>,
    },
    /// An inline reactor. `None` while an activation has the body out,
    /// and for good once the reactor has finished.
    Reactor(Option<ReactorBody>),
    /// A future process: its init closure until the first poll takes it
    /// (the body itself is in the owner's [`Futures`]).
    Future(Option<FutureInit>),
}

/// Scheduler-side bookkeeping for one process.
pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) mailbox: VecDeque<Payload>,
    pub(crate) kind: ProcKind,
    /// Total virtual time this process spent in `compute()`.
    pub(crate) compute_time: SimDelta,
    /// Instant the process finished, if it has.
    pub(crate) finished_at: Option<SimTime>,
}

impl ProcSlot {
    pub(crate) fn new(name: String, kind: ProcKind) -> Self {
        ProcSlot {
            name,
            status: ProcStatus::Ready,
            // Room for the first messages, taken now, on the spawning
            // thread. The first delivery is often made by a process thread
            // carrying the loop, and that one small block in its malloc
            // arena is enough to split a free chunk the arena was keeping
            // for the process's next buffer (EXPERIMENTS.md, "Thread
            // hand-off": `bulk_crc` peak RSS).
            mailbox: VecDeque::with_capacity(4),
            kind,
            compute_time: SimDelta::ZERO,
            finished_at: None,
        }
    }

    /// Record how a reactor activation ended (see [`drive_reactor`]):
    /// park the handler for the next message, or finish. Returns the
    /// message to re-raise if the reactor panicked.
    pub(crate) fn settle_reactor(
        &mut self,
        now: SimTime,
        outcome: Result<Option<Reactor>, String>,
    ) -> Option<String> {
        match outcome {
            Ok(Some(handler)) => {
                debug_assert!(self.mailbox.is_empty(), "reactor parked with mail");
                self.kind = ProcKind::Reactor(Some(ReactorBody::Live(handler)));
                self.status = ProcStatus::Blocked(BlockReason::WaitMessage);
                None
            }
            Ok(None) => self.exited(now, None),
            Err(msg) => self.exited(now, Some(msg)),
        }
    }

    /// The process's closure or handler is done at `now` (returned, or
    /// panicked). Returns the message to re-raise on `run()`'s caller if
    /// it panicked.
    pub(crate) fn exited(&mut self, now: SimTime, panic: Option<String>) -> Option<String> {
        self.status = ProcStatus::Finished;
        self.finished_at = Some(now);
        panic.map(|msg| format!("simulated process '{}' panicked: {msg}", self.name))
    }
}

/// Convert a panic payload into a printable message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "process panicked with a non-string payload".to_string()
    }
}
