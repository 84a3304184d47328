//! Simulated processes.
//!
//! The scheduler knows one kind of process: a future in the loop's
//! [`Futures`] table, polled on the thread that called `run()` until its
//! next pending [`ProcessCtx`] wait (`recv_async`, `sleep_async`,
//! `compute_async`, `yield_async`). Every process has a pid, a name, a
//! mailbox and a report entry. Behind the future is one of two bodies:
//!
//! * an `async` body (`Simulation::spawn_future`): every process of a
//!   cluster (host ranks and DPU proxies) and every rank of the scale
//!   workloads;
//! * a [`ThreadProc`] (`Simulation::spawn`): an OS thread running a user
//!   closure that waits in blocking calls. A poll wakes the thread and
//!   parks `run()`'s thread until the closure blocks or ends, so at most
//!   one thread runs at a time and no process thread takes a loop step.
//!   The blocking calls poll the same waits an `async` body awaits, and
//!   hand control back while one is pending.
//!
//! [`ProcessCtx`]: crate::ProcessCtx

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::time::{SimDelta, SimTime};

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
    /// Currently being polled.
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
    /// To a process thread: run on. To `run()`'s thread: the closure is
    /// blocked in a pending wait.
    Go,
    /// To `run()`'s thread: the closure has ended.
    Done,
    /// To a process thread: the run is over and the closure never
    /// finished: unwind.
    Cancel,
}

/// Payload a cancelled process thread unwinds with; [`ThreadProc`]'s drop
/// discards it.
struct Cancelled;

/// One thread's parking spot. Control moves by posting on the other
/// thread's baton and parking on one's own; a signal posted before its
/// thread has parked is found waiting.
struct Baton {
    signal: Mutex<Signal>,
    cv: Condvar,
}

impl Baton {
    fn new() -> Baton {
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

    /// Park the calling thread until a signal is posted, and take it
    /// (`Go` or `Done`). A cancelled process thread does not return: it
    /// unwinds its closure. The cancellation stays posted, so a blocking
    /// call made while unwinding cannot park again.
    fn park(&self) -> Signal {
        let mut signal = self.signal.lock();
        while *signal == Signal::None {
            self.cv.wait(&mut signal);
        }
        if *signal == Signal::Cancel {
            drop(signal);
            resume_unwind(Box::new(Cancelled));
        }
        std::mem::replace(&mut *signal, Signal::None)
    }
}

/// The two parking spots of a thread-backed process: its own thread's,
/// and `run()`'s thread's while the process thread runs.
pub(crate) struct Batons {
    thread: Baton,
    caller: Baton,
}

impl Batons {
    pub(crate) fn new() -> Batons {
        Batons {
            thread: Baton::new(),
            caller: Baton::new(),
        }
    }

    /// On the process thread, its closure blocked in a pending wait: hand
    /// control back to `run()`'s thread and park until the next poll.
    pub(crate) fn block(&self) {
        self.caller.post(Signal::Go);
        self.thread.park();
    }
}

/// Stack size of a process thread.
const STACK_SIZE: usize = 1 << 20;

/// A thread-backed process as the loop sees it: a future over its OS
/// thread. Each poll runs the thread until its closure blocks (`Pending`)
/// or ends (`Ready`, or the closure's panic resumed on the polling
/// thread). Dropped before the closure ended, it cancels the thread and
/// joins it, so no process thread outlives its future.
pub(crate) struct ThreadProc {
    batons: Arc<Batons>,
    /// The thread, until the poll that sees its closure end joins it.
    join: Option<JoinHandle<std::thread::Result<()>>>,
}

impl ThreadProc {
    /// Start the thread `name`: it parks on `batons` until the first poll,
    /// then runs `body`, whose blocking calls park on `batons` too.
    pub(crate) fn spawn(
        name: String,
        batons: Arc<Batons>,
        body: impl FnOnce() + Send + 'static,
    ) -> ThreadProc {
        let mine = Arc::clone(&batons);
        let join = std::thread::Builder::new()
            .name(name)
            .stack_size(STACK_SIZE)
            .spawn(move || {
                let end = catch_unwind(AssertUnwindSafe(|| {
                    mine.thread.park();
                    body();
                }));
                mine.caller.post(Signal::Done);
                end
            })
            .expect("failed to spawn process thread");
        ThreadProc {
            batons,
            join: Some(join),
        }
    }
}

impl Future for ThreadProc {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        self.batons.thread.post(Signal::Go);
        if self.batons.caller.park() == Signal::Go {
            return Poll::Pending;
        }
        let join = self
            .join
            .take()
            .expect("an ended thread process is not polled");
        if let Err(panic) = join.join().and_then(|end| end) {
            resume_unwind(panic);
        }
        Poll::Ready(())
    }
}

impl Drop for ThreadProc {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.batons.thread.post(Signal::Cancel);
            let _ = join.join();
        }
    }
}

/// A started process's body. Not `Send`, so never in the shared process
/// slot: `run()`'s thread keeps it in its [`Futures`].
pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A process before its first poll: the `Send` closure (its `ProcessCtx`
/// already bound) that builds the body on `run()`'s thread.
pub(crate) type FutureInit = Box<dyn FnOnce() -> LocalFuture + Send>;

/// Started bodies by slot key, owned by `run()`'s thread and dropped when
/// the run ends.
#[derive(Default)]
pub(crate) struct Futures(Vec<Option<LocalFuture>>);

impl Futures {
    /// Poll the future at slot `key` once, building it from `init` first
    /// on its first activation. `Ready(Err)` carries its panic message. A
    /// body that returned or panicked is dropped here, before the caller
    /// marks the slot finished.
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

/// Scheduler-side bookkeeping for one process.
pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) mailbox: VecDeque<Payload>,
    /// The init closure, until the first poll takes it (the body itself
    /// is then in `run()`'s [`Futures`]).
    pub(crate) init: Option<FutureInit>,
    /// Total virtual time this process spent in `compute()`.
    pub(crate) compute_time: SimDelta,
    /// Instant the process finished, if it has.
    pub(crate) finished_at: Option<SimTime>,
}

impl ProcSlot {
    pub(crate) fn new(name: String, init: FutureInit) -> Self {
        ProcSlot {
            name,
            status: ProcStatus::Ready,
            // Room for the first messages, taken now, at spawn, rather
            // than by the first delivery in mid-run, where one small block
            // can split a free chunk the allocator was keeping for a
            // process's next large buffer. Measured when that delivery ran
            // on another thread (EXPERIMENTS.md, "Thread hand-off":
            // `bulk_crc` peak RSS); kept so that peak RSS stays where the
            // benchmark has it.
            mailbox: VecDeque::with_capacity(4),
            init: Some(init),
            compute_time: SimDelta::ZERO,
            finished_at: None,
        }
    }

    /// The process's closure or body is done at `now` (returned, or
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
