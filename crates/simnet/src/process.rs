//! Simulated processes.
//!
//! A simulated process comes in two kinds. A **thread-backed** process is
//! an OS thread running a user closure against a [`ProcessCtx`]. Execution
//! is strictly sequential: a single "baton" per process is passed between
//! the scheduler thread and the process thread, so at any moment at most
//! one thread in the whole simulation is running. That makes the engine
//! deterministic and lets user code use ordinary Rust control flow (loops,
//! recursion, panics) instead of hand-written state machines.
//!
//! An **inline reactor** is a message handler with no thread, stack or
//! baton: the scheduler calls it on its own thread, once per mailbox
//! message, and it runs to completion every time. It has a pid, a name, a
//! mailbox and a report entry like any process, but it may never block —
//! the fit for a poll-mode worker that only ever reacts to messages.
//!
//! [`ProcessCtx`]: crate::ProcessCtx

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    /// Currently executing (a thread holding its baton, or a reactor
    /// being called).
    Running,
    /// Blocked; see the reason.
    Blocked(BlockReason),
    /// The closure returned (or panicked).
    Finished,
}

/// Which side currently holds a process's baton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatonHolder {
    Scheduler,
    Process,
}

/// Per-process handshake used to transfer control between the scheduler
/// thread and the process thread.
pub(crate) struct Baton {
    holder: Mutex<BatonHolder>,
    cv: Condvar,
}

impl Baton {
    pub(crate) fn new() -> Arc<Baton> {
        Arc::new(Baton {
            holder: Mutex::new(BatonHolder::Scheduler),
            cv: Condvar::new(),
        })
    }

    /// Called by the scheduler: hand the baton to the process and wait until
    /// the process yields it back (by blocking or finishing).
    pub(crate) fn resume_process(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Scheduler);
        *holder = BatonHolder::Process;
        self.cv.notify_all();
        while *holder != BatonHolder::Scheduler {
            self.cv.wait(&mut holder);
        }
    }

    /// Called by the process thread: hand the baton back to the scheduler
    /// and wait until the scheduler resumes this process.
    pub(crate) fn yield_to_scheduler(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Process);
        *holder = BatonHolder::Scheduler;
        self.cv.notify_all();
        while *holder != BatonHolder::Process {
            self.cv.wait(&mut holder);
        }
    }

    /// Called by the process thread on exit: release the baton for good.
    pub(crate) fn finish(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Process);
        *holder = BatonHolder::Scheduler;
        self.cv.notify_all();
    }

    /// Called by the process thread before its first instruction: wait for
    /// the scheduler to start it.
    pub(crate) fn wait_for_start(&self) {
        let mut holder = self.holder.lock();
        while *holder != BatonHolder::Process {
            self.cv.wait(&mut holder);
        }
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

/// Take every parked reactor's body out of `slots`, for the caller to
/// drop once it has released the state lock: a handler holds a
/// `ProcessCtx`, which points back at the state that owns its slot, so a
/// run that ends with reactors still waiting would otherwise never free
/// either.
pub(crate) fn take_parked_reactors(slots: &mut [ProcSlot]) -> Vec<ReactorBody> {
    slots
        .iter_mut()
        .filter_map(|slot| match &mut slot.kind {
            ProcKind::Thread { .. } => None,
            ProcKind::Reactor(body) => body.take(),
        })
        .collect()
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
}

/// Scheduler-side bookkeeping for one process.
pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) mailbox: VecDeque<Payload>,
    pub(crate) kind: ProcKind,
    /// Panic payload captured from a thread-backed process closure, if any.
    pub(crate) panic: Option<String>,
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
            mailbox: VecDeque::new(),
            kind,
            panic: None,
            compute_time: SimDelta::ZERO,
            finished_at: None,
        }
    }

    /// The process is done (returned, finished as a reactor, or panicked).
    pub(crate) fn finish(&mut self, now: SimTime) {
        self.status = ProcStatus::Finished;
        self.finished_at = Some(now);
    }

    /// The thread to join, if this process has one that was not joined yet.
    pub(crate) fn take_join(&mut self) -> Option<std::thread::JoinHandle<()>> {
        match &mut self.kind {
            ProcKind::Thread { join, .. } => join.take(),
            ProcKind::Reactor(_) => None,
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
            Ok(None) => {
                self.finish(now);
                None
            }
            Err(msg) => {
                self.finish(now);
                Some(format!("simulated process '{}' panicked: {msg}", self.name))
            }
        }
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
