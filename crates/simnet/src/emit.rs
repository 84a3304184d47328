//! Batched delivery of [`ProcessCtx::emit`](crate::ProcessCtx::emit)ted
//! events to the installed [`EventSink`].
//!
//! A sink is called once per slice of emissions, not once per event, so
//! an observer that keeps its state behind a lock takes that lock once
//! per [`EMIT_BATCH`] events. Both engines deliver through
//! [`deliver_batched`]: every emission exactly once, in emission order,
//! with the time and pid it was emitted at, and never an empty slice.

use std::any::Any;
use std::sync::Arc;

use crate::process::Pid;
use crate::time::SimTime;

/// Most emissions one sink call receives. The classic engine buffers up
/// to this many before handing them over.
pub const EMIT_BATCH: usize = 64;

/// One emission as a sink sees it.
#[derive(Clone, Copy, Debug)]
pub struct Emitted<'a> {
    /// Simulated instant of the emission.
    pub at: SimTime,
    /// Emitting process.
    pub pid: Pid,
    /// The event; the sink downcasts it to the types it understands.
    pub event: &'a dyn Any,
}

/// Observer for structured events published with
/// [`ProcessCtx::emit`](crate::ProcessCtx::emit).
///
/// The engine stays protocol-agnostic: upper layers define their own event
/// types and the sink downcasts each [`Emitted::event`]. Delivery is
/// batched: each call receives `1..=EMIT_BATCH` emissions, in emission
/// order, and every emission of a run has been delivered by the time
/// [`Simulation::run`](crate::Simulation::run) returns or re-raises a
/// process panic. A sink runs with the simulation state unlocked, on
/// whichever engine thread flushes the batch, and must not call back into
/// blocking [`ProcessCtx`](crate::ProcessCtx) operations.
pub type EventSink = Arc<dyn Fn(&[Emitted<'_>]) + Send + Sync>;

/// Hand `items` to `sink` in order, as slices of at most [`EMIT_BATCH`]
/// emissions, each item seen through `view`. An empty `items` calls
/// nothing. Feeds a sink from a captured stream exactly as a run would.
pub fn deliver_batched<'a, T>(
    sink: &EventSink,
    items: &'a [T],
    view: impl Fn(&'a T) -> Emitted<'a>,
) {
    let blank = Emitted {
        at: SimTime::ZERO,
        pid: Pid(0),
        event: &(),
    };
    let mut slice = [blank; EMIT_BATCH];
    for chunk in items.chunks(EMIT_BATCH) {
        for (slot, item) in slice.iter_mut().zip(chunk) {
            *slot = view(item);
        }
        sink(&slice[..chunk.len()]);
    }
}

/// Emissions of one event type awaiting delivery, in emission order.
struct Batch<E>(Vec<(SimTime, Pid, E)>);

/// A [`Batch`] of whichever event type it was opened for.
pub(crate) trait Pending: Send {
    fn as_any(&mut self) -> &mut dyn Any;

    /// Deliver every entry to `sink` and empty the batch.
    fn deliver(&mut self, sink: &EventSink);
}

impl<E: Any + Send> Pending for Batch<E> {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn deliver(&mut self, sink: &EventSink) {
        deliver_batched(sink, &self.0, |(at, pid, event)| Emitted {
            at: *at,
            pid: *pid,
            event,
        });
        self.0.clear();
    }
}

/// The classic engine's emit buffer, kept inside the locked simulation
/// state: the batch being filled, typed by its first emission.
#[derive(Default)]
pub(crate) struct EmitBuffer {
    open: Option<Box<dyn Pending>>,
}

impl EmitBuffer {
    /// Buffer one emission. Returns a batch the caller must deliver, with
    /// the state unlocked, before anything else is emitted: the open batch
    /// once it holds [`EMIT_BATCH`] entries, or the batch of another event
    /// type that this emission closes.
    pub(crate) fn push<E: Any + Clone + Send>(
        &mut self,
        at: SimTime,
        pid: Pid,
        event: &E,
    ) -> Option<Box<dyn Pending>> {
        let open = self
            .open
            .as_mut()
            .and_then(|b| b.as_any().downcast_mut::<Batch<E>>());
        if let Some(batch) = open {
            batch.0.push((at, pid, event.clone()));
            if batch.0.len() < EMIT_BATCH {
                return None;
            }
            return self.open.take();
        }
        let mut batch = Batch(Vec::with_capacity(EMIT_BATCH));
        batch.0.push((at, pid, event.clone()));
        self.open.replace(Box::new(batch))
    }

    /// The batch being filled, for the flush at the end of a run.
    pub(crate) fn take(&mut self) -> Option<Box<dyn Pending>> {
        self.open.take()
    }

    /// Reuse a delivered (empty) batch's buffer, unless another is open.
    pub(crate) fn recycle(&mut self, batch: Box<dyn Pending>) {
        if self.open.is_none() {
            self.open = Some(batch);
        }
    }
}
