//! Scoped observation of benchmark runs.
//!
//! The benchmark entry points in this crate build their own
//! [`rdma::ClusterBuilder`]s internally, which used to make their event
//! streams unreachable from tests and the bench harness. An [`Observer`]
//! installed with [`with_observer`] is consulted by every builder in
//! this crate for the duration of the closure: its event sink receives
//! the engine's [`offload::ProtoEvent`] stream and its `trace` flag
//! turns on timeline recording, so the returned [`simnet::Report`]
//! carries spans for the Chrome-trace exporter.
//!
//! The hook is a thread-local, not a global: benchmark sweeps in
//! different test threads observe independently.

use std::cell::RefCell;

use offload::{Metrics, MetricsReport};
use rdma::{ClusterBuilder, ClusterSpec};
use simnet::EventSink;

/// What to attach to cluster builders inside an observed scope.
#[derive(Clone, Default)]
pub struct Observer {
    /// Structured-event sink, e.g. [`offload::Metrics::sink`].
    pub sink: Option<EventSink>,
    /// Record the simulation timeline (spans + instants).
    pub trace: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<Observer>> = const { RefCell::new(None) };
}

struct Restore(Option<Observer>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Run `f` with `obs` installed as the current thread's observer.
/// Nested scopes shadow (and then restore) the outer observer.
pub fn with_observer<T>(obs: Observer, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(obs));
    let _restore = Restore(prev);
    f()
}

/// Run `f` with a fresh [`Metrics`] collector observing every run it
/// starts, and return `f`'s value alongside the folded report.
pub fn with_metrics<T>(f: impl FnOnce() -> T) -> (T, MetricsReport) {
    let metrics = Metrics::new();
    let obs = Observer {
        sink: Some(metrics.sink()),
        trace: false,
    };
    let out = with_observer(obs, f);
    (out, metrics.report())
}

/// Combine several event sinks into one that hands every delivered slice
/// to each, in order. Lets a run feed e.g. [`offload::Metrics`], a
/// conformance checker and a flight recorder from a single stream, each
/// sink taking its lock once per slice.
pub fn fanout(sinks: Vec<EventSink>) -> EventSink {
    std::sync::Arc::new(move |batch| {
        for s in &sinks {
            s(batch);
        }
    })
}

/// The simulation seed of every cluster the figure workloads build. The
/// simulation RNG is drawn only for fabric delivery jitter, which these
/// workloads never set, so no seed would move a number (`rdma`'s
/// cluster tests pin that).
const SEED: u64 = 1;

/// A builder for `spec` with the current observer (if any) attached.
/// Every benchmark in this crate builds its cluster here.
pub(crate) fn builder(spec: ClusterSpec) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(spec, SEED);
    if let Some(obs) = CURRENT.with(|c| c.borrow().clone()) {
        if let Some(sink) = obs.sink {
            b = b.with_event_sink(sink);
        }
        if obs.trace {
            b = b.with_trace();
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_scopes_nest_and_restore() {
        assert!(CURRENT.with(|c| c.borrow().is_none()));
        with_observer(Observer::default(), || {
            assert!(CURRENT.with(|c| c.borrow().is_some()));
            with_observer(
                Observer {
                    sink: None,
                    trace: true,
                },
                || {
                    assert!(CURRENT.with(|c| c.borrow().as_ref().unwrap().trace));
                },
            );
            assert!(!CURRENT.with(|c| c.borrow().as_ref().unwrap().trace));
        });
        assert!(CURRENT.with(|c| c.borrow().is_none()));
    }
}
