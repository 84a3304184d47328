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

use offload::{Metrics, MetricsReport, OffloadConfig};
use rdma::ClusterBuilder;
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

/// [`with_metrics`] with tenant attribution: when `cfg` carries a
/// multi-tenant roster, the collector is seeded with the rank→tenant
/// map of a `world`-rank run, so the folded report grows a per-tenant
/// section (see [`offload::TenantMetrics`]). On a single-tenant config
/// this is exactly [`with_metrics`] — no map, no tenants section,
/// byte-identical reports.
pub fn with_tenant_metrics<T>(
    cfg: &OffloadConfig,
    world: usize,
    f: impl FnOnce() -> T,
) -> (T, MetricsReport) {
    let metrics = Metrics::new();
    if cfg.multi_tenant() {
        metrics.set_tenant_map((0..world).map(|r| (r, cfg.tenant_of(r))).collect());
    }
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

/// Attach the current observer (if any) to a cluster builder. Called by
/// every benchmark in this crate right after constructing its builder.
pub(crate) fn apply(mut b: ClusterBuilder) -> ClusterBuilder {
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
