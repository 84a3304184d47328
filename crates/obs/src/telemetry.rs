//! Streaming telemetry bus: periodic counter-delta snapshots.
//!
//! ROADMAP item 4 (an adaptive offload policy) needs a *runtime* view
//! of the protocol — not a single frozen [`offload::MetricsReport`] at
//! the end, but a stream of "what changed in the last N microseconds of
//! virtual time". [`TelemetryBus`] provides that: it wraps a private
//! metrics accumulator behind an [`simnet::EventSink`], slices virtual
//! time into fixed windows, and at each boundary publishes a
//! [`TelemetrySnapshot`] of the nonzero counter deltas to any attached
//! [`TelemetrySink`] consumers, keeping the most recent snapshots in a
//! bounded ring.
//!
//! ## Determinism contract
//!
//! Snapshots are a pure function of the protocol-event stream and the
//! configured interval. The engine delivers that stream in canonical
//! `(time, shard, seq)` order at any `SIMNET_THREADS`, so the snapshot
//! sequence — boundaries, ordering, and every delta value — is
//! byte-identical across thread counts (asserted by `ci.sh` on the
//! scale benches). No wall-clock quantity ever enters a snapshot.
//!
//! Optional profiler sampling ([`TelemetryBus::sample_profile`]) adds
//! `profile.<path>` scope-count deltas. Those counts come from
//! [`offload::profile`]'s thread-local trees, so only samples already
//! folded into the global registry (exited threads) plus the snapshot
//! thread's own tree are visible — cross-thread visibility is
//! best-effort and the totals only settle once the run's threads have
//! exited. The snapshot thread is whichever engine thread delivers the
//! batch holding the first event past a boundary, up to
//! `simnet::EMIT_BATCH` events after that event was emitted, so the
//! counts may also include work done just past the boundary. They are
//! advisory for policy consumers, excluded from the determinism
//! contract, and off by default.

use std::collections::VecDeque;
use std::sync::Arc;

use offload::{Metrics, MetricsReport};
use parking_lot::Mutex;
use simnet::{Emitted, EventSink};

/// Default bound on the snapshot ring: old snapshots fall off the back
/// once this many are retained (consumers attached as sinks still see
/// every snapshot as it is published).
pub const DEFAULT_RING_CAP: usize = 1024;

/// One published telemetry window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// 1-based publication index (strictly increasing).
    pub seq: u64,
    /// Exclusive virtual-time upper bound of the window, in picoseconds:
    /// the snapshot covers everything since the previous one up to (not
    /// including) this instant.
    pub upto_ps: u64,
    /// Counters that moved during the window, as `(key, increase)`:
    /// `"bus_events"` (raw events the sink saw, protocol or not) first,
    /// then the fixed `MetricsReport::totals()` key order, then any
    /// `profile.<path>` keys in path order. Zero deltas are omitted.
    pub deltas: Vec<(String, u64)>,
}

/// Consumer interface of the bus — the hook a future adaptive offload
/// policy engine plugs into. Called while the simulation runs, in
/// snapshot order, when the engine delivers the batch of events that
/// closes a window (so up to `simnet::EMIT_BATCH` events after the
/// boundary, in emission count).
pub trait TelemetrySink: Send {
    /// Observe one published snapshot.
    fn on_snapshot(&mut self, snap: &TelemetrySnapshot);
}

impl<F: FnMut(&TelemetrySnapshot) + Send> TelemetrySink for F {
    fn on_snapshot(&mut self, snap: &TelemetrySnapshot) {
        self(snap)
    }
}

struct BusInner {
    metrics: Metrics,
    /// The wrapped metrics sink events are forwarded to.
    forward: EventSink,
    interval_ps: u64,
    /// Next unpublished window boundary (ps).
    next_boundary: u64,
    seq: u64,
    /// Every event the sink saw (ProtoEvent or not).
    events_seen: u64,
    /// `events_seen` at the last publication.
    prev_events_seen: u64,
    /// Totals at the last publication, in `totals()` order.
    prev: Vec<(&'static str, u64)>,
    /// Profiler scope counts at the last publication (sampling only).
    prev_profile: Vec<(String, u64)>,
    sample_profile: bool,
    ring: VecDeque<TelemetrySnapshot>,
    cap: usize,
    sinks: Vec<Box<dyn TelemetrySink>>,
    published: u64,
}

impl BusInner {
    fn publish(&mut self, upto_ps: u64) {
        let now = self.metrics.report().totals();
        let mut deltas: Vec<(String, u64)> = Vec::new();
        if self.events_seen > self.prev_events_seen {
            deltas.push((
                "bus_events".into(),
                self.events_seen - self.prev_events_seen,
            ));
        }
        self.prev_events_seen = self.events_seen;
        for (i, &(k, v)) in now.iter().enumerate() {
            let before = self.prev.get(i).map(|&(_, p)| p).unwrap_or(0);
            if v > before {
                deltas.push((k.to_string(), v - before));
            }
        }
        self.prev = now;
        if self.sample_profile {
            let counts = offload::profile::scope_counts();
            for (path, c) in &counts {
                let before = self
                    .prev_profile
                    .iter()
                    .find(|(p, _)| p == path)
                    .map(|&(_, v)| v)
                    .unwrap_or(0);
                if *c > before {
                    deltas.push((format!("profile.{path}"), c - before));
                }
            }
            self.prev_profile = counts;
        }
        self.seq += 1;
        let snap = TelemetrySnapshot {
            seq: self.seq,
            upto_ps,
            deltas,
        };
        for sink in &mut self.sinks {
            sink.on_snapshot(&snap);
        }
        self.ring.push_back(snap);
        while self.ring.len() > self.cap {
            self.ring.pop_front();
        }
        self.published += 1;
    }
}

/// The streaming telemetry bus. Install [`TelemetryBus::sink`] on a
/// simulation (alone or fanned out alongside other sinks); read the
/// ring and the final report with [`TelemetryBus::finish`].
#[derive(Clone)]
pub struct TelemetryBus {
    inner: Arc<Mutex<BusInner>>,
}

impl TelemetryBus {
    /// A bus slicing virtual time into `interval_ps`-picosecond windows
    /// with the default ring bound. `interval_ps` must be nonzero.
    pub fn new(interval_ps: u64) -> TelemetryBus {
        assert!(interval_ps > 0, "telemetry interval must be nonzero");
        let metrics = Metrics::new();
        let forward = metrics.sink();
        TelemetryBus {
            inner: Arc::new(Mutex::new(BusInner {
                metrics,
                forward,
                interval_ps,
                next_boundary: interval_ps,
                seq: 0,
                events_seen: 0,
                prev_events_seen: 0,
                prev: Vec::new(),
                prev_profile: Vec::new(),
                sample_profile: false,
                ring: VecDeque::new(),
                cap: DEFAULT_RING_CAP,
                sinks: Vec::new(),
                published: 0,
            })),
        }
    }

    /// Override the ring bound (`cap >= 1`).
    pub fn with_ring_cap(self, cap: usize) -> TelemetryBus {
        assert!(cap >= 1, "ring cap must be nonzero");
        self.inner.lock().cap = cap;
        self
    }

    /// Also sample `profile.<path>` scope-count deltas at each boundary
    /// (advisory — see the module docs for the visibility caveat).
    pub fn sample_profile(self, on: bool) -> TelemetryBus {
        self.inner.lock().sample_profile = on;
        self
    }

    /// Attach a consumer; it sees every snapshot published after this
    /// call, in order.
    pub fn attach(&self, sink: Box<dyn TelemetrySink>) {
        self.inner.lock().sinks.push(sink);
    }

    /// The event sink to install on the simulation. Forwards every
    /// event to the internal metrics accumulator, publishing a snapshot
    /// whenever an event's timestamp crosses the next window boundary
    /// (quiet windows collapse into the next active one, so snapshot
    /// count stays bounded by event count). A delivered slice is split at
    /// the boundaries it spans, so each snapshot folds exactly the events
    /// before its boundary.
    pub fn sink(&self) -> EventSink {
        let inner = Arc::clone(&self.inner);
        Arc::new(move |batch: &[Emitted<'_>]| {
            let mut bus = inner.lock();
            let mut from = 0;
            for (i, e) in batch.iter().enumerate() {
                let t = e.at.as_ps();
                if t >= bus.next_boundary {
                    if i > from {
                        (bus.forward)(&batch[from..i]);
                        from = i;
                    }
                    // Publish one window covering everything since the
                    // last publication, up to the interval-grid boundary
                    // at or below `t` (quiet intermediate windows
                    // collapse).
                    let floor = t - (t % bus.interval_ps);
                    bus.publish(floor);
                    bus.next_boundary = floor + bus.interval_ps;
                }
                bus.events_seen += 1;
            }
            if batch.len() > from {
                (bus.forward)(&batch[from..]);
            }
        })
    }

    /// Publish the tail window (anything accumulated since the last
    /// boundary) and return the final frozen report plus the retained
    /// snapshot ring. The tail snapshot is emitted even when empty so
    /// `sum(deltas) == finish().0.totals()` holds exactly.
    pub fn finish(&self) -> (MetricsReport, Vec<TelemetrySnapshot>) {
        let mut bus = self.inner.lock();
        let upto = bus.next_boundary;
        bus.publish(upto);
        (bus.metrics.report(), bus.ring.iter().cloned().collect())
    }

    /// Total snapshots published so far (including any that fell off
    /// the bounded ring).
    pub fn published(&self) -> u64 {
        self.inner.lock().published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offload::ProtoEvent;

    use simnet::{Pid, SimTime};

    fn tick(sink: &EventSink, ps: u64, ev: &ProtoEvent) {
        sink(&[Emitted {
            at: SimTime::from_ps(ps),
            pid: Pid::from_index(0),
            event: ev,
        }]);
    }

    #[test]
    fn deltas_conserve_totals() {
        let bus = TelemetryBus::new(1_000);
        let sink = bus.sink();
        for i in 0..10u64 {
            tick(
                &sink,
                i * 700,
                &ProtoEvent::HostWakeup {
                    rank: 0,
                    intervention: i % 2 == 0,
                },
            );
        }
        let (report, snaps) = bus.finish();
        assert!(snaps.len() >= 2, "several boundaries crossed");
        let sum = |key: &str| -> u64 {
            snaps
                .iter()
                .flat_map(|s| s.deltas.iter())
                .filter(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .sum()
        };
        for (k, v) in report.totals() {
            assert_eq!(sum(k), v, "delta conservation for {k}");
        }
        let seqs: Vec<u64> = snaps.iter().map(|s| s.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "seq strictly increasing");
    }

    #[test]
    fn attached_sink_sees_every_snapshot_in_order() {
        let bus = TelemetryBus::new(500);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        bus.attach(Box::new(move |s: &TelemetrySnapshot| {
            seen2.lock().push(s.seq);
        }));
        let sink = bus.sink();
        for i in 0..5u64 {
            tick(
                &sink,
                i * 600,
                &ProtoEvent::HostWakeup {
                    rank: 0,
                    intervention: false,
                },
            );
        }
        let (_, snaps) = bus.finish();
        let seen = seen.lock().clone();
        assert_eq!(seen.len() as u64, bus.published());
        assert_eq!(seen.len(), snaps.len(), "ring retained everything here");
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ring_is_bounded_but_publication_count_is_not() {
        let bus = TelemetryBus::new(100).with_ring_cap(3);
        let sink = bus.sink();
        for i in 1..=20u64 {
            tick(
                &sink,
                i * 150,
                &ProtoEvent::HostWakeup {
                    rank: 0,
                    intervention: false,
                },
            );
        }
        let (_, snaps) = bus.finish();
        assert_eq!(snaps.len(), 3);
        assert!(bus.published() > 3);
        // The ring keeps the most recent snapshots.
        assert_eq!(snaps.last().unwrap().seq, bus.published());
    }

    #[test]
    fn a_slice_spanning_boundaries_publishes_as_one_event_at_a_time() {
        let ev = |i: u64| ProtoEvent::HostWakeup {
            rank: 0,
            intervention: i.is_multiple_of(3),
        };
        let one_by_one = TelemetryBus::new(1_000);
        let sink = one_by_one.sink();
        for i in 0..20u64 {
            tick(&sink, i * 450, &ev(i));
        }
        let evs: Vec<ProtoEvent> = (0..20).map(ev).collect();
        let sliced = TelemetryBus::new(1_000);
        let batch: Vec<Emitted<'_>> = evs
            .iter()
            .enumerate()
            .map(|(i, e)| Emitted {
                at: SimTime::from_ps(i as u64 * 450),
                pid: Pid::from_index(0),
                event: e,
            })
            .collect();
        sliced.sink()(&batch);
        let (report, snaps) = sliced.finish();
        let (want_report, want_snaps) = one_by_one.finish();
        assert_eq!(snaps, want_snaps);
        assert_eq!(report.totals(), want_report.totals());
        assert!(snaps.len() > 5, "the slice spans several boundaries");
    }

    #[test]
    fn quiet_windows_collapse() {
        let bus = TelemetryBus::new(10);
        let sink = bus.sink();
        tick(
            &sink,
            5,
            &ProtoEvent::HostWakeup {
                rank: 0,
                intervention: false,
            },
        );
        // A huge quiet gap: one snapshot, not 10^6 of them.
        tick(
            &sink,
            10_000_000,
            &ProtoEvent::HostWakeup {
                rank: 0,
                intervention: false,
            },
        );
        let (_, snaps) = bus.finish();
        assert_eq!(snaps.len(), 2, "gap snapshot + tail");
    }
}
