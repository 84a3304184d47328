//! Per-message lifecycle reconstruction and group critical-path
//! attribution.
//!
//! The engine's [`offload::ProtoEvent`] stream carries a stable
//! transfer id (`msg_id`) from the moment a host posts a request
//! (`HostReqPosted`) through proxy matching, RDMA writes and FIN
//! delivery back to the host (`HostReqDone`). A [`LifecycleRecorder`]
//! folds that stream as it arrives — one slot per transfer and per
//! window, never a log of events — and [`reconstruct`] runs the same fold
//! over a captured slice. Either yields:
//!
//! * [`MsgTimeline`]s — one per transfer, decomposed into the phase
//!   chain between observed milestones (control delivery, match wait,
//!   queue wait, wire time, FIN processing, FIN delivery), each phase
//!   tagged with *where the time was resident* ([`Residence`]): on the
//!   host CPU, on the DPU proxy, or on the wire.
//! * [`WindowPath`]s — one per group overlap window
//!   (`Group_Offload_call` return → `Group_Wait` satisfied, keyed
//!   `(rank, req, gen)` exactly like `offload::Metrics`), decomposed
//!   into dispatch / wire / FIN segments plus one zero-length
//!   host-resident segment per `HostWakeup { intervention: true }`
//!   that lands inside the window.
//! * log-scaled phase [`Histogram`]s — dependency-free, mergeable
//!   across runs, with p50/p99/max readouts.
//!
//! This makes the paper's central claim mechanically checkable from
//! the event stream alone: a *warm* group window (`gen >= 2`) contains
//! **zero** host-resident segments — the host rings a doorbell, the
//! DPU does everything else — while every completed basic-primitive or
//! staging transfer necessarily contains host-resident phases (the
//! host posts the request and must wake to retire the FIN).
//! [`LifecycleReport::critical_path`] returns the longest recorded
//! window, whose segment chain shows where its time went.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use offload::ProtoEvent;
use simnet::{EventSink, Pid, SimDelta, SimTime};

use crate::json::Json;

/// Schema id stamped on [`LifecycleReport::to_json`] documents.
pub const LIFECYCLE_SCHEMA_ID: &str = "bluefield-offload/lifecycle/v1";

/// Where a phase or segment of a transfer's lifetime was resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residence {
    /// Host CPU involvement was required.
    Host,
    /// The DPU proxy was driving; the host was free.
    Dpu,
    /// Bytes were moving on the fabric.
    Wire,
}

impl Residence {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Residence::Host => "host",
            Residence::Dpu => "dpu",
            Residence::Wire => "wire",
        }
    }
}

/// One phase of a point-to-point transfer's lifecycle, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `HostReqPosted` → control message reaches the proxy
    /// (`RtsAtProxy` / `RtrAtProxy`). Host-resident: the host CPU
    /// built and posted the request.
    CtrlDelivery,
    /// Control at proxy → `PairMatched`: waiting for the peer side.
    MatchWait,
    /// `PairMatched` → first RDMA write posted (send side only).
    QueueWait,
    /// First write posted → last completion: bytes on the wire.
    WireTime,
    /// Last completion → `FinSent`: DPU FIN processing.
    DpuFin,
    /// `FinSent` → `HostReqDone`. Host-resident: the host must wake
    /// (or poll) to retire the request.
    FinDelivery,
}

/// All phases, in causal order.
pub const PHASES: [Phase; 6] = [
    Phase::CtrlDelivery,
    Phase::MatchWait,
    Phase::QueueWait,
    Phase::WireTime,
    Phase::DpuFin,
    Phase::FinDelivery,
];

impl Phase {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CtrlDelivery => "ctrl_delivery",
            Phase::MatchWait => "match_wait",
            Phase::QueueWait => "queue_wait",
            Phase::WireTime => "wire",
            Phase::DpuFin => "dpu_fin",
            Phase::FinDelivery => "fin_delivery",
        }
    }

    /// Where time spent in this phase is resident.
    pub fn residence(self) -> Residence {
        match self {
            Phase::CtrlDelivery | Phase::FinDelivery => Residence::Host,
            Phase::MatchWait | Phase::QueueWait | Phase::DpuFin => Residence::Dpu,
            Phase::WireTime => Residence::Wire,
        }
    }
}

/// A log2-bucketed latency histogram over picosecond durations.
///
/// Dependency-free and mergeable: 65 power-of-two buckets (bucket 0
/// holds exact zeros, bucket `b >= 1` holds `[2^(b-1), 2^b)`), an
/// observation count and the exact maximum. Quantiles report the upper
/// bound of the bucket the quantile falls in, capped at the observed
/// maximum — a conservative estimate with bounded (2x) relative error,
/// which is plenty to separate a nanosecond doorbell from a
/// microsecond staging detour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; 65],
            total: 0,
            max: 0,
        }
    }

    /// Rehydrate a histogram from raw log2 bucket counts plus the exact
    /// maximum — the inverse of repeated [`record`](Histogram::record)
    /// calls for producers (like `offload::profile`) that bucket at the
    /// sample site and only later cross into `obs` for quantiles.
    /// Buckets beyond index 64 are ignored; shorter slices are
    /// zero-padded.
    pub fn from_log2_counts(counts: &[u64], max: u64) -> Histogram {
        let mut h = Histogram::new();
        for (b, &c) in counts.iter().take(h.counts.len()).enumerate() {
            h.counts[b] = c;
            h.total += c;
        }
        h.max = max;
        h
    }

    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Upper bound of bucket `b` (inclusive).
    fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one. Merging is commutative and
    /// associative, so per-shard histograms fold into the same totals
    /// in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): upper bound of the first
    /// bucket at which the cumulative count reaches `ceil(q * total)`,
    /// capped at the observed maximum. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let want = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One reconstructed point-to-point transfer.
#[derive(Clone, Debug)]
pub struct MsgTimeline {
    /// Stable transfer id (`rank << 32 | seq`).
    pub msg_id: u64,
    /// Posting rank.
    pub rank: usize,
    /// Peer rank.
    pub peer: usize,
    /// Matching tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Request direction as posted.
    pub dir: offload::ReqDir,
    /// Phase chain between observed milestones, in causal order.
    pub phases: Vec<(Phase, SimDelta)>,
    /// Whether `HostReqDone` was observed.
    pub completed: bool,
    /// Post → done, when completed.
    pub total: Option<SimDelta>,
}

impl MsgTimeline {
    /// Phases of this timeline resident on the host CPU.
    pub fn host_segments(&self) -> usize {
        self.phases
            .iter()
            .filter(|(p, _)| p.residence() == Residence::Host)
            .count()
    }
}

/// One attributed span inside a group overlap window.
#[derive(Clone, Debug)]
pub struct Segment {
    /// What the span covers.
    pub label: &'static str,
    /// Where its time was resident.
    pub residence: Residence,
    /// Span duration.
    pub dur: SimDelta,
}

/// The reconstructed critical path of one group overlap window:
/// `Group_Offload_call` return → `Group_Wait` satisfied.
#[derive(Clone, Debug)]
pub struct WindowPath {
    /// Host rank that owns the window.
    pub rank: usize,
    /// Group request id.
    pub req_id: usize,
    /// Generation (1-based; `gen >= 2` is warm).
    pub gen: u64,
    /// Segment chain from open to close.
    pub segments: Vec<Segment>,
    /// Whether `Group_Wait` closed the window.
    pub closed: bool,
    /// Open → close, when closed.
    pub total: SimDelta,
}

impl WindowPath {
    /// Host-resident segments inside the window. The paper's claim:
    /// zero for every warm window.
    pub fn host_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.residence == Residence::Host)
            .count()
    }

    /// Whether every cache is warm for this window (`gen >= 2`).
    pub fn is_warm(&self) -> bool {
        self.gen >= 2
    }
}

/// The state timeline of one circuit breaker, reconstructed from the
/// `BreakerTripped` / `BreakerHalfOpen` / `BreakerClosed` transition
/// events (DESIGN.md §19). Breakers start implicitly closed, so the
/// first transition is normally to [`offload::BreakerState::Open`].
#[derive(Clone, Debug)]
pub struct BreakerTimeline {
    /// Scheduler pid of the process owning the breaker (a proxy for
    /// data paths, a host for the ctrl path).
    pub pid: usize,
    /// Peer rank the breaker guards.
    pub peer: usize,
    /// Which path class it guards.
    pub path: offload::HealthPath,
    /// `(time, entered state)` transitions, in emission order.
    pub transitions: Vec<(SimTime, offload::BreakerState)>,
}

impl BreakerTimeline {
    /// Whether the breaker ended the run closed (recovered or never
    /// left the initial closed state).
    pub fn recovered(&self) -> bool {
        self.transitions
            .last()
            .map(|&(_, s)| s == offload::BreakerState::Closed)
            .unwrap_or(true)
    }

    /// Number of closed → open trips in the timeline.
    pub fn trips(&self) -> usize {
        self.transitions
            .iter()
            .filter(|&&(_, s)| s == offload::BreakerState::Open)
            .count()
    }
}

/// Everything [`reconstruct`] derives from one event stream.
#[derive(Clone, Debug, Default)]
pub struct LifecycleReport {
    /// Per-transfer timelines, ordered by `msg_id`.
    pub timelines: Vec<MsgTimeline>,
    /// Per-window critical paths, ordered by `(rank, req_id, gen)`.
    pub windows: Vec<WindowPath>,
    /// Per-breaker state timelines, ordered by `(pid, peer, path)`.
    /// Empty unless the fabric health engine acted (breakers default
    /// off), which keeps pre-health JSON byte-identical.
    pub breakers: Vec<BreakerTimeline>,
}

impl LifecycleReport {
    /// Phase-latency histograms folded over every timeline, in
    /// [`PHASES`] order.
    pub fn phase_histograms(&self) -> Vec<(Phase, Histogram)> {
        let mut hists: BTreeMap<Phase, Histogram> = BTreeMap::new();
        for t in &self.timelines {
            for &(p, d) in &t.phases {
                hists.entry(p).or_default().record(d.as_ps());
            }
        }
        PHASES
            .iter()
            .filter_map(|&p| hists.get(&p).map(|h| (p, h.clone())))
            .collect()
    }

    /// Closed-group-window duration histograms folded per tenant by a
    /// rank→tenant map (ranks absent from the map are skipped). The
    /// noisy-neighbor isolation gate reads a victim tenant's p99 here
    /// and compares it against the same tenant's solo-run p99.
    pub fn tenant_window_histograms(
        &self,
        tenant_of: &BTreeMap<usize, usize>,
    ) -> BTreeMap<usize, Histogram> {
        let mut out: BTreeMap<usize, Histogram> = BTreeMap::new();
        for w in self.windows.iter().filter(|w| w.closed) {
            if let Some(&t) = tenant_of.get(&w.rank) {
                out.entry(t).or_default().record(w.total.as_ps());
            }
        }
        out
    }

    /// The longest closed window — the run's group critical path. Its
    /// segment chain shows where the window's time went.
    pub fn critical_path(&self) -> Option<&WindowPath> {
        self.windows
            .iter()
            .filter(|w| w.closed)
            .max_by_key(|w| w.total.as_ps())
    }

    /// Render as a `bluefield-offload/lifecycle/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let completed = self.timelines.iter().filter(|t| t.completed).count();
        let phases = Json::Arr(
            self.phase_histograms()
                .iter()
                .map(|(p, h)| {
                    Json::Obj(vec![
                        ("phase".into(), Json::Str(p.name().into())),
                        ("residence".into(), Json::Str(p.residence().name().into())),
                        ("count".into(), Json::Num(h.count() as f64)),
                        ("p50_ps".into(), Json::Num(h.p50() as f64)),
                        ("p99_ps".into(), Json::Num(h.p99() as f64)),
                        ("max_ps".into(), Json::Num(h.max() as f64)),
                    ])
                })
                .collect(),
        );
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("rank".into(), Json::Num(w.rank as f64)),
                        ("req_id".into(), Json::Num(w.req_id as f64)),
                        ("gen".into(), Json::Num(w.gen as f64)),
                        ("warm".into(), Json::Bool(w.is_warm())),
                        ("closed".into(), Json::Bool(w.closed)),
                        ("total_ps".into(), Json::Num(w.total.as_ps() as f64)),
                        ("host_segments".into(), Json::Num(w.host_segments() as f64)),
                        (
                            "segments".into(),
                            Json::Arr(
                                w.segments
                                    .iter()
                                    .map(|s| {
                                        Json::Obj(vec![
                                            ("label".into(), Json::Str(s.label.into())),
                                            (
                                                "residence".into(),
                                                Json::Str(s.residence.name().into()),
                                            ),
                                            ("dur_ps".into(), Json::Num(s.dur.as_ps() as f64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let mut members = vec![
            ("schema".into(), Json::Str(LIFECYCLE_SCHEMA_ID.into())),
            (
                "messages".into(),
                Json::Obj(vec![
                    ("count".into(), Json::Num(self.timelines.len() as f64)),
                    ("completed".into(), Json::Num(completed as f64)),
                ]),
            ),
            ("phases".into(), phases),
            ("windows".into(), windows),
        ];
        // Optional section, mirroring the metrics schema's `health`
        // object: only runs where a breaker transitioned carry it.
        if !self.breakers.is_empty() {
            let breakers = Json::Arr(
                self.breakers
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("pid".into(), Json::Num(b.pid as f64)),
                            ("peer".into(), Json::Num(b.peer as f64)),
                            ("path".into(), Json::Str(b.path.name().into())),
                            ("recovered".into(), Json::Bool(b.recovered())),
                            ("trips".into(), Json::Num(b.trips() as f64)),
                            (
                                "transitions".into(),
                                Json::Arr(
                                    b.transitions
                                        .iter()
                                        .map(|&(at, s)| {
                                            Json::Obj(vec![
                                                ("at_ps".into(), Json::Num(at.as_ps() as f64)),
                                                (
                                                    "state".into(),
                                                    Json::Str(breaker_state_name(s).into()),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            );
            members.push(("breakers".into(), breakers));
        }
        Json::Obj(members)
    }
}

/// Stable lowercase name of a breaker state for reports.
fn breaker_state_name(s: offload::BreakerState) -> &'static str {
    match s {
        offload::BreakerState::Closed => "closed",
        offload::BreakerState::Open => "open",
        offload::BreakerState::HalfOpen => "half_open",
    }
}

/// An [`EventSink`] that folds the `(time, pid, event)` stream into
/// lifecycle state as it arrives. It keeps one slot per transfer and one
/// per window, never the events themselves, so its memory follows the
/// number of messages rather than the number of events; unlike
/// `offload::FlightRecorder` it forgets nothing a report needs, which
/// makes it an analysis tool, not an always-on black box.
#[derive(Clone, Default)]
pub struct LifecycleRecorder {
    inner: Arc<Mutex<Fold>>,
}

impl LifecycleRecorder {
    /// A fresh recorder.
    pub fn new() -> LifecycleRecorder {
        LifecycleRecorder::default()
    }

    /// The sink to install on a simulation (compose with other sinks
    /// via `workloads::fanout`). Non-`ProtoEvent` payloads are ignored.
    pub fn sink(&self) -> EventSink {
        offload::proto_sink(Arc::clone(&self.inner), Fold::on_event)
    }

    /// Number of events folded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().events
    }

    /// Whether nothing was folded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timelines and window paths of the stream so far; may be called
    /// any number of times, mid-run included, where "so far" lags the run
    /// by the events of the engine's batch not yet delivered (fewer than
    /// `simnet::EMIT_BATCH`).
    pub fn report(&self) -> LifecycleReport {
        self.inner.lock().report()
    }
}

/// Reconstruct per-message timelines and group window paths from a
/// captured event stream: the recorder's fold, run over a slice. The
/// stream must be in emission order (which any [`EventSink`] sees);
/// events are never reordered.
pub fn reconstruct(events: &[(SimTime, Pid, ProtoEvent)]) -> LifecycleReport {
    let mut fold = Fold::default();
    for (at, pid, ev) in events {
        fold.on_event(*at, *pid, ev);
    }
    fold.report()
}

/// Slots per page of a [`Pages`] table.
const PAGE_BITS: u32 = 9;

/// A table indexed densely by `(prefix, id)` for ids a counter hands
/// out: transfer ids `rank << 32 | seq` (prefix 0) and per-proxy work
/// request ids (prefix = the proxy's pid). Pages of `1 << PAGE_BITS`
/// slots are allocated on first write, so a stray id costs one page, and
/// iteration runs in ascending `(prefix, id)` order.
struct Pages<T> {
    pages: BTreeMap<(u64, u64), Box<[Option<T>]>>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages {
            pages: BTreeMap::new(),
        }
    }
}

impl<T> Pages<T> {
    fn split(prefix: u64, id: u64) -> ((u64, u64), usize) {
        let slot = (id % (1 << PAGE_BITS)) as usize;
        ((prefix, id >> PAGE_BITS), slot)
    }

    fn get(&self, prefix: u64, id: u64) -> Option<&T> {
        let (page, slot) = Self::split(prefix, id);
        self.pages.get(&page)?[slot].as_ref()
    }

    fn get_mut(&mut self, prefix: u64, id: u64) -> Option<&mut T> {
        let (page, slot) = Self::split(prefix, id);
        self.pages.get_mut(&page)?[slot].as_mut()
    }

    /// The slot of `(prefix, id)`, allocating its page if needed.
    fn slot(&mut self, prefix: u64, id: u64) -> &mut Option<T> {
        let (page, slot) = Self::split(prefix, id);
        &mut self.pages.entry(page).or_insert_with(|| {
            std::iter::repeat_with(|| None)
                .take(1 << PAGE_BITS)
                .collect()
        })[slot]
    }

    /// `(id, value)` of every filled slot, ascending.
    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.pages.iter().flat_map(|(&(_, hi), page)| {
            page.iter()
                .enumerate()
                .filter_map(move |(i, t)| Some(((hi << PAGE_BITS) | i as u64, t.as_ref()?)))
        })
    }
}

/// When a transfer reached one of its phase boundaries, if it has: half
/// the size of an `Option<SimTime>`, which matters at one slot per
/// transfer. No run reaches `u64::MAX` ps (213 days), which stands for
/// "not yet".
#[derive(Clone, Copy)]
struct Mark(u64);

impl Mark {
    const UNSET: Mark = Mark(u64::MAX);

    fn get(self) -> Option<SimTime> {
        (self.0 != u64::MAX).then(|| SimTime::from_ps(self.0))
    }

    fn set(&mut self, at: SimTime) {
        self.0 = at.as_ps();
    }

    /// Set unless already set: the first time wins.
    fn set_first(&mut self, at: SimTime) {
        if self.0 == u64::MAX {
            self.set(at);
        }
    }
}

struct MsgState {
    rank: usize,
    peer: usize,
    tag: u64,
    bytes: u64,
    dir: offload::ReqDir,
    t_post: SimTime,
    t_ctrl: Mark,
    t_match: Mark,
    t_first_write: Mark,
    t_last_complete: Mark,
    t_fin: Mark,
    t_done: Mark,
}

struct WinState {
    t_open: SimTime,
    t_first_write: Option<SimTime>,
    t_last_complete: Option<SimTime>,
    t_fin: Option<SimTime>,
    t_close: Option<SimTime>,
    interventions: u64,
}

impl WinState {
    fn open(at: SimTime) -> WinState {
        WinState {
            t_open: at,
            t_first_write: None,
            t_last_complete: None,
            t_fin: None,
            t_close: None,
            interventions: 0,
        }
    }
}

/// What a posted work request's completion belongs to.
#[derive(Clone, Copy)]
enum Join {
    /// A basic (or one-sided) transfer's data write.
    Msg(u64),
    /// A group wire entry, by index into [`Fold::windows`].
    Window(usize),
}

/// The lifecycle fold: per-transfer and per-window state, updated in
/// place by each event.
#[derive(Default)]
struct Fold {
    events: usize,
    msgs: Pages<MsgState>,
    /// `(proxy pid, wrid)` → what its completion closes.
    joins: Pages<Join>,
    windows: Vec<WinState>,
    /// `(rank, req, gen)` → index into `windows`.
    window_ids: BTreeMap<(usize, usize, u64), usize>,
    /// Open windows per rank as `(req, gen, index)`, oldest first,
    /// mirroring `offload::Metrics`.
    open: BTreeMap<usize, Vec<(usize, u64, usize)>>,
    /// (pid, peer, path) → breaker state transitions.
    breakers: BTreeMap<(usize, usize, offload::HealthPath), Vec<(SimTime, offload::BreakerState)>>,
}

impl Fold {
    fn msg(&mut self, msg_id: u64) -> Option<&mut MsgState> {
        self.msgs.get_mut(0, msg_id)
    }

    fn on_event(&mut self, at: SimTime, pid: Pid, ev: &ProtoEvent) {
        self.events += 1;
        match *ev {
            ProtoEvent::HostReqPosted {
                rank,
                msg_id,
                peer,
                tag,
                bytes,
                dir,
            } => {
                *self.msgs.slot(0, msg_id) = Some(MsgState {
                    rank,
                    peer,
                    tag,
                    bytes,
                    dir,
                    t_post: at,
                    t_ctrl: Mark::UNSET,
                    t_match: Mark::UNSET,
                    t_first_write: Mark::UNSET,
                    t_last_complete: Mark::UNSET,
                    t_fin: Mark::UNSET,
                    t_done: Mark::UNSET,
                });
            }
            ProtoEvent::RtsAtProxy { msg_id, .. } | ProtoEvent::RtrAtProxy { msg_id, .. } => {
                if let Some(m) = self.msg(msg_id) {
                    m.t_ctrl.set_first(at);
                }
            }
            ProtoEvent::PairMatched {
                send_msg_id,
                recv_msg_id,
                ..
            } => {
                for id in [send_msg_id, recv_msg_id] {
                    if let Some(m) = self.msg(id) {
                        m.t_match.set_first(at);
                    }
                }
            }
            ProtoEvent::WritePosted { wrid, msg_id, .. } => {
                let proxy = pid.index() as u64;
                if let Some(m) = self.msg(msg_id) {
                    m.t_first_write.set_first(at);
                    *self.joins.slot(proxy, wrid) = Some(Join::Msg(msg_id));
                } else {
                    // A group wire entry: its id was allocated by the
                    // owning host without a `HostReqPosted`. Attribute
                    // it to that rank's oldest open window.
                    let owner = (msg_id >> 32) as usize;
                    if let Some(&(_, _, w)) = self.open.get(&owner).and_then(|v| v.first()) {
                        self.windows[w].t_first_write.get_or_insert(at);
                        let join = self.joins.slot(proxy, wrid);
                        // A transfer's claim on a wrid outranks a window's.
                        if !matches!(join, Some(Join::Msg(_))) {
                            *join = Some(Join::Window(w));
                        }
                    }
                }
            }
            ProtoEvent::WriteCompleted { wrid } => {
                match self.joins.get(pid.index() as u64, wrid).copied() {
                    Some(Join::Msg(msg_id)) => {
                        if let Some(m) = self.msg(msg_id) {
                            m.t_last_complete.set(at);
                        }
                    }
                    Some(Join::Window(w)) => self.windows[w].t_last_complete = Some(at),
                    None => {}
                }
            }
            ProtoEvent::FinSent {
                rank,
                req,
                kind,
                msg_id,
                ..
            } => {
                if kind == offload::FinKind::Group {
                    if let Some(&(_, _, w)) = self
                        .open
                        .get(&rank)
                        .and_then(|v| v.iter().find(|&&(r, _, _)| r == req))
                    {
                        self.windows[w].t_fin = Some(at);
                    }
                } else if let Some(m) = self.msg(msg_id) {
                    m.t_fin.set(at);
                }
            }
            ProtoEvent::HostReqDone { msg_id, .. } => {
                if let Some(m) = self.msg(msg_id) {
                    m.t_done.set(at);
                }
            }
            ProtoEvent::HostWakeup { rank, intervention } if intervention => {
                if let Some(v) = self.open.get(&rank) {
                    for &(_, _, w) in v {
                        self.windows[w].interventions += 1;
                    }
                }
            }
            ProtoEvent::GroupCallReturned {
                host_rank,
                req_id,
                gen,
            } => {
                let next = self.windows.len();
                let w = *self
                    .window_ids
                    .entry((host_rank, req_id, gen))
                    .or_insert(next);
                if w == next {
                    self.windows.push(WinState::open(at));
                } else {
                    self.windows[w] = WinState::open(at);
                }
                self.open
                    .entry(host_rank)
                    .or_default()
                    .push((req_id, gen, w));
            }
            ProtoEvent::GroupWaitDone {
                host_rank,
                req_id,
                gen,
            } => {
                if let Some(&w) = self.window_ids.get(&(host_rank, req_id, gen)) {
                    self.windows[w].t_close = Some(at);
                }
                if let Some(v) = self.open.get_mut(&host_rank) {
                    v.retain(|&(r, g, _)| !(r == req_id && g == gen));
                }
            }
            ProtoEvent::BreakerTripped { peer, path } => {
                self.transition(at, pid, peer, path, offload::BreakerState::Open)
            }
            ProtoEvent::BreakerHalfOpen { peer, path } => {
                self.transition(at, pid, peer, path, offload::BreakerState::HalfOpen)
            }
            ProtoEvent::BreakerClosed { peer, path } => {
                self.transition(at, pid, peer, path, offload::BreakerState::Closed)
            }
            _ => {}
        }
    }

    fn transition(
        &mut self,
        at: SimTime,
        pid: Pid,
        peer: usize,
        path: offload::HealthPath,
        state: offload::BreakerState,
    ) {
        self.breakers
            .entry((pid.index(), peer, path))
            .or_default()
            .push((at, state));
    }

    fn report(&self) -> LifecycleReport {
        let timelines = self
            .msgs
            .iter()
            .map(|(msg_id, m)| timeline(msg_id, m))
            .collect();
        let windows = self
            .window_ids
            .iter()
            .map(|(&key, &w)| window_path(key, &self.windows[w]))
            .collect();
        let breakers = self
            .breakers
            .iter()
            .map(|(&(pid, peer, path), transitions)| BreakerTimeline {
                pid,
                peer,
                path,
                transitions: transitions.clone(),
            })
            .collect();
        LifecycleReport {
            timelines,
            windows,
            breakers,
        }
    }
}

fn timeline(msg_id: u64, m: &MsgState) -> MsgTimeline {
    let mut phases = Vec::new();
    let mut prev = m.t_post;
    let milestones: [(Option<SimTime>, Phase); 6] = [
        (m.t_ctrl.get(), Phase::CtrlDelivery),
        (m.t_match.get(), Phase::MatchWait),
        (m.t_first_write.get(), Phase::QueueWait),
        (m.t_last_complete.get(), Phase::WireTime),
        (m.t_fin.get(), Phase::DpuFin),
        (m.t_done.get(), Phase::FinDelivery),
    ];
    for (t, phase) in milestones {
        if let Some(t) = t {
            phases.push((phase, t.saturating_since(prev)));
            prev = t;
        }
    }
    MsgTimeline {
        msg_id,
        rank: m.rank,
        peer: m.peer,
        tag: m.tag,
        bytes: m.bytes,
        dir: m.dir,
        phases,
        completed: m.t_done.get().is_some(),
        total: m.t_done.get().map(|t| t.saturating_since(m.t_post)),
    }
}

fn window_path((rank, req_id, gen): (usize, usize, u64), w: &WinState) -> WindowPath {
    let mut segments = Vec::new();
    let mut prev = w.t_open;
    let milestones: [(Option<SimTime>, &'static str, Residence); 4] = [
        (w.t_first_write, "dispatch", Residence::Dpu),
        (w.t_last_complete, "wire", Residence::Wire),
        (w.t_fin, "dpu_fin", Residence::Dpu),
        (w.t_close, "wait_close", Residence::Dpu),
    ];
    for (t, label, residence) in milestones {
        if let Some(t) = t {
            segments.push(Segment {
                label,
                residence,
                dur: t.saturating_since(prev),
            });
            prev = t;
        }
    }
    for _ in 0..w.interventions {
        segments.push(Segment {
            label: "host_intervention",
            residence: Residence::Host,
            dur: SimDelta::from_ps(0),
        });
    }
    WindowPath {
        rank,
        req_id,
        gen,
        segments,
        closed: w.t_close.is_some(),
        total: w
            .t_close
            .map(|t| t.saturating_since(w.t_open))
            .unwrap_or(SimDelta::from_ps(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // p50 of 6 obs → 3rd smallest (2) → bucket [2,3] upper bound 3.
        assert_eq!(h.p50(), 3);
    }

    #[test]
    fn tenant_window_histograms_fold_by_rank_map() {
        let mk = |rank: usize, total_ps: u64, closed: bool| WindowPath {
            rank,
            req_id: 0,
            gen: 1,
            segments: Vec::new(),
            closed,
            total: SimDelta::from_ps(total_ps),
        };
        let report = LifecycleReport {
            timelines: Vec::new(),
            breakers: Vec::new(),
            windows: vec![
                mk(0, 100, true),
                mk(1, 2_000, true),
                mk(0, 300, true),
                mk(1, 9_999, false), // open windows don't count
                mk(7, 5, true),      // rank outside the map is skipped
            ],
        };
        let map: BTreeMap<usize, usize> = [(0, 0), (1, 1)].into_iter().collect();
        let hists = report.tenant_window_histograms(&map);
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[&0].count(), 2);
        assert_eq!(hists[&0].max(), 300);
        assert_eq!(hists[&1].count(), 1);
        assert_eq!(hists[&1].max(), 2_000);
    }

    #[test]
    fn breaker_timelines_reconstruct_and_gate_the_json_section() {
        use offload::{BreakerState, HealthPath};
        use simnet::Pid;
        let t = |ps: u64| SimTime::from_ps(ps);
        let p = Pid::from_index(2);
        // No breaker events: no timelines, no "breakers" JSON member.
        let empty = reconstruct(&[]);
        assert!(empty.breakers.is_empty());
        let json = empty.to_json().render();
        assert!(!json.contains("breakers"));
        // Trip → half-open → close on one path; an unrecovered trip on
        // another.
        let events = vec![
            (
                t(10),
                p,
                ProtoEvent::BreakerTripped {
                    peer: 1,
                    path: HealthPath::CrossGvmi,
                },
            ),
            (
                t(20),
                p,
                ProtoEvent::BreakerHalfOpen {
                    peer: 1,
                    path: HealthPath::CrossGvmi,
                },
            ),
            (
                t(30),
                p,
                ProtoEvent::BreakerClosed {
                    peer: 1,
                    path: HealthPath::CrossGvmi,
                },
            ),
            (
                t(40),
                p,
                ProtoEvent::BreakerTripped {
                    peer: 3,
                    path: HealthPath::Staging,
                },
            ),
        ];
        let report = reconstruct(&events);
        assert_eq!(report.breakers.len(), 2);
        let cg = &report.breakers[0];
        assert_eq!((cg.pid, cg.peer, cg.path), (2, 1, HealthPath::CrossGvmi));
        assert_eq!(
            cg.transitions,
            vec![
                (t(10), BreakerState::Open),
                (t(20), BreakerState::HalfOpen),
                (t(30), BreakerState::Closed),
            ]
        );
        assert!(cg.recovered());
        assert_eq!(cg.trips(), 1);
        let st = &report.breakers[1];
        assert_eq!(st.path, HealthPath::Staging);
        assert!(!st.recovered());
        let json = report.to_json().render();
        assert!(json.contains("\"breakers\""));
        assert!(json.contains("\"half_open\""));
        assert!(json.contains("\"cross_gvmi\""));
    }

    #[test]
    fn histogram_merge_matches_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5, 9, 12] {
            a.record(v);
            both.record(v);
        }
        for v in [100, 200] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
