//! Observability: trace export, metrics-schema validation, and
//! causal-lifecycle analysis.
//!
//! `obs` sits downstream of the engine crates. It knows how to turn a
//! [`simnet::Report`] trace into a Chrome-trace / Perfetto JSON file
//! ([`chrome_trace`]) and how to validate the machine-readable metrics
//! documents that [`offload::MetricsReport::to_json`] produces against
//! the `bluefield-offload/metrics/v1` schema ([`validate_metrics`]).
//! The JSON plumbing is a tiny hand-rolled value/parser/writer
//! ([`json`]) because the build environment is offline and the
//! workspace carries no `serde`.
//!
//! The [`lifecycle`] module reconstructs per-transfer timelines and
//! group-window critical paths from the engine's causally-tagged
//! event stream (see `offload::ProtoEvent`'s `msg_id` fields), with
//! mergeable log-scaled phase histograms. The [`telemetry`] bus slices
//! that stream into windows of counter deltas.
//!
//! Wall-clock attribution is not here: `core`'s span profiler
//! (`offload::profile`) counts scope entries and self time, and
//! `benchmark/` reports them as `core.<scope>.*` keys, named from the
//! [`PROFILE_SCOPES`] re-exported below.

#![warn(missing_docs)]

mod chrome;
pub mod json;
pub mod lifecycle;
mod schema;
pub mod telemetry;

pub use chrome::chrome_trace;
pub use json::{parse, Json};
pub use lifecycle::{
    reconstruct, BreakerTimeline, Histogram, LifecycleRecorder, LifecycleReport, MsgTimeline,
    Phase, Residence, Segment, WindowPath, LIFECYCLE_SCHEMA_ID, PHASES,
};
pub use offload::PROFILE_SCOPES;
pub use schema::{validate_metrics, HEALTH_KEYS, SCHEMA_ID, TENANT_KEYS};
pub use telemetry::{TelemetryBus, TelemetrySink, TelemetrySnapshot};
