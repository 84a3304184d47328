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
//! mergeable log-scaled phase histograms.

#![warn(missing_docs)]

mod chrome;
pub mod json;
pub mod lifecycle;
pub mod profile;
mod schema;
pub mod telemetry;

pub use chrome::chrome_trace;
pub use json::{parse, Json};
pub use lifecycle::{
    reconstruct, BreakerTimeline, Histogram, LifecycleRecorder, LifecycleReport, MsgTimeline,
    Phase, Residence, Segment, WindowPath, LIFECYCLE_SCHEMA_ID, PHASES,
};
pub use profile::{render_profile, ProfileDoc};
pub use schema::{
    validate_metrics, validate_profile, HEALTH_KEYS, PROFILE_SCHEMA_ID, PROFILE_SCOPES, SCHEMA_ID,
    TENANT_KEYS,
};
pub use telemetry::{TelemetryBus, TelemetrySink, TelemetrySnapshot};
