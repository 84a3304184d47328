//! # offload — the paper's DPU communication-offload framework
//!
//! This crate is the reproduction's primary contribution: the framework of
//! *"A Novel Framework for Efficient Offloading of Communication
//! Operations to Bluefield SmartNICs"* (IPDPS 2023), built over the
//! simulated verbs layer in the `rdma` crate.
//!
//! ## The two API families
//!
//! **Basic primitives** (paper Listing 2) offload individual two-sided
//! transfers to a DPU proxy process:
//!
//! ```
//! use offload::{Offload, OffloadConfig};
//! use rdma::{ClusterBuilder, ClusterSpec, Inbox};
//! use simnet::SimDelta;
//!
//! ClusterBuilder::new(ClusterSpec::new(2, 1), 1)
//!     .run_async(
//!         async |rank, ctx, cluster| {
//!             let inbox = Inbox::new();
//!             let off = Offload::init(rank, ctx, cluster, &inbox, OffloadConfig::proposed());
//!             let fab = off.cluster().fabric().clone();
//!             let ep = off.cluster().host_ep(rank);
//!             let buf = fab.alloc(ep, 1024);
//!             let req = if rank == 0 {
//!                 off.send_offload(buf, 1024, 1, 7)
//!             } else {
//!                 off.recv_offload(buf, 1024, 0, 7)
//!             };
//!             off.ctx().compute_async(SimDelta::from_us(100)).await; // DPU progresses meanwhile
//!             off.wait(req).await;
//!             off.finalize().await;
//!         },
//!         Some(offload::proxy_fn(OffloadConfig::proposed())),
//!     )
//!     .unwrap();
//! ```
//!
//! Each rank and each proxy is a future process
//! ([`rdma::ClusterBuilder::run_async`]): every call that can wait for
//! the proxy is an `async fn` (and so is every waiting `minimpi` call a
//! rank makes beside it), and the whole cluster is polled on the calling
//! thread.
//!
//! **Group primitives** (paper Listing 4) record an entire communication
//! graph — including ordering via `group_barrier` — and ship it to the DPU
//! in one packet, giving full overlap with zero CPU intervention even for
//! dependent patterns like a ring broadcast (paper Listing 5):
//!
//! ```text
//! let g = off.group_start();
//! off.group_recv(g, buf, n, left, tag);
//! off.group_barrier(g);
//! off.group_send(g, buf, n, right, tag);
//! off.group_end(g);
//! off.group_call(g).await;
//! do_compute().await;
//! off.group_wait(g).await;
//! ```
//!
//! ## The two mechanisms
//!
//! [`DataPath::Gvmi`] cross-registers host memory on the DPU (mkey →
//! mkey2) so the proxy RDMA-writes host-to-host directly;
//! [`DataPath::Staging`] is the generalized BluesMPI mechanism with a
//! PCIe store-and-forward hop. Registration caches (paper §VII-B) and
//! group metadata caches (§VII-D) amortize the respective overheads and
//! can be disabled for ablations.

#![warn(missing_docs)]

mod config;
mod events;
mod flight;
mod health;
mod host;
mod messages;
mod metrics;
mod patterns;
pub mod profile;
mod proxy;
mod reg_cache;
mod reliable;
mod shmem;

pub use config::{DataPath, FaultPlan, OffloadConfig, TenantId, TenantQuota, TenantSpec};
pub use events::{
    proto_sink, CacheOutcome, CacheSide, CtrlKind, FinKind, HealthPath, HostCacheKind, PathKind,
    ProtoEvent, ReqDir,
};
pub use flight::{parse_flight_dump, replay_into, FlightRecord, FlightRecorder};
pub use health::{BreakerState, HealthConfig};
pub use host::{GroupRequest, Offload, OffloadReq};
pub use metrics::{
    CacheCounters, HealthMetrics, Metrics, MetricsReport, ProxyMetrics, RankMetrics, TenantMetrics,
    WindowMetrics, CACHE_KEYS, HEALTH_KEYS, TENANT_KEYS, TOTAL_KEYS,
};
pub use profile::{ProfileReport, ScopeAgg, PROFILE_SCOPES};
pub use proxy::proxy_fn;
pub use reg_cache::RankAddrCache;
pub use reliable::OffloadError;
pub use shmem::{Shmem, SymAddr};
