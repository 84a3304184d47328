//! Fold the [`ProtoEvent`] stream into per-rank / per-proxy counters.
//!
//! The paper's headline claims — perfect compute/communication overlap
//! with zero CPU intervention (Figs. 12/14), registration-cache
//! amortization (§VII-B, Fig. 5), once-only group-metadata exchange
//! (§VII-D) — are *counters*, not timings. [`Metrics`] is an
//! [`EventSink`] that accumulates exactly those counters during a run;
//! [`Metrics::report`] freezes them into a [`MetricsReport`] once every
//! rank has passed `Finalize_Offload`, and
//! [`MetricsReport::to_json`] renders the stable machine-readable form
//! benchmarks drop into `bench_results/` (schema
//! `bluefield-offload/metrics/v1`, validated by `cargo xtask
//! validate-metrics`).
//!
//! The aggregation is deterministic: every container is a `BTreeMap`, so
//! two same-seed runs serialize to byte-identical JSON (asserted in
//! `tests/determinism.rs`; it is what lets `bench-diff` hold a fresh run
//! to the committed `bench_results/`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{EventSink, Pid, SimTime};

use crate::events::{
    proto_sink, CacheOutcome, CacheSide, FinKind, HostCacheKind, PathKind, ProtoEvent,
};

/// Declares a report struct whose leading fields are one section of the
/// `bluefield-offload/metrics/v1` document. The fields, the section's key
/// list (`$KEYS`, which `obs::schema` validates documents against) and
/// its ordered key/value view (`$kv`, which [`MetricsReport::to_json`]
/// and the telemetry bus write from) all expand from the one list, so a
/// counter cannot be in the struct and missing from the schema or the
/// JSON. Fields after `..` are ordinary and belong to no section.
macro_rules! keyed_counters {
    (
        $(#[$smeta:meta])*
        pub struct $Name:ident [$KEYS:ident, $kv:ident] {
            $( $(#[$kmeta:meta])* pub $key:ident: $kty:ty, )*
            $( .. $( $(#[$rmeta:meta])* pub $rest:ident: $rty:ty, )* )?
        }
    ) => {
        $(#[$smeta])*
        pub struct $Name {
            $( $(#[$kmeta])* pub $key: $kty, )*
            $($( $(#[$rmeta])* pub $rest: $rty, )*)?
        }

        #[doc = concat!(
            "Keys of [`", stringify!($Name), "::", stringify!($kv), "`], in document order."
        )]
        pub const $KEYS: &[&str] = &[$(stringify!($key)),*];

        impl $Name {
            #[doc = concat!(
                "The section as ordered key/value pairs: the keys and order of [`",
                stringify!($KEYS), "`]."
            )]
            pub fn $kv(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($key), self.$key as u64)),*]
            }
        }
    };
}

keyed_counters! {
    /// Hit/miss/stale/eviction totals of one registration cache — one
    /// member of the `caches` object.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct CacheCounters [CACHE_KEYS, kv] {
        /// Lookups answered from the cache.
        pub hits: u64,
        /// Lookups that found nothing.
        pub misses: u64,
        /// Lookups that found an invalid entry (evicted on the spot).
        pub stale: u64,
        /// Entries displaced by capacity or staleness.
        pub evictions: u64,
    }
}

impl CacheCounters {
    /// Total lookups: `hits + misses + stale` (the conservation law the
    /// property tests assert).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.stale
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.hits as f64 / l as f64
        }
    }
}

/// Counters attributed to one host rank.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RankMetrics {
    /// The rank.
    pub rank: usize,
    /// Control messages this host's CPU processed.
    pub wakeups: u64,
    /// Wakeups that found offloaded work still outstanding.
    pub interventions: u64,
    /// `FinSend` notices addressed to this rank.
    pub fin_send: u64,
    /// `FinRecv` notices addressed to this rank.
    pub fin_recv: u64,
    /// `GroupFin` notices addressed to this rank.
    pub fin_group: u64,
    /// The rank completed `Finalize_Offload`.
    pub finalized: bool,
}

/// Host activity inside one overlap window — the interval between
/// `Group_Offload_call` returning and `Group_Wait` observing completion
/// for one generation. The paper claims zero interventions here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowMetrics {
    /// Rank owning the group request.
    pub rank: usize,
    /// Group request id on that rank.
    pub req_id: usize,
    /// Generation (1-based; `gen >= 2` means every cache is warm).
    pub gen: u64,
    /// Host wakeups that landed inside the window.
    pub wakeups: u64,
    /// Wakeups inside the window with work still outstanding.
    pub interventions: u64,
    /// `Group_Wait` closed the window.
    pub closed: bool,
}

keyed_counters! {
    /// Counters folded per tenant (DESIGN.md §18) — one row of the
    /// optional `tenants` array. Populated only when a multi-tenant
    /// rank→tenant map is installed via [`Metrics::set_tenant_map`];
    /// single-tenant reports carry no tenant rows so their JSON stays
    /// byte-identical to pre-tenant baselines.
    #[derive(Clone, Default, PartialEq, Eq, Debug)]
    pub struct TenantMetrics [TENANT_KEYS, kv] {
        /// The tenant id.
        pub tenant: usize,
        /// Ranks mapped to this tenant.
        pub ranks: u64,
        /// Host CPU wakeups across the tenant's ranks.
        pub wakeups: u64,
        /// Wakeups with offloaded work still outstanding.
        pub interventions: u64,
        /// `FinSend` notices addressed to the tenant's ranks.
        pub fin_send: u64,
        /// `FinRecv` notices addressed to the tenant's ranks.
        pub fin_recv: u64,
        /// `GroupFin` notices addressed to the tenant's ranks.
        pub fin_group: u64,
        /// Posts the tenant's ranks deferred into the credit queue.
        pub credit_deferrals: u64,
        /// Posts shed at admission because the tenant was over its hard
        /// quota.
        pub quota_sheds: u64,
        /// Deferred posts the credit FIFO flush admitted for this tenant.
        pub drr_grants: u64,
    }
}

keyed_counters! {
    /// Circuit-breaker and retry-budget totals (DESIGN.md §19) — the
    /// optional `health` object. All zero — and absent from the JSON —
    /// unless [`crate::HealthConfig`] is armed and the fabric actually
    /// degrades, so clean-run reports stay byte-identical to pre-health
    /// baselines.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct HealthMetrics [HEALTH_KEYS, kv] {
        /// Breakers that tripped closed → open.
        pub breaker_trips: u64,
        /// Open breakers that entered the half-open probing state.
        pub breaker_half_opens: u64,
        /// Half-open breakers that closed after a successful probe.
        pub breaker_closes: u64,
        /// Probe transfers admitted through half-open breakers.
        pub breaker_probes: u64,
        /// Posts rerouted around an open breaker (cross-GVMI → staging,
        /// staging → host-direct) without a per-message failure round-trip.
        pub breaker_fastpaths: u64,
        /// Transfers shed by a per-peer retry budget (ctrl or data plane).
        pub retry_budget_sheds: u64,
    }
}

impl HealthMetrics {
    /// True when the health engine acted at all this run.
    pub fn any(&self) -> bool {
        *self != HealthMetrics::default()
    }
}

/// Counters attributed to one DPU proxy process.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ProxyMetrics {
    /// Scheduler pid of the proxy process.
    pub pid: usize,
    /// RTS control messages accepted.
    pub rts: u64,
    /// RTR control messages accepted.
    pub rtr: u64,
    /// RTS/RTR pairs matched.
    pub pairs_matched: u64,
    /// RDMA work requests posted (writes and reads).
    pub writes_posted: u64,
    /// Completions observed for those work requests.
    pub writes_completed: u64,
    /// Payload bytes moved host-to-host through cross-GVMI.
    pub bytes_cross_gvmi: u64,
    /// Payload bytes pulled into staging buffers (hop 1).
    pub bytes_staging_hop1: u64,
    /// Payload bytes forwarded out of staging buffers (hop 2).
    pub bytes_staging_hop2: u64,
    /// High-water mark of the pending-send (RTS) queues.
    pub send_q_hwm: u64,
    /// High-water mark of the pending-receive (RTR) queues.
    pub recv_q_hwm: u64,
    /// Barrier entries that blocked at least once.
    pub barrier_stalls: u64,
    /// Malformed control messages dropped by `decode_ctrl`.
    pub ctrl_dropped: u64,
}

#[derive(Default)]
struct Inner {
    /// What [`Inner::on_event`] counts directly — scalar totals, cache
    /// and health counters — accumulated in the report they are published
    /// in. The totals folded from the rows below, and the rows
    /// themselves, stay empty here; [`Metrics::report`] fills them in.
    totals: MetricsReport,
    ranks: BTreeMap<usize, RankMetrics>,
    proxies: BTreeMap<usize, ProxyMetrics>,
    /// `(rank, req_id, gen)` → window; insertion keyed so report order is
    /// stable.
    windows: BTreeMap<(usize, usize, u64), WindowMetrics>,
    /// Open windows per rank: `(req_id, gen)` pairs awaiting
    /// `GroupWaitDone`.
    open_windows: BTreeMap<usize, Vec<(usize, u64)>>,
    /// `RecvMeta` shipments per `(from_rank, to_rank, req_id)`.
    recv_meta: BTreeMap<(usize, usize, usize), u64>,
    /// Full `GroupPacket` shipments per `(host_rank, req_id)`.
    group_packets: BTreeMap<(usize, usize), u64>,
    /// rank → tenant, installed by [`Metrics::set_tenant_map`]. Empty
    /// (the default) means single-tenant: no `tenants` section.
    tenant_map: BTreeMap<usize, usize>,
    /// Credit deferrals per deferring rank (folded by tenant in
    /// [`Metrics::report`]).
    deferrals_by_rank: BTreeMap<usize, u64>,
    /// Hard-quota sheds per tenant.
    tenant_quota_sheds: BTreeMap<usize, u64>,
    /// `DrrGrant`s (deferred-post admissions) per tenant.
    tenant_drr_grants: BTreeMap<usize, u64>,
}

impl Inner {
    fn rank(&mut self, r: usize) -> &mut RankMetrics {
        let m = self.ranks.entry(r).or_default();
        m.rank = r;
        m
    }

    fn proxy(&mut self, pid: Pid) -> &mut ProxyMetrics {
        let m = self.proxies.entry(pid.index()).or_default();
        m.pid = pid.index();
        m
    }

    // No analyzer rule counts these arms: a variant this match does not
    // name must fail to compile, so it may never grow a wildcard (clippy
    // reports a wildcard covering exactly one variant under the second
    // lint — the state right after a variant is added).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_event(&mut self, _at: SimTime, pid: Pid, ev: &ProtoEvent) {
        self.totals.events += 1;
        match *ev {
            ProtoEvent::RtsAtProxy { .. } => self.proxy(pid).rts += 1,
            ProtoEvent::RtrAtProxy { .. } => self.proxy(pid).rtr += 1,
            ProtoEvent::PairMatched { .. } => self.proxy(pid).pairs_matched += 1,
            ProtoEvent::WritePosted { bytes, path, .. } => {
                let p = self.proxy(pid);
                p.writes_posted += 1;
                match path {
                    PathKind::CrossGvmi => p.bytes_cross_gvmi += bytes,
                    PathKind::StagingHop1 => p.bytes_staging_hop1 += bytes,
                    PathKind::StagingHop2 => p.bytes_staging_hop2 += bytes,
                }
            }
            ProtoEvent::WriteCompleted { .. } => self.proxy(pid).writes_completed += 1,
            ProtoEvent::FinSent { rank, kind, .. } => {
                match kind {
                    FinKind::Send => self.totals.fin_send += 1,
                    FinKind::Recv => self.totals.fin_recv += 1,
                    FinKind::Group => self.totals.fin_group += 1,
                }
                let m = self.rank(rank);
                match kind {
                    FinKind::Send => m.fin_send += 1,
                    FinKind::Recv => m.fin_recv += 1,
                    FinKind::Group => m.fin_group += 1,
                }
            }
            ProtoEvent::CrossReg { .. } => self.totals.cross_regs += 1,
            ProtoEvent::CrossRegCacheLookup { outcome, .. } => match outcome {
                CacheOutcome::Hit => self.totals.dpu_cross_cache.hits += 1,
                CacheOutcome::Miss => self.totals.dpu_cross_cache.misses += 1,
                CacheOutcome::Stale => self.totals.dpu_cross_cache.stale += 1,
            },
            ProtoEvent::Mkey2Used { .. } => {}
            ProtoEvent::RecvMetaSent {
                from_rank,
                to_rank,
                req_id,
            } => {
                *self
                    .recv_meta
                    .entry((from_rank, to_rank, req_id))
                    .or_insert(0) += 1
            }
            ProtoEvent::GroupPacketSent { host_rank, req_id } => {
                *self.group_packets.entry((host_rank, req_id)).or_insert(0) += 1
            }
            ProtoEvent::BarrierCntr { .. } => {}
            ProtoEvent::HostCacheLookup { cache, outcome, .. } => {
                let c = match cache {
                    HostCacheKind::Gvmi => &mut self.totals.host_gvmi_cache,
                    HostCacheKind::Ib => &mut self.totals.host_ib_cache,
                };
                match outcome {
                    CacheOutcome::Hit => c.hits += 1,
                    CacheOutcome::Miss => c.misses += 1,
                    CacheOutcome::Stale => c.stale += 1,
                }
            }
            ProtoEvent::CacheEvicted { side, .. } => match side {
                CacheSide::HostGvmi => self.totals.host_gvmi_cache.evictions += 1,
                CacheSide::HostIb => self.totals.host_ib_cache.evictions += 1,
                CacheSide::DpuCross => self.totals.dpu_cross_cache.evictions += 1,
            },
            ProtoEvent::CtrlDropped { at_proxy, .. } => {
                if at_proxy {
                    self.proxy(pid).ctrl_dropped += 1;
                } else {
                    self.totals.ctrl_dropped_host += 1;
                }
            }
            ProtoEvent::CtrlRetransmit { .. } => self.totals.ctrl_retransmits += 1,
            ProtoEvent::CtrlDuplicateDropped { .. } => self.totals.ctrl_dups_dropped += 1,
            ProtoEvent::CtrlAbandoned { .. } => self.totals.ctrl_abandoned += 1,
            ProtoEvent::FallbackToStaging { .. } => self.totals.fallback_staging += 1,
            ProtoEvent::ProxyRestarted { .. } => self.totals.proxy_restarts += 1,
            ProtoEvent::ReqReplayed { .. } => self.totals.reqs_replayed += 1,
            ProtoEvent::ReqFailed { .. } => self.totals.req_failures += 1,
            ProtoEvent::StaleCqe { .. } => self.totals.stale_cqes += 1,
            ProtoEvent::HostWakeup { rank, intervention } => {
                let m = self.rank(rank);
                m.wakeups += 1;
                if intervention {
                    m.interventions += 1;
                }
                if let Some(open) = self.open_windows.get(&rank) {
                    for &(req_id, gen) in open {
                        if let Some(w) = self.windows.get_mut(&(rank, req_id, gen)) {
                            w.wakeups += 1;
                            if intervention {
                                w.interventions += 1;
                            }
                        }
                    }
                }
            }
            ProtoEvent::GroupCallReturned {
                host_rank,
                req_id,
                gen,
            } => {
                self.windows.insert(
                    (host_rank, req_id, gen),
                    WindowMetrics {
                        rank: host_rank,
                        req_id,
                        gen,
                        wakeups: 0,
                        interventions: 0,
                        closed: false,
                    },
                );
                self.open_windows
                    .entry(host_rank)
                    .or_default()
                    .push((req_id, gen));
            }
            ProtoEvent::GroupWaitDone {
                host_rank,
                req_id,
                gen,
            } => {
                if let Some(w) = self.windows.get_mut(&(host_rank, req_id, gen)) {
                    w.closed = true;
                }
                if let Some(open) = self.open_windows.get_mut(&host_rank) {
                    open.retain(|&(r, g)| !(r == req_id && g == gen));
                }
            }
            ProtoEvent::GroupExecSent { .. } => self.totals.group_execs += 1,
            ProtoEvent::BarrierStall { .. } => self.proxy(pid).barrier_stalls += 1,
            ProtoEvent::ProxyQueueDepth {
                send_depth,
                recv_depth,
            } => {
                let p = self.proxy(pid);
                p.send_q_hwm = p.send_q_hwm.max(send_depth as u64);
                p.recv_q_hwm = p.recv_q_hwm.max(recv_depth as u64);
            }
            ProtoEvent::HostFinalized { rank } => self.rank(rank).finalized = true,
            // Causal-timeline endpoints: counted in `events`, analyzed by
            // `obs::lifecycle` rather than aggregated here (HostWakeup
            // already carries the intervention signal these refine).
            ProtoEvent::HostReqPosted { .. } | ProtoEvent::HostReqDone { .. } => {}
            ProtoEvent::PayloadCorrupt { .. } => self.totals.payload_corrupt += 1,
            ProtoEvent::PayloadRecovered { .. } => self.totals.payload_recovered += 1,
            ProtoEvent::DataIntegrityFailed { .. } => self.totals.data_integrity_failures += 1,
            ProtoEvent::QueueFullNack { .. } => self.totals.queue_full_nacks += 1,
            ProtoEvent::CreditDeferred { rank, .. } => {
                self.totals.credit_deferrals += 1;
                *self.deferrals_by_rank.entry(rank).or_insert(0) += 1;
            }
            ProtoEvent::QuotaShed { tenant, .. } => {
                self.totals.quota_sheds += 1;
                *self.tenant_quota_sheds.entry(tenant).or_insert(0) += 1;
            }
            ProtoEvent::DrrGrant { tenant, .. } => {
                self.totals.drr_grants += 1;
                *self.tenant_drr_grants.entry(tenant).or_insert(0) += 1;
            }
            ProtoEvent::StagingReclaimed { .. } => self.totals.staging_reclaimed += 1,
            ProtoEvent::ReqCancelled { .. } => self.totals.reqs_cancelled += 1,
            ProtoEvent::ReqReaped { .. } => self.totals.reqs_reaped += 1,
            ProtoEvent::GroupFailed { .. } => self.totals.group_failures += 1,
            ProtoEvent::JournalTruncated { .. } => self.totals.journal_truncations += 1,
            ProtoEvent::JournalSize { len } => {
                self.totals.journal_hwm = self.totals.journal_hwm.max(len)
            }
            ProtoEvent::BreakerTripped { .. } => self.totals.health.breaker_trips += 1,
            ProtoEvent::BreakerHalfOpen { .. } => self.totals.health.breaker_half_opens += 1,
            ProtoEvent::BreakerClosed { .. } => self.totals.health.breaker_closes += 1,
            ProtoEvent::BreakerProbe { .. } => self.totals.health.breaker_probes += 1,
            ProtoEvent::BreakerFastPath { .. } => self.totals.health.breaker_fastpaths += 1,
            ProtoEvent::RetryBudgetExhausted { .. } => self.totals.health.retry_budget_sheds += 1,
        }
    }
}

/// An [`EventSink`] that aggregates the protocol-event stream into a
/// [`MetricsReport`]. Install with
/// `ClusterBuilder::with_event_sink(metrics.sink())` (or via
/// `workloads::with_observer`); read the report after the simulation —
/// i.e. at or after `Finalize_Offload` — with [`Metrics::report`].
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// Fresh, all-zero collector.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The sink to install on a simulation. Non-`ProtoEvent` emissions
    /// are ignored.
    pub fn sink(&self) -> EventSink {
        proto_sink(Arc::clone(&self.inner), Inner::on_event)
    }

    /// Install the rank→tenant map used to fold per-tenant counters.
    /// With fewer than two distinct tenants the map is ignored and the
    /// report stays tenant-free (the single-tenant default).
    pub fn set_tenant_map(&self, map: BTreeMap<usize, usize>) {
        let distinct: std::collections::BTreeSet<usize> = map.values().copied().collect();
        self.inner.lock().tenant_map = if distinct.len() >= 2 {
            map
        } else {
            BTreeMap::new()
        };
    }

    /// Snapshot the accumulated counters. Meaningful once every rank has
    /// reached `Finalize_Offload` (check
    /// [`MetricsReport::finalized_ranks`]); safe to call at any point for
    /// a running tally, which mid-run lags the run by the events of the
    /// engine's batch not yet delivered (fewer than `simnet::EMIT_BATCH`).
    pub fn report(&self) -> MetricsReport {
        let inner = self.inner.lock();
        let proxies: Vec<ProxyMetrics> = inner.proxies.values().cloned().collect();
        let sum = |f: fn(&ProxyMetrics) -> u64| proxies.iter().map(f).sum::<u64>();
        let recv_meta: Vec<(usize, usize, usize, u64)> = inner
            .recv_meta
            .iter()
            .map(|(&(f, t, r), &n)| (f, t, r, n))
            .collect();
        let mut tenants: BTreeMap<usize, TenantMetrics> = BTreeMap::new();
        if !inner.tenant_map.is_empty() {
            for (&rank, &tenant) in &inner.tenant_map {
                let t = tenants.entry(tenant).or_default();
                t.tenant = tenant;
                t.ranks += 1;
                if let Some(r) = inner.ranks.get(&rank) {
                    t.wakeups += r.wakeups;
                    t.interventions += r.interventions;
                    t.fin_send += r.fin_send;
                    t.fin_recv += r.fin_recv;
                    t.fin_group += r.fin_group;
                }
                t.credit_deferrals += inner.deferrals_by_rank.get(&rank).copied().unwrap_or(0);
            }
            for (&tenant, &n) in &inner.tenant_quota_sheds {
                let t = tenants.entry(tenant).or_default();
                t.tenant = tenant;
                t.quota_sheds += n;
            }
            for (&tenant, &n) in &inner.tenant_drr_grants {
                let t = tenants.entry(tenant).or_default();
                t.tenant = tenant;
                t.drr_grants += n;
            }
        }
        let windows: Vec<WindowMetrics> = inner.windows.values().cloned().collect();
        let closed_interventions = |min_gen: u64| {
            windows
                .iter()
                .filter(|w| w.closed && w.gen >= min_gen)
                .map(|w| w.interventions)
                .sum::<u64>()
        };
        MetricsReport {
            rts: sum(|p| p.rts),
            rtr: sum(|p| p.rtr),
            pairs_matched: sum(|p| p.pairs_matched),
            writes_posted: sum(|p| p.writes_posted),
            writes_completed: sum(|p| p.writes_completed),
            bytes_cross_gvmi: sum(|p| p.bytes_cross_gvmi),
            bytes_staging_hop1: sum(|p| p.bytes_staging_hop1),
            bytes_staging_hop2: sum(|p| p.bytes_staging_hop2),
            ctrl_dropped_proxy: sum(|p| p.ctrl_dropped),
            host_wakeups: inner.ranks.values().map(|r| r.wakeups).sum(),
            host_interventions: inner.ranks.values().map(|r| r.interventions).sum(),
            window_interventions: closed_interventions(0),
            warm_window_interventions: closed_interventions(2),
            barrier_stalls: sum(|p| p.barrier_stalls),
            send_q_hwm: proxies.iter().map(|p| p.send_q_hwm).max().unwrap_or(0),
            recv_q_hwm: proxies.iter().map(|p| p.recv_q_hwm).max().unwrap_or(0),
            recv_meta_total: recv_meta.iter().map(|&(_, _, _, n)| n).sum(),
            recv_meta_max_per_pair: recv_meta.iter().map(|&(_, _, _, n)| n).max().unwrap_or(0),
            recv_meta,
            group_packets_total: inner.group_packets.values().sum(),
            group_packets_max_per_req: inner.group_packets.values().copied().max().unwrap_or(0),
            finalized_ranks: inner.ranks.values().filter(|r| r.finalized).count() as u64,
            ranks: inner.ranks.values().cloned().collect(),
            windows,
            tenants: tenants.into_values().collect(),
            proxies,
            ..inner.totals.clone()
        }
    }
}

keyed_counters! {
    /// Frozen counters of one run. Field-by-field this is the
    /// `bluefield-offload/metrics/v1` JSON schema (see
    /// [`to_json`](MetricsReport::to_json) and DESIGN.md §11). The fields
    /// up to `finalized_ranks` are the `totals` object, in document
    /// order; the telemetry bus diffs successive
    /// [`totals`](MetricsReport::totals) calls to form snapshot deltas,
    /// so that order *is* the delta order.
    #[derive(Clone, Debug, Default)]
    pub struct MetricsReport [TOTAL_KEYS, totals] {
        /// Total protocol events observed.
        pub events: u64,
        /// RTS control messages accepted at proxies.
        pub rts: u64,
        /// RTR control messages accepted at proxies.
        pub rtr: u64,
        /// RTS/RTR pairs matched.
        pub pairs_matched: u64,
        /// `FinSend` notices sent.
        pub fin_send: u64,
        /// `FinRecv` notices sent.
        pub fin_recv: u64,
        /// `GroupFin` notices sent.
        pub fin_group: u64,
        /// RDMA work requests posted by proxies.
        pub writes_posted: u64,
        /// Completions observed by proxies.
        pub writes_completed: u64,
        /// Payload bytes moved directly host-to-host (cross-GVMI).
        pub bytes_cross_gvmi: u64,
        /// Payload bytes pulled into DPU staging (hop 1).
        pub bytes_staging_hop1: u64,
        /// Payload bytes forwarded from DPU staging (hop 2).
        pub bytes_staging_hop2: u64,
        /// Cross-registrations actually performed (cache misses).
        pub cross_regs: u64,
        /// Malformed control messages dropped on hosts.
        pub ctrl_dropped_host: u64,
        /// Malformed control messages dropped on proxies.
        pub ctrl_dropped_proxy: u64,
        /// Host CPU wakeups across all ranks.
        pub host_wakeups: u64,
        /// Wakeups with offloaded work still outstanding.
        pub host_interventions: u64,
        /// Host interventions inside *closed* overlap windows (any
        /// generation). The paper's zero-CPU-intervention claim.
        pub window_interventions: u64,
        /// Host interventions inside closed *warm* windows (`gen >= 2`,
        /// i.e. metadata and caches already in place).
        pub warm_window_interventions: u64,
        /// Barrier entries that blocked at least once, across proxies.
        pub barrier_stalls: u64,
        /// Max pending-send queue depth across proxies.
        pub send_q_hwm: u64,
        /// Max pending-receive queue depth across proxies.
        pub recv_q_hwm: u64,
        /// Total `RecvMeta` shipments.
        pub recv_meta_total: u64,
        /// Max shipments for any single `(from, to, req_id)` triple — the
        /// §VII-D once-only claim is `<= 1`.
        pub recv_meta_max_per_pair: u64,
        /// Total full `GroupPacket` shipments.
        pub group_packets_total: u64,
        /// Max shipments for any single `(host_rank, req_id)` — with the
        /// group cache on this is `<= 1`.
        pub group_packets_max_per_req: u64,
        /// Warm-path `GroupExec` doorbells.
        pub group_execs: u64,
        /// Control messages retransmitted by the reliable link after an
        /// ack timeout. Zero on a fault-free run.
        pub ctrl_retransmits: u64,
        /// Duplicate control messages discarded by receiver dedup windows.
        pub ctrl_dups_dropped: u64,
        /// Control messages abandoned after exhausting retransmit attempts.
        pub ctrl_abandoned: u64,
        /// Messages that fell back to the staging path because cross-GVMI
        /// registration failed.
        pub fallback_staging: u64,
        /// Proxy crash/restart cycles observed.
        pub proxy_restarts: u64,
        /// In-flight host requests replayed after a proxy restart.
        pub reqs_replayed: u64,
        /// Host requests surfaced to the app as a typed `OffloadError`.
        pub req_failures: u64,
        /// Completions for write-ids no longer in flight (pre-restart CQEs).
        pub stale_cqes: u64,
        /// Landed payloads that failed CRC verification (payload-fault plans).
        pub payload_corrupt: u64,
        /// Previously corrupt transfers that verified clean after data-path
        /// retransmission.
        pub payload_recovered: u64,
        /// Transfers that exhausted the data-path retransmission budget and
        /// surfaced `OffloadError::DataIntegrity`.
        pub data_integrity_failures: u64,
        /// Descriptors refused admission by a proxy at its queue cap.
        pub queue_full_nacks: u64,
        /// Posts the host deferred because its per-proxy credit window was
        /// exhausted.
        pub credit_deferrals: u64,
        /// Posts shed at admission because the posting tenant was over its
        /// hard quota (multi-tenant runs only; zero otherwise).
        pub quota_sheds: u64,
        /// Deferred posts admitted by the hosts' credit FIFO flush
        /// (multi-tenant runs only; zero otherwise).
        pub drr_grants: u64,
        /// Staging buffers recycled from the bounded free pool.
        pub staging_reclaimed: u64,
        /// Requests cancelled by their host (deadline expiry or explicit).
        pub reqs_cancelled: u64,
        /// Cancelled-transfer descriptors reaped or suppressed at proxies.
        pub reqs_reaped: u64,
        /// Group generations that failed with a typed error.
        pub group_failures: u64,
        /// FIN-journal truncation passes that dropped entries.
        pub journal_truncations: u64,
        /// High-water mark of any proxy's FIN journal (0 unless the journal
        /// cap is armed — the size is only sampled then).
        pub journal_hwm: u64,
        /// Ranks that completed `Finalize_Offload`.
        pub finalized_ranks: u64,
        ..
        /// Host-side GVMI registration cache counters.
        pub host_gvmi_cache: CacheCounters,
        /// Host-side IB registration cache counters.
        pub host_ib_cache: CacheCounters,
        /// DPU-side cross-registration cache counters.
        pub dpu_cross_cache: CacheCounters,
        /// Per-triple `RecvMeta` shipment counts `(from, to, req_id, n)`.
        pub recv_meta: Vec<(usize, usize, usize, u64)>,
        /// Circuit-breaker / retry-budget totals. Deliberately *not* part of
        /// [`totals`](MetricsReport::totals): the telemetry bus publishes
        /// `totals()` deltas, and health counters ride the optional `health`
        /// JSON object instead (absent when all zero).
        pub health: HealthMetrics,
        /// Per-rank counters, ordered by rank.
        pub ranks: Vec<RankMetrics>,
        /// Per-overlap-window counters, ordered by `(rank, req_id, gen)`.
        pub windows: Vec<WindowMetrics>,
        /// Per-tenant counters, ordered by tenant. Empty unless a
        /// multi-tenant rank→tenant map was installed
        /// ([`Metrics::set_tenant_map`]).
        pub tenants: Vec<TenantMetrics>,
        /// Per-proxy counters, ordered by pid.
        pub proxies: Vec<ProxyMetrics>,
    }
}

/// `"k": v, "k": v` — the members of a one-line JSON object.
fn json_members(kv: &[(&'static str, u64)]) -> String {
    let members: Vec<String> = kv.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    members.join(", ")
}

impl MetricsReport {
    /// Bytes that reached a destination host (cross-GVMI writes plus
    /// staging forwards); equals the sum of matched transfer sizes.
    pub fn delivered_bytes(&self) -> u64 {
        self.bytes_cross_gvmi + self.bytes_staging_hop2
    }

    /// Render as deterministic `bluefield-offload/metrics/v1` JSON.
    /// `bench` names the producing benchmark or test.
    pub fn to_json(&self, bench: &str) -> String {
        let mut o = String::with_capacity(4096);
        let esc: String = bench
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || "_-. ".contains(*c))
            .collect();
        o.push_str("{\n  \"schema\": \"bluefield-offload/metrics/v1\",\n");
        let _ = writeln!(o, "  \"bench\": \"{esc}\",");
        o.push_str("  \"totals\": {");
        let totals = self.totals();
        for (i, (k, v)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            let _ = write!(o, "\n    \"{k}\": {v}{sep}");
        }
        o.push_str("\n  },\n  \"caches\": {\n");
        let caches = [
            ("host_gvmi", &self.host_gvmi_cache),
            ("host_ib", &self.host_ib_cache),
            ("dpu_cross", &self.dpu_cross_cache),
        ];
        for (i, (k, c)) in caches.iter().enumerate() {
            let sep = if i + 1 == caches.len() { "" } else { "," };
            let _ = writeln!(o, "    \"{k}\": {{{}}}{sep}", json_members(&c.kv()));
        }
        o.push_str("  },\n  \"ranks\": [");
        for (i, r) in self.ranks.iter().enumerate() {
            let sep = if i + 1 == self.ranks.len() { "" } else { "," };
            let _ = write!(
                o,
                "\n    {{\"rank\": {}, \"wakeups\": {}, \"interventions\": {}, \"fin_send\": {}, \"fin_recv\": {}, \"fin_group\": {}, \"finalized\": {}}}{sep}",
                r.rank, r.wakeups, r.interventions, r.fin_send, r.fin_recv, r.fin_group, r.finalized
            );
        }
        o.push_str("\n  ],\n  \"windows\": [");
        for (i, w) in self.windows.iter().enumerate() {
            let sep = if i + 1 == self.windows.len() { "" } else { "," };
            let _ = write!(
                o,
                "\n    {{\"rank\": {}, \"req_id\": {}, \"gen\": {}, \"wakeups\": {}, \"interventions\": {}, \"closed\": {}}}{sep}",
                w.rank, w.req_id, w.gen, w.wakeups, w.interventions, w.closed
            );
        }
        if !self.tenants.is_empty() {
            // Optional section: only multi-tenant runs carry it, so
            // single-tenant JSON stays byte-identical to old baselines.
            o.push_str("\n  ],\n  \"tenants\": [");
            for (i, t) in self.tenants.iter().enumerate() {
                let sep = if i + 1 == self.tenants.len() { "" } else { "," };
                let _ = write!(o, "\n    {{{}}}{sep}", json_members(&t.kv()));
            }
        }
        if self.health.any() {
            // Optional section (same contract as `tenants`): only runs
            // where the health engine actually acted carry it. An object,
            // not an array, so it closes itself with `}`.
            o.push_str("\n  ],\n  \"health\": {");
            let kv = self.health.kv();
            for (i, (k, v)) in kv.iter().enumerate() {
                let sep = if i + 1 == kv.len() { "" } else { "," };
                let _ = write!(o, "\n    \"{k}\": {v}{sep}");
            }
            o.push_str("\n  },\n  \"proxies\": [");
        } else {
            o.push_str("\n  ],\n  \"proxies\": [");
        }
        for (i, p) in self.proxies.iter().enumerate() {
            let sep = if i + 1 == self.proxies.len() { "" } else { "," };
            let _ = write!(
                o,
                "\n    {{\"pid\": {}, \"rts\": {}, \"rtr\": {}, \"pairs_matched\": {}, \"writes_posted\": {}, \"writes_completed\": {}, \"bytes_cross_gvmi\": {}, \"bytes_staging_hop1\": {}, \"bytes_staging_hop2\": {}, \"send_q_hwm\": {}, \"recv_q_hwm\": {}, \"barrier_stalls\": {}, \"ctrl_dropped\": {}}}{sep}",
                p.pid,
                p.rts,
                p.rtr,
                p.pairs_matched,
                p.writes_posted,
                p.writes_completed,
                p.bytes_cross_gvmi,
                p.bytes_staging_hop1,
                p.bytes_staging_hop2,
                p.send_q_hwm,
                p.recv_q_hwm,
                p.barrier_stalls,
                p.ctrl_dropped
            );
        }
        o.push_str("\n  ],\n  \"recv_meta\": [");
        for (i, &(f, t, r, n)) in self.recv_meta.iter().enumerate() {
            let sep = if i + 1 == self.recv_meta.len() {
                ""
            } else {
                ","
            };
            let _ = write!(
                o,
                "\n    {{\"from\": {f}, \"to\": {t}, \"req_id\": {r}, \"count\": {n}}}{sep}"
            );
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &Metrics, pid: usize, ev: ProtoEvent) {
        m.sink()(&[simnet::Emitted {
            at: SimTime::ZERO,
            pid: Pid::from_index(pid),
            event: &ev,
        }]);
    }

    #[test]
    fn folds_write_bytes_by_path() {
        let m = Metrics::new();
        feed(
            &m,
            9,
            ProtoEvent::WritePosted {
                wrid: 1,
                bytes: 100,
                path: PathKind::CrossGvmi,
                msg_id: 1,
            },
        );
        feed(
            &m,
            9,
            ProtoEvent::WritePosted {
                wrid: 2,
                bytes: 40,
                path: PathKind::StagingHop1,
                msg_id: 2,
            },
        );
        feed(
            &m,
            9,
            ProtoEvent::WritePosted {
                wrid: 3,
                bytes: 40,
                path: PathKind::StagingHop2,
                msg_id: 2,
            },
        );
        let r = m.report();
        assert_eq!(r.writes_posted, 3);
        assert_eq!(r.bytes_cross_gvmi, 100);
        assert_eq!(r.bytes_staging_hop1, 40);
        assert_eq!(r.bytes_staging_hop2, 40);
        assert_eq!(r.delivered_bytes(), 140);
    }

    #[test]
    fn windows_attribute_wakeups() {
        let m = Metrics::new();
        feed(
            &m,
            0,
            ProtoEvent::HostWakeup {
                rank: 0,
                intervention: true,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::GroupCallReturned {
                host_rank: 0,
                req_id: 0,
                gen: 1,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::HostWakeup {
                rank: 0,
                intervention: true,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::HostWakeup {
                rank: 0,
                intervention: false,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::GroupWaitDone {
                host_rank: 0,
                req_id: 0,
                gen: 1,
            },
        );
        // Outside any window after close.
        feed(
            &m,
            0,
            ProtoEvent::HostWakeup {
                rank: 0,
                intervention: true,
            },
        );
        let r = m.report();
        assert_eq!(r.host_wakeups, 4);
        assert_eq!(r.windows.len(), 1);
        let w = &r.windows[0];
        assert!(w.closed);
        assert_eq!(w.wakeups, 2);
        assert_eq!(w.interventions, 1);
        assert_eq!(r.window_interventions, 1);
        assert_eq!(r.warm_window_interventions, 0);
    }

    #[test]
    fn tenant_section_requires_a_multi_tenant_map() {
        let m = Metrics::new();
        feed(&m, 0, ProtoEvent::CreditDeferred { rank: 1, msg_id: 7 });
        feed(
            &m,
            0,
            ProtoEvent::QuotaShed {
                tenant: 1,
                rank: 1,
                msg_id: 8,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::DrrGrant {
                tenant: 0,
                rank: 0,
                msg_id: 7,
            },
        );
        // No map installed: totals count, but no tenant rows and no
        // "tenants" JSON section.
        let r = m.report();
        assert_eq!(r.credit_deferrals, 1);
        assert_eq!(r.quota_sheds, 1);
        assert_eq!(r.drr_grants, 1);
        assert!(r.tenants.is_empty());
        assert!(!r.to_json("t").contains("\"tenants\""));
        // A single-tenant map is ignored too.
        m.set_tenant_map(BTreeMap::from([(0, 0), (1, 0)]));
        assert!(m.report().tenants.is_empty());
        // A two-tenant map folds the rows.
        m.set_tenant_map(BTreeMap::from([(0, 0), (1, 1)]));
        let r = m.report();
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].tenant, 0);
        assert_eq!(r.tenants[0].drr_grants, 1);
        assert_eq!(r.tenants[0].credit_deferrals, 0);
        assert_eq!(r.tenants[1].credit_deferrals, 1);
        assert_eq!(r.tenants[1].quota_sheds, 1);
        assert!(r.to_json("t").contains("\"tenants\": ["));
    }

    #[test]
    fn health_section_requires_health_activity() {
        use crate::events::HealthPath;
        // Idle engine: no counters, no "health" JSON section, and the
        // totals() delta stream the telemetry bus publishes never grows
        // a health key.
        let m = Metrics::new();
        let r = m.report();
        assert!(!r.health.any());
        assert!(!r.to_json("t").contains("\"health\""));
        // One full breaker episode plus a shed.
        feed(
            &m,
            2,
            ProtoEvent::BreakerTripped {
                peer: 1,
                path: HealthPath::CrossGvmi,
            },
        );
        feed(
            &m,
            2,
            ProtoEvent::BreakerFastPath {
                peer: 1,
                path: HealthPath::CrossGvmi,
                msg_id: 3,
            },
        );
        feed(
            &m,
            2,
            ProtoEvent::BreakerHalfOpen {
                peer: 1,
                path: HealthPath::CrossGvmi,
            },
        );
        feed(
            &m,
            2,
            ProtoEvent::BreakerProbe {
                peer: 1,
                path: HealthPath::CrossGvmi,
                msg_id: 4,
            },
        );
        feed(
            &m,
            2,
            ProtoEvent::BreakerClosed {
                peer: 1,
                path: HealthPath::CrossGvmi,
            },
        );
        feed(
            &m,
            0,
            ProtoEvent::RetryBudgetExhausted {
                rank: 0,
                msg_id: 9,
                path: HealthPath::Ctrl,
            },
        );
        let r = m.report();
        assert_eq!(r.health.breaker_trips, 1);
        assert_eq!(r.health.breaker_half_opens, 1);
        assert_eq!(r.health.breaker_closes, 1);
        assert_eq!(r.health.breaker_probes, 1);
        assert_eq!(r.health.breaker_fastpaths, 1);
        assert_eq!(r.health.retry_budget_sheds, 1);
        let j = r.to_json("t");
        assert!(j.contains("\"health\": {"));
        assert!(j.contains("\"breaker_trips\": 1"));
        // Health counters stay out of the totals section.
        assert!(r
            .totals()
            .iter()
            .all(|(k, _)| !k.starts_with("breaker_") && *k != "retry_budget_sheds"));
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let m = Metrics::new();
        feed(
            &m,
            3,
            ProtoEvent::RtsAtProxy {
                src_rank: 0,
                dst_rank: 1,
                tag: 5,
                msg_id: 1,
            },
        );
        let r = m.report();
        let j1 = r.to_json("unit \"test\"");
        let j2 = m.report().to_json("unit \"test\"");
        assert_eq!(j1, j2);
        assert!(j1.contains("\"schema\": \"bluefield-offload/metrics/v1\""));
        // Quotes are stripped, not escaped, to keep the writer trivial.
        assert!(j1.contains("\"bench\": \"unit test\""));
        assert!(j1.contains("\"rts\": 1"));
    }
}
