//! The proxy's data-path choice (DESIGN.md §14, §19): cross-GVMI,
//! staging or host-direct, the breaker and registration-fault effects
//! the choice consults, the cross-registration caches and the staging
//! buffers.

use rdma::{MrKey, VAddr};
use simnet::StatKey;

use super::completion::{Completion, DataOp, Region};
use super::{End, Proxy, ProxyState};
use crate::config::{DataPath, OffloadConfig, TenantId};
use crate::events::{CacheSide, HealthPath, PathKind, ProtoEvent};
use crate::health::{BreakerEvent, Route};
use crate::messages::{RtrInfo, RtsInfo};
use crate::reg_cache::RankAddrCache;

/// One tenant's cross-registration cache: budgeted per tenant on
/// multi-tenant rosters (eviction isolation), unbounded otherwise —
/// the pre-multi-tenant layout.
pub(super) fn fresh_cross_cache(
    cfg: &OffloadConfig,
    world: usize,
) -> RankAddrCache<(MrKey, MrKey)> {
    if cfg.multi_tenant() && cfg.cache_budget > 0 {
        RankAddrCache::with_capacity(world, cfg.cache_budget)
    } else {
        RankAddrCache::new(world)
    }
}

/// Where a transfer's payload moves: the verdict of
/// [`Proxy::choose_path`].
pub(super) enum Path {
    /// The source cross-registered (`mkey2`), written host to host.
    CrossGvmi(MrKey),
    /// Pulled into a DPU staging buffer, then forwarded.
    Staging,
    /// The staging breaker is open: cross-registered through the cache
    /// and written host to host, skipping DPU memory (DESIGN.md §19).
    HostDirect(MrKey),
}

/// The transfer a path decision is made for.
pub(super) struct PathReq {
    /// Breaker peer and cross-registration owner.
    pub(super) src_rank: usize,
    pub(super) dst_rank: usize,
    pub(super) tag: u64,
    pub(super) msg_id: u64,
    pub(super) addr: VAddr,
    pub(super) len: u64,
    /// GVMI key of the source buffer; cross-GVMI needs one.
    pub(super) mkey: Option<MrKey>,
    /// The source carries an rkey, so it can be staged.
    pub(super) stageable: bool,
}

impl Proxy<'_> {
    /// Fold the cross-registration caches' counters into the run's stats;
    /// called when the caches die (proxy exit, crash-restart).
    pub(super) fn report_cache_stats(&self, st: &ProxyState) {
        for cache in st.cross_caches.values() {
            let (h, m, s) = cache.stats();
            static DPU_HIT: StatKey = StatKey::new("offload.gvmi_cache.dpu.hit");
            static DPU_MISS: StatKey = StatKey::new("offload.gvmi_cache.dpu.miss");
            static DPU_STALE: StatKey = StatKey::new("offload.gvmi_cache.dpu.stale");
            static DPU_EVICT: StatKey = StatKey::new("offload.gvmi_cache.dpu.evict");
            self.ctx.stat_incr(&DPU_HIT, h);
            self.ctx.stat_incr(&DPU_MISS, m);
            self.ctx.stat_incr(&DPU_STALE, s);
            self.ctx.stat_incr(&DPU_EVICT, cache.evictions());
        }
    }

    /// Return a settled transfer's staging buffer to the bounded free
    /// pool of the owning tenant. `None` (GVMI path, or unbounded
    /// staging mode where buffers live in the assignment map) is a
    /// no-op; a pool already at its cap drops the buffer instead of
    /// growing. `staging_cap` bounds each `(tenant, length)` pool, so
    /// a flooding tenant's churn is confined to its own partition.
    pub(super) fn release_staged(
        &self,
        st: &mut ProxyState,
        tenant: TenantId,
        staged: Option<(VAddr, MrKey, u64)>,
    ) {
        let Some((buf, key, len)) = staged else {
            return;
        };
        if self.cfg.staging_cap == 0 {
            return;
        }
        let pool = st.stage_free.entry((tenant, len)).or_default();
        if pool.len() < self.cfg.staging_cap {
            pool.push((buf, key));
        } else {
            static STAGING_DROPPED: StatKey = StatKey::new("offload.staging.dropped");
            self.ctx.stat_incr(&STAGING_DROPPED, 1);
        }
    }

    /// Staging buffer for a given source buffer. Unbounded mode (the
    /// default) allocates and registers once per `(src_rank, addr, len)`
    /// and keeps the assignment forever. With `staging_cap` armed the
    /// per-source map is bypassed: buffers come from a bounded free pool
    /// keyed by length and are recycled when their transfer settles, so
    /// the proxy's staging footprint is `cap × live lengths` instead of
    /// one buffer per distinct source buffer ever seen.
    fn staging_buffer_for(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
    ) -> (VAddr, MrKey) {
        let akey = (src_rank, addr.0, len);
        if self.cfg.staging_cap > 0 {
            let tenant = self.cfg.tenant_of(src_rank);
            if let Some(b) = st.stage_free.get_mut(&(tenant, len)).and_then(|p| p.pop()) {
                static RECLAIMED: StatKey = StatKey::new("offload.staging.reclaimed");
                self.ctx.stat_incr(&RECLAIMED, 1);
                self.ctx.emit(&ProtoEvent::StagingReclaimed { len });
                return b;
            }
        } else if let Some(&b) = st.stage_assign.get(&akey) {
            return b;
        }
        let b = self.fresh_staging(len);
        if self.cfg.staging_cap == 0 {
            st.stage_assign.insert(akey, b);
        }
        static STAGING_BUFFERS: StatKey = StatKey::new("offload.proxy.staging_buffers");
        self.ctx.stat_incr(&STAGING_BUFFERS, 1);
        b
    }

    /// Allocate and register a DPU staging buffer — the one place the
    /// proxy creates staging memory.
    pub(super) fn fresh_staging(&self, len: u64) -> (VAddr, MrKey) {
        let fab = self.cluster.fabric();
        let buf = fab.alloc(self.my_ep, len);
        let key = fab
            .reg_mr(self.ctx, self.my_ep, buf, len)
            .expect("staging buffer registration");
        (buf, key)
    }

    pub(super) fn pair_matched(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        self.ctx.emit(&ProtoEvent::PairMatched {
            src_rank: rts.src_rank,
            dst_rank: rtr.dst_rank,
            tag: rts.tag,
            send_msg_id: rts.msg_id,
            recv_msg_id: rtr.msg_id,
        });
        let req = PathReq {
            src_rank: rts.src_rank,
            dst_rank: rtr.dst_rank,
            tag: rts.tag,
            msg_id: rts.msg_id,
            addr: rts.addr,
            len: rts.len,
            mkey: rts.mkey,
            stageable: rts.src_rkey.is_some(),
        };
        static GVMI_WRITES: StatKey = StatKey::new("offload.proxy.gvmi_writes");
        static HOST_DIRECT_WRITES: StatKey = StatKey::new("offload.health.host_direct_writes");
        let (mkey2, stat) = match self.choose_path(st, &req, true) {
            Path::CrossGvmi(mkey2) => (mkey2, &GVMI_WRITES),
            Path::HostDirect(mkey2) => (mkey2, &HOST_DIRECT_WRITES),
            Path::Staging => return self.post_staging_read(st, rts, rtr),
        };
        // Paper Fig. 6, GVMI path: write straight from the source host's
        // memory to the destination host.
        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
        let local = (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2);
        self.post_pair_write(st, &rts, &rtr, PathKind::CrossGvmi, local, None);
        self.ctx.stat_incr(stat, 1);
    }

    /// The proxy's one data-path decision (DESIGN.md §14, §19). On the
    /// cross-GVMI data path with an mkey to register, try cross-GVMI: an
    /// open breaker for the source rank routes a stageable transfer
    /// straight to staging without a registration attempt, and a failed
    /// registration (`FaultPlan::xreg_fail_pm`) downgrades this one
    /// transfer to staging instead of failing it. A staged transfer then
    /// consults the staging breaker when `guard_staging` (basic pairs):
    /// open, it degrades to a host-direct write if the source has an
    /// mkey. Group entries stage at exec time and have no host-direct
    /// alternative, so they never consult it. Emits every breaker and
    /// fallback event of the decision, in order.
    pub(super) fn choose_path(
        &self,
        st: &mut ProxyState,
        req: &PathReq,
        guard_staging: bool,
    ) -> Path {
        let peer = req.src_rank;
        if let (DataPath::Gvmi, Some(mkey)) = (self.cfg.data_path, req.mkey) {
            let fast = match st.health.route(peer, HealthPath::CrossGvmi) {
                Route::FastPath => req.stageable,
                Route::Probe => {
                    self.note_probe(peer, HealthPath::CrossGvmi, req.msg_id);
                    false
                }
                Route::Primary => false,
            };
            if fast {
                self.note_fastpath(peer, HealthPath::CrossGvmi, req.msg_id);
            } else {
                let reg = self.cross_reg(st, peer, req.addr, req.len, mkey, true);
                // The registration result is the breaker's (and the
                // probe's) verdict; a successful probe has just rebuilt
                // the reg-cache entry, so closing the breaker resumes
                // with warm state.
                self.note_breaker(st, peer, HealthPath::CrossGvmi, reg.is_some());
                if let Some(mkey2) = reg {
                    return Path::CrossGvmi(mkey2);
                }
                static STAGING_FALLBACKS: StatKey = StatKey::new("offload.fallback.staging");
                self.ctx.stat_incr(&STAGING_FALLBACKS, 1);
                self.ctx.emit(&ProtoEvent::FallbackToStaging {
                    src_rank: peer,
                    dst_rank: req.dst_rank,
                    tag: req.tag,
                    msg_id: req.msg_id,
                });
            }
        }
        if !guard_staging {
            return Path::Staging;
        }
        match st.health.route(peer, HealthPath::Staging) {
            Route::FastPath => {
                if let Some(mkey) = req.mkey {
                    self.note_fastpath(peer, HealthPath::Staging, req.msg_id);
                    // The sick resource is the staging hop, not
                    // registration: use the infallible path.
                    let mkey2 = self.cross_reg_cached(st, peer, req.addr, req.len, mkey);
                    return Path::HostDirect(mkey2);
                }
            }
            Route::Probe => self.note_probe(peer, HealthPath::Staging, req.msg_id),
            Route::Primary => {}
        }
        Path::Staging
    }

    /// An open breaker rerouted `msg_id` without consulting the sick path.
    fn note_fastpath(&self, peer: usize, path: HealthPath, msg_id: u64) {
        static FASTPATHS: StatKey = StatKey::new("offload.health.fastpaths");
        self.ctx.stat_incr(&FASTPATHS, 1);
        self.ctx
            .emit(&ProtoEvent::BreakerFastPath { peer, path, msg_id });
    }

    /// Feed one `(peer, path)` outcome into the health engine and emit
    /// any breaker transition. No-op while the engine is disabled.
    pub(super) fn note_breaker(
        &self,
        st: &mut ProxyState,
        peer: usize,
        path: HealthPath,
        ok: bool,
    ) {
        match st.health.on_outcome(peer, path, ok) {
            Some(BreakerEvent::Tripped) => {
                static BREAKER_TRIPS: StatKey = StatKey::new("offload.health.breaker_trips");
                self.ctx.stat_incr(&BREAKER_TRIPS, 1);
                self.ctx.emit(&ProtoEvent::BreakerTripped { peer, path });
            }
            Some(BreakerEvent::Closed) => {
                static BREAKER_CLOSES: StatKey = StatKey::new("offload.health.breaker_closes");
                self.ctx.stat_incr(&BREAKER_CLOSES, 1);
                self.ctx.emit(&ProtoEvent::BreakerClosed { peer, path });
            }
            None => {}
        }
    }

    /// A breaker just half-opened and admitted `msg_id` as its probe:
    /// emit the transition pair the timeline reconstructs states from.
    fn note_probe(&self, peer: usize, path: HealthPath, msg_id: u64) {
        static HALF_OPENS: StatKey = StatKey::new("offload.health.half_opens");
        self.ctx.stat_incr(&HALF_OPENS, 1);
        self.ctx.emit(&ProtoEvent::BreakerHalfOpen { peer, path });
        static PROBES: StatKey = StatKey::new("offload.health.probes");
        self.ctx.stat_incr(&PROBES, 1);
        self.ctx
            .emit(&ProtoEvent::BreakerProbe { peer, path, msg_id });
    }

    /// Staging hop 1: pull the payload out of the source host's memory
    /// into DPU staging with an RDMA READ (the BluesMPI worker-read).
    fn post_staging_read(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        let (buf, key) = self.staging_buffer_for(st, rts.src_rank, rts.addr, rts.len);
        let src_rkey = rts.src_rkey.expect("staging RTS carries an rkey");
        let len = rts.len.min(rtr.len);
        let src = (self.cluster.host_ep(rts.src_rank), rts.addr, src_rkey);
        // Verify the staged copy too: a corruption healed on hop 1 keeps
        // hop 2's retransmissions meaningful (re-sending a corrupt staged
        // image could never converge).
        let crc = rts.crc.filter(|_| len == rts.len);
        let op = DataOp::new(
            PathKind::StagingHop1,
            true,
            (self.my_ep, buf, key),
            src,
            len,
            rts.msg_id,
            crc,
        );
        let completion = Completion::StagingRead {
            pair: Box::new((rts, rtr)),
            buf: (buf, key),
        };
        self.post(st, op, completion);
        static STAGING_READS: StatKey = StatKey::new("offload.proxy.staging_reads");
        self.ctx.stat_incr(&STAGING_READS, 1);
    }

    /// Write a matched pair's payload from `local` into the receive
    /// buffer; both ends get their FIN once it lands.
    pub(super) fn post_pair_write(
        &self,
        st: &mut ProxyState,
        rts: &RtsInfo,
        rtr: &RtrInfo,
        path: PathKind,
        local: Region,
        staged: Option<(VAddr, MrKey, u64)>,
    ) {
        let len = rts.len.min(rtr.len);
        let remote = (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey);
        // End-to-end integrity: the host's CRC covers exactly rts.len
        // bytes, so a truncating match (shorter receive) is exempt.
        let crc = rts.crc.filter(|_| len == rts.len);
        let op = DataOp::new(path, false, local, remote, len, rts.msg_id, crc);
        let completion = Completion::Basic {
            src: rts.end(),
            dst: rtr.end(),
            staged,
        };
        self.post(st, op, completion);
    }

    /// A one-sided get: cross-register the origin's destination buffer
    /// (`local`, with its GVMI mkey), then pull the remote symmetric
    /// memory straight into it.
    pub(super) fn post_get(
        &self,
        st: &mut ProxyState,
        origin: End,
        local: (VAddr, MrKey),
        remote: Region,
        len: u64,
    ) {
        assert_eq!(
            self.cfg.data_path,
            DataPath::Gvmi,
            "one-sided get requires the GVMI data path"
        );
        let (addr, mkey) = local;
        let mkey2 = self.cross_reg_cached(st, origin.rank, addr, len, mkey);
        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
        let local = (self.cluster.host_ep(origin.rank), addr, mkey2);
        let op = DataOp::new(
            PathKind::CrossGvmi,
            true,
            local,
            remote,
            len,
            origin.msg_id,
            None,
        );
        let completion = Completion::Basic {
            src: origin,
            dst: None,
            staged: None,
        };
        self.post(st, op, completion);
    }

    /// Infallible cross-registration (one-sided gets, which have no
    /// staging fallback — a documented exemption).
    pub(super) fn cross_reg_cached(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
    ) -> MrKey {
        self.cross_reg(st, src_rank, addr, len, mkey, false)
            .expect("infallible cross registration")
    }

    /// Cross-register a host buffer through the owning tenant's cache.
    /// With `may_fail`, a fresh registration fails per the fault plan's
    /// `xreg_fail_pm`, and `None` tells the caller to fall back to
    /// staging; a cache hit never fails.
    fn cross_reg(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
        may_fail: bool,
    ) -> Option<MrKey> {
        let fab = self.cluster.fabric();
        // Cross-registrations live in the owning tenant's GVMI
        // namespace; tenants never share (or validate against) each
        // other's entries.
        let tenant = self.cfg.tenant_of(src_rank);
        let world = self.cluster.world_size();
        let mut cache = self.cfg.use_gvmi_cache.then(|| {
            st.cross_caches
                .entry(tenant)
                .or_insert_with(|| fresh_cross_cache(self.cfg, world))
        });
        if let Some(cache) = cache.as_mut() {
            let (v, outcome) =
                cache.get_validated_outcome(src_rank, addr.0, len, |(m, _)| *m == mkey);
            let hit = v.copied();
            self.ctx.emit(&ProtoEvent::CrossRegCacheLookup {
                host_rank: src_rank,
                addr,
                len,
                outcome,
                mkey: hit.map(|(m, _)| m),
                mkey2: hit.map(|(_, m2)| m2),
            });
            if let Some((_, mkey2)) = hit {
                return Some(mkey2);
            }
        }
        if self.cfg.fault.skip_cross_reg {
            // Deliberate protocol violation: hand back the host's mkey as
            // if it were a cross-registration. No CrossReg event is
            // emitted, so the checker flags the first Mkey2Used.
            return Some(mkey);
        }
        if may_fail && st.xreg_rng.chance(self.cfg.fault.xreg_fail_pm) {
            return None;
        }
        let gvmi = fab.gvmi_of(self.my_ep).expect("proxy endpoint has a GVMI");
        let mkey2 = fab
            .cross_reg(self.ctx, self.my_ep, addr, len, mkey, gvmi)
            .expect("cross registration");
        self.ctx.emit(&ProtoEvent::CrossReg {
            host_rank: src_rank,
            addr,
            len,
            mkey,
            mkey2,
        });
        let evicted = cache.and_then(|c| c.insert(src_rank, addr.0, len, (mkey, mkey2)));
        if evicted.is_some() {
            self.ctx.emit(&ProtoEvent::CacheEvicted {
                rank: src_rank,
                side: CacheSide::DpuCross,
            });
        }
        Some(mkey2)
    }
}
