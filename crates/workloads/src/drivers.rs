//! Parameterizable workload drivers for the conformance checker and
//! schedule explorer (`checker` crate).
//!
//! Unlike the benchmark entry points in this crate, these drivers:
//!
//! * return `Result<Report, SimError>` instead of panicking, so a
//!   deadlock or time-limit abort is data, not a test failure;
//! * accept the exploration knobs the checker perturbs — seed, delivery
//!   jitter, proxy count, time limit — plus an [`EventSink`] that
//!   receives the engine's structured [`offload::ProtoEvent`] stream.

use std::ops::AsyncFn;

use offload::{Offload, OffloadConfig, OffloadError, TenantId};
use rdma::{ClusterBuilder, ClusterSpec, Inbox};
use simnet::{EventSink, Report, SimDelta, SimError, SimTime};

/// One checker-driven run configuration: the workload shape plus every
/// schedule-perturbation knob the explorer sweeps.
#[derive(Clone)]
pub struct CheckRun {
    /// Simulated nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Proxy processes per DPU.
    pub proxies_per_dpu: usize,
    /// Simulation RNG seed.
    pub seed: u64,
    /// Uniform `[0, jitter]` fabric delivery jitter (legal reorderings
    /// only — same-QP FIFO order is preserved by the fabric).
    pub jitter: SimDelta,
    /// Abort the run as a livelock if virtual time exceeds this.
    pub time_limit: Option<SimTime>,
    /// Engine configuration (data path, caches, fault injection).
    pub cfg: OffloadConfig,
    /// Structured-event observer, usually a conformance checker's sink.
    pub sink: Option<EventSink>,
    /// Record the simulation timeline (spans + instants) into the report.
    pub trace: bool,
    /// Move real bytes through the fabric so drivers can fill and verify
    /// payload patterns (default: timing-only, no byte movement).
    pub move_bytes: bool,
    /// `None` or `Some(1)`: a cluster runs on simnet's one loop, and
    /// anything else panics (see [`rdma::ClusterBuilder::with_threads`]).
    /// Kept as a field because the benchmark package sets it; it goes
    /// with that package's re-base.
    pub threads: Option<usize>,
}

impl CheckRun {
    /// A 2×2 GVMI-path run with no perturbations — the baseline scenario
    /// the explorer mutates.
    pub fn baseline(seed: u64) -> CheckRun {
        CheckRun {
            nodes: 2,
            ppn: 2,
            proxies_per_dpu: 1,
            seed,
            jitter: SimDelta::ZERO,
            time_limit: None,
            cfg: OffloadConfig::proposed(),
            sink: None,
            trace: false,
            move_bytes: false,
            threads: None,
        }
    }

    fn builder(&self) -> ClusterBuilder {
        let mut spec = ClusterSpec::new(self.nodes, self.ppn).with_proxies(self.proxies_per_dpu);
        if !self.move_bytes {
            spec = spec.without_byte_movement();
        }
        let mut b = ClusterBuilder::new(spec, self.seed);
        if let Some(limit) = self.time_limit {
            b = b.with_time_limit(limit);
        }
        if self.jitter > SimDelta::ZERO {
            b = b.with_delivery_jitter(self.jitter);
        }
        if let Some(sink) = &self.sink {
            b = b.with_event_sink(sink.clone());
        }
        if self.trace {
            b = b.with_trace();
        }
        if let Some(threads) = self.threads {
            b = b.with_threads(threads);
        }
        b
    }

    /// Run `body` on every rank with an [`Offload`] engine attached and
    /// proxies running, returning the simulation's verdict. Ranks are
    /// future processes: the whole run, proxies included, is polled on
    /// the calling thread.
    pub fn run_offload(
        &self,
        body: impl AsyncFn(&Offload) + Send + Sync + 'static,
    ) -> Result<Report, SimError> {
        let cfg = self.cfg.clone();
        let proxy_cfg = cfg.clone();
        self.builder().run_async(
            async move |rank, ctx, cluster| {
                offload::profile::balanced(async {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                    body(&off).await;
                    off.finalize().await;
                })
                .await
            },
            Some(offload::proxy_fn(proxy_cfg)),
        )
    }
}

/// Halo-exchange stencil over the Basic primitives: every rank exchanges
/// a face with its ring neighbours in both directions for `rounds`
/// iterations. Exercises RTS/RTR matching, cross-registration, the GVMI
/// caches and FIN delivery on both intra- and inter-node paths.
pub fn drive_stencil(run: &CheckRun, face_bytes: u64, rounds: u64) -> Result<Report, SimError> {
    ring_stencil(run, face_bytes, rounds, false)
}

/// The stencil of [`drive_stencil`] with payload verification: every
/// send buffer is filled with a pattern derived from `(rank, round,
/// direction)` before posting, and after `wait_all` each receive buffer
/// is checked against the pattern its sender must have written. A rank
/// panics on corrupt or stale data, which the explorer classifies as a
/// failed run. Requires [`CheckRun::move_bytes`]; this is the driver the
/// fault-soak tests use to prove retransmission and proxy-restart replay
/// deliver every payload intact, exactly once per round.
pub fn drive_verified_stencil(
    run: &CheckRun,
    face_bytes: u64,
    rounds: u64,
) -> Result<Report, SimError> {
    assert!(
        run.move_bytes,
        "drive_verified_stencil needs move_bytes: timing-only runs carry no payloads"
    );
    ring_stencil(run, face_bytes, rounds, true)
}

/// The ring exchange of both stencil drivers, filling and checking the
/// payload patterns only when `verify`.
fn ring_stencil(
    run: &CheckRun,
    face_bytes: u64,
    rounds: u64,
    verify: bool,
) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        let p = off.size();
        if p < 2 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let me = off.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // Stable per-(rank, round, direction) pattern seed, so each
        // receiver can recompute exactly what its peer sent.
        let pat = |rank: usize, round: u64, dir: u64| ((rank as u64) << 24) | (round << 4) | dir;
        let sbuf_r = fab.alloc(ep, face_bytes);
        let sbuf_l = fab.alloc(ep, face_bytes);
        let rbuf_r = fab.alloc(ep, face_bytes);
        let rbuf_l = fab.alloc(ep, face_bytes);
        for round in 0..rounds {
            if verify {
                fab.fill_pattern(ep, sbuf_r, face_bytes, pat(me, round, 0))
                    .expect("fill send-right");
                fab.fill_pattern(ep, sbuf_l, face_bytes, pat(me, round, 1))
                    .expect("fill send-left");
            }
            // Tags encode (round, direction); matching is (src, dst, tag).
            let t_right = round * 4;
            let t_left = round * 4 + 1;
            let reqs = [
                off.send_offload(sbuf_r, face_bytes, right, t_right),
                off.send_offload(sbuf_l, face_bytes, left, t_left),
                off.recv_offload(rbuf_l, face_bytes, left, t_right),
                off.recv_offload(rbuf_r, face_bytes, right, t_left),
            ];
            off.ctx().compute_async(SimDelta::from_us(5)).await;
            off.wait_all(&reqs).await;
            if !verify {
                continue;
            }
            // My left neighbour sent its "right" face; my right
            // neighbour sent its "left" face.
            let ok_l = fab
                .verify_pattern(ep, rbuf_l, face_bytes, pat(left, round, 0))
                .expect("verify recv-left");
            let ok_r = fab
                .verify_pattern(ep, rbuf_r, face_bytes, pat(right, round, 1))
                .expect("verify recv-right");
            assert!(ok_l, "rank {me} round {round}: payload from {left} corrupt");
            assert!(
                ok_r,
                "rank {me} round {round}: payload from {right} corrupt"
            );
        }
    })
}

/// Credit-starvation flood: every rank posts `burst` send/recv pairs to
/// its ring neighbours *before* waiting on any of them, so with a small
/// [`OffloadConfig::queue_cap`] the per-proxy credit window is exhausted
/// almost immediately. The run must still complete — the host defers
/// over-window posts and flushes them as FINs return credit, and the
/// proxy nacks (rather than queues) anything that slips past a stale
/// window — with queue depths bounded by the cap throughout.
pub fn drive_flood(run: &CheckRun, bytes: u64, burst: u64) -> Result<Report, SimError> {
    // On a single-tenant config every rank maps to tenant 0, so the
    // tenant-scoped flood below degenerates to the classic all-ranks
    // ring this driver has always been.
    drive_tenant_flood(run, bytes, burst, 0)
}

/// The ranks of one tenant: `tenant_of` applied over the world, in rank
/// order. Every rank belongs to tenant 0 on a single-tenant config.
fn tenant_ring(cfg: &OffloadConfig, world: usize, tenant: TenantId) -> Vec<usize> {
    (0..world).filter(|&r| cfg.tenant_of(r) == tenant).collect()
}

/// [`drive_flood`] scoped to one tenant: only the ranks `tenant_of`
/// maps to `tenant` flood, over a ring of *their own* ranks (so every
/// send has a matching recv inside the tenant); everyone else idles.
/// This is the noisy-neighbor aggressor — point it at the flooding
/// tenant of a multi-tenant roster and its burst lands on that
/// tenant's credit window and proxy-queue share alone.
pub fn drive_tenant_flood(
    run: &CheckRun,
    bytes: u64,
    burst: u64,
    tenant: TenantId,
) -> Result<Report, SimError> {
    let cfg = run.cfg.clone();
    run.run_offload(async move |off| {
        let ring = tenant_ring(&cfg, off.size(), tenant);
        if ring.len() < 2 || off.tenant() != tenant {
            return;
        }
        // A shed send would orphan the matching recv on the ring peer
        // and stall the run; the flood exercises deferral (soft quota /
        // credit window), never the hard-shed path.
        assert_eq!(
            cfg.quota(tenant).hard,
            0,
            "drive_tenant_flood floods without retry; use drive_quota_retry for hard quotas"
        );
        let me = off.rank();
        let idx = ring
            .iter()
            .position(|&r| r == me)
            .expect("rank in own tenant ring");
        let right = ring[(idx + 1) % ring.len()];
        let left = ring[(idx + ring.len() - 1) % ring.len()];
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        let mut reqs = Vec::with_capacity(2 * burst as usize);
        for tag in 0..burst {
            let sbuf = fab.alloc(ep, bytes);
            let rbuf = fab.alloc(ep, bytes);
            reqs.push(off.send_offload(sbuf, bytes, right, tag));
            reqs.push(off.recv_offload(rbuf, bytes, left, tag));
        }
        off.ctx().compute_async(SimDelta::from_us(5)).await;
        off.wait_all(&reqs).await;
    })
}

/// The two-tenant isolation scenario the noisy-neighbor gates measure:
/// tenant 0 (the victim) re-calls a recorded group stencil over a ring
/// of its own ranks — the workload whose per-window latency the
/// lifecycle histograms time — while tenant 1 (the aggressor) floods
/// `burst` send/recv pairs over *its* ring. `burst == 0` idles the
/// aggressor entirely, which is the solo baseline the gate compares
/// against: same config, same victim code path, byte-identical victim
/// behavior, no interference.
pub fn drive_noisy_neighbor(
    run: &CheckRun,
    face_bytes: u64,
    rounds: u64,
    flood_bytes: u64,
    burst: u64,
) -> Result<Report, SimError> {
    assert!(
        run.cfg.multi_tenant(),
        "drive_noisy_neighbor needs a multi-tenant roster (tenant 0 victim, tenant 1 aggressor)"
    );
    let cfg = run.cfg.clone();
    run.run_offload(async move |off| {
        let t = off.tenant();
        let ring = tenant_ring(&cfg, off.size(), t);
        if ring.len() < 2 {
            return;
        }
        let me = off.rank();
        let idx = ring
            .iter()
            .position(|&r| r == me)
            .expect("rank in own tenant ring");
        let right = ring[(idx + 1) % ring.len()];
        let left = ring[(idx + ring.len() - 1) % ring.len()];
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        if t == 0 {
            // Victim: the group-stencil window loop of
            // `drive_group_stencil`, ring-scoped to tenant 0.
            let sbuf_r = fab.alloc(ep, face_bytes);
            let sbuf_l = fab.alloc(ep, face_bytes);
            let rbuf_r = fab.alloc(ep, face_bytes);
            let rbuf_l = fab.alloc(ep, face_bytes);
            let g = off.group_start();
            off.group_send(g, sbuf_r, face_bytes, right, 0);
            off.group_send(g, sbuf_l, face_bytes, left, 1);
            off.group_recv(g, rbuf_l, face_bytes, left, 0);
            off.group_recv(g, rbuf_r, face_bytes, right, 1);
            off.group_barrier(g);
            off.group_end(g);
            for _ in 0..rounds {
                off.group_call(g).await;
                off.ctx().compute_async(SimDelta::from_us(5)).await;
                off.group_wait(g)
                    .await
                    .expect("victim group offload failed");
            }
        } else {
            if burst == 0 {
                return;
            }
            assert_eq!(
                cfg.quota(t).hard,
                0,
                "the aggressor floods without retry; arm soft quotas, not hard ones"
            );
            let mut reqs = Vec::with_capacity(2 * burst as usize);
            for tag in 0..burst {
                let sbuf = fab.alloc(ep, flood_bytes);
                let rbuf = fab.alloc(ep, flood_bytes);
                reqs.push(off.send_offload(sbuf, flood_bytes, right, tag));
                reqs.push(off.recv_offload(rbuf, flood_bytes, left, tag));
            }
            off.wait_all(&reqs).await;
        }
    })
}

/// Hard-quota shedding end to end: the first rank of tenant 1 fills its
/// hard quota with matched sends, posts one more — which must shed
/// immediately with a typed [`OffloadError::QuotaExceeded`], not stall
/// or panic — then drains the window and retries the shed transfer,
/// which must now be admitted and complete. The tenant-1 peer receives
/// both the quota-filling batch and the retried tag, so the run proves
/// the bounded-retry contract: a shed is a recoverable, typed refusal,
/// and the shed request's message id never reaches the wire.
pub fn drive_quota_retry(run: &CheckRun, bytes: u64) -> Result<Report, SimError> {
    assert!(
        run.cfg.multi_tenant(),
        "drive_quota_retry needs a multi-tenant roster with a hard quota on tenant 1"
    );
    let hard = run.cfg.quota(1).hard;
    assert!(hard > 0, "drive_quota_retry needs a hard quota on tenant 1");
    let cfg = run.cfg.clone();
    run.run_offload(async move |off| {
        let ring = tenant_ring(&cfg, off.size(), 1);
        if ring.len() < 2 {
            return;
        }
        let hard = cfg.quota(1).hard as u64;
        let me = off.rank();
        let sender = ring[0];
        let receiver = ring[1];
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        if me == sender {
            // Fill the hard quota exactly: `hard` live posts is the
            // boundary, admitted in full.
            let mut reqs = Vec::with_capacity(hard as usize);
            for tag in 0..hard {
                let buf = fab.alloc(ep, bytes);
                reqs.push(off.send_offload(buf, bytes, receiver, tag));
            }
            // One past the boundary: shed synchronously at post time.
            let doomed_buf = fab.alloc(ep, bytes);
            let doomed = off.send_offload(doomed_buf, bytes, receiver, 777);
            let err = off
                .req_error(doomed)
                .expect("a post over the hard quota must shed, not queue");
            assert!(
                matches!(err, OffloadError::QuotaExceeded { .. }),
                "expected QuotaExceeded, got {err:?}"
            );
            // Drain the window, then the bounded retry must succeed.
            off.wait_all(&reqs).await;
            let retry = off.send_offload(doomed_buf, bytes, receiver, 777);
            off.wait(retry).await;
            assert!(
                off.req_error(retry).is_none(),
                "retry after draining the quota must be admitted and complete"
            );
        } else if me == receiver {
            // Receive the quota-filling batch in full, then the retried
            // tag; staying at `hard` live posts proves the boundary is
            // exact on this side too.
            let mut reqs = Vec::with_capacity(hard as usize);
            for tag in 0..hard {
                let buf = fab.alloc(ep, bytes);
                reqs.push(off.recv_offload(buf, bytes, sender, tag));
            }
            off.wait_all(&reqs).await;
            let buf = fab.alloc(ep, bytes);
            let retry = off.recv_offload(buf, bytes, sender, 777);
            off.wait(retry).await;
            assert!(off.req_error(retry).is_none(), "retried recv must complete");
        }
    })
}

/// A group whose control plane is doomed: run it under a
/// [`offload::FaultPlan`] with `drop_group_packets` set and every
/// `Group_Call` install packet is dropped on every transmit attempt.
/// `Group_Wait` must come back with a typed
/// [`OffloadError::GroupFailed`] once the reliability layer abandons the
/// packet — stalling forever is the bug this driver exists to catch.
pub fn drive_group_abandon(run: &CheckRun, block: u64) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        let p = off.size() as u64;
        if p < 2 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let sendbuf = fab.alloc(ep, block * p);
        let recvbuf = fab.alloc(ep, block * p);
        let a2a = off.record_alltoall(sendbuf, recvbuf, block);
        off.group_call(a2a).await;
        let err = off
            .group_wait(a2a)
            .await
            .expect_err("doomed group must fail with a typed error, not stall");
        assert!(
            matches!(err, OffloadError::GroupFailed { .. }),
            "expected GroupFailed, got {err:?}"
        );
    })
}

/// Deadline and cancellation paths: rank 0 posts a send no peer will
/// ever receive, and `Wait` with a deadline must cancel it and return
/// [`OffloadError::DeadlineExceeded`]; a second orphan is cancelled
/// explicitly and must surface [`OffloadError::Cancelled`]. A matched
/// exchange alongside proves cancellation reaps only its own transfer.
pub fn drive_deadline(run: &CheckRun, bytes: u64) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        let p = off.size();
        if p < 2 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let me = off.rank();
        if me == 0 {
            let orphan_buf = fab.alloc(ep, bytes);
            let orphan = off.send_offload(orphan_buf, bytes, 1, 900);
            let err = off
                .wait_timeout(orphan, SimDelta::from_us(2_000))
                .await
                .expect_err("an orphan send must hit its deadline");
            assert!(
                matches!(err, OffloadError::DeadlineExceeded { .. }),
                "expected DeadlineExceeded, got {err:?}"
            );
            let victim_buf = fab.alloc(ep, bytes);
            let victim = off.send_offload(victim_buf, bytes, 1, 901);
            off.cancel(victim);
            assert!(
                matches!(off.req_error(victim), Some(OffloadError::Cancelled { .. })),
                "explicit cancel must surface OffloadError::Cancelled"
            );
        }
        // A live exchange on separate tags: reaping the orphans must not
        // disturb it, and its FIN must satisfy a deadline-armed wait.
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let sbuf = fab.alloc(ep, bytes);
        let rbuf = fab.alloc(ep, bytes);
        let s = off.send_offload(sbuf, bytes, right, 7);
        let r = off.recv_offload(rbuf, bytes, left, 7);
        off.wait_timeout(s, SimDelta::from_secs(1))
            .await
            .expect("matched send completes within its deadline");
        off.wait_timeout(r, SimDelta::from_secs(1))
            .await
            .expect("matched recv completes within its deadline");
    })
}

/// A ctrl plane that drops every packet (`drop_pm: 1000`): the
/// reliability layer must abandon the send after its bounded
/// retransmission budget and surface a typed
/// [`OffloadError::CtrlUndeliverable`] — not stall, not panic. Only
/// rank 0 posts (an orphan — with the ctrl plane dark no peer could
/// ever match it anyway).
pub fn drive_ctrl_undeliverable(run: &CheckRun, bytes: u64) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        if off.size() < 2 || off.rank() != 0 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(0);
        let buf = fab.alloc(ep, bytes);
        let req = off.send_offload(buf, bytes, 1, 40);
        let err = off
            .wait_timeout(req, SimDelta::from_secs(1))
            .await
            .expect_err("a send on a fully dark ctrl plane must fail, not stall");
        assert!(
            matches!(err, OffloadError::CtrlUndeliverable { .. }),
            "expected CtrlUndeliverable, got {err:?}"
        );
    })
}

/// A data plane that silently drops every payload (`data_drop_pm:
/// 1000`, real byte movement): the end-to-end CRC must catch each
/// landing, the bounded payload-retransmission budget must run dry, and
/// *both* ends of the matched pair must come back with a typed
/// [`OffloadError::DataIntegrity`].
pub fn drive_data_integrity(run: &CheckRun, bytes: u64) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        if off.size() < 2 {
            return;
        }
        let me = off.rank();
        // Pair rank 0 with the first rank of the *other* node: data-plane
        // faults live on the RDMA fabric, which intra-node transfers
        // never touch.
        let peer = off.size() / 2;
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        let req = if me == 0 {
            let buf = fab.alloc(ep, bytes);
            // Nonzero payload: a silently dropped all-zero payload over a
            // zeroed destination would be invisible to the CRC.
            fab.fill_pattern(ep, buf, bytes, 0x0ff1_0ad1)
                .expect("fill doomed payload");
            off.send_offload(buf, bytes, peer, 41)
        } else if me == peer {
            let buf = fab.alloc(ep, bytes);
            off.recv_offload(buf, bytes, 0, 41)
        } else {
            return;
        };
        let err = off
            .wait_timeout(req, SimDelta::from_secs(1))
            .await
            .expect_err("a transfer whose every payload is dropped must fail, not stall");
        assert!(
            matches!(err, OffloadError::DataIntegrity { .. }),
            "rank {me}: expected DataIntegrity, got {err:?}"
        );
    })
}

// The data retry budget must be the binding limit for `drive_brownout`,
// or its shed degenerates to `DataIntegrity`.
const _: () = assert!(offload::HealthConfig::DATA_BUDGET < OffloadConfig::DATA_RETX_MAX);

/// Data-plane brownout under an armed health engine: every payload is
/// dropped (`data_drop_pm: 1000`, real byte movement) and the per-peer
/// data retry budget — smaller than `OffloadConfig::DATA_RETX_MAX` and never refilled,
/// since refills ride recovered payloads — runs dry first. Both ends of
/// the matched pair must shed with a typed
/// [`OffloadError::RetryBudgetExhausted`]: the budget converts an
/// endless CRC-retransmit grind into one early, attributable refusal
/// (DESIGN.md §19).
pub fn drive_brownout(run: &CheckRun, bytes: u64) -> Result<Report, SimError> {
    assert!(
        run.move_bytes,
        "drive_brownout needs move_bytes: timing-only runs carry no payloads"
    );
    assert!(
        run.cfg.health.enabled,
        "drive_brownout proves the retry budget; arm HealthConfig on the run"
    );
    assert_eq!(
        run.cfg.fault.data_drop_pm, 1000,
        "drive_brownout needs a total payload brownout (data_drop_pm: 1000) — \
         partial drops let recovered payloads refill the budget"
    );
    run.run_offload(async move |off| {
        if off.size() < 2 {
            return;
        }
        let me = off.rank();
        // Cross-node pair, as in `drive_data_integrity`: payload faults
        // live on the RDMA fabric, which intra-node transfers never
        // touch.
        let peer = off.size() / 2;
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        let req = if me == 0 {
            let buf = fab.alloc(ep, bytes);
            // Nonzero payload so dropped bytes are visible to the CRC.
            fab.fill_pattern(ep, buf, bytes, 0x0bad_cafe)
                .expect("fill doomed payload");
            off.send_offload(buf, bytes, peer, 42)
        } else if me == peer {
            let buf = fab.alloc(ep, bytes);
            off.recv_offload(buf, bytes, 0, 42)
        } else {
            return;
        };
        let err = off
            .wait_timeout(req, SimDelta::from_secs(1))
            .await
            .expect_err("a browned-out transfer must shed, not stall");
        assert!(
            matches!(err, OffloadError::RetryBudgetExhausted { .. }),
            "rank {me}: expected RetryBudgetExhausted, got {err:?}"
        );
    })
}

/// Circuit-breaker trip and recovery on the cross-GVMI path: sustained
/// fresh-buffer posts under a probabilistic `xreg_fail_pm` trip the
/// receiver-side breaker (each round allocates a new send buffer, so no
/// GVMI-cache hit masks the fault), open-state posts route straight to
/// staging and burn the probe cooldown down, and an eventual half-open
/// probe's registration roll succeeds — closing the breaker. Every
/// transfer must complete either way (fallback and fast-path are both
/// lossless); the checker asserts the trip/probe/close event sequence
/// on top of this driver.
pub fn drive_breaker_recovery(run: &CheckRun, bytes: u64, rounds: u64) -> Result<Report, SimError> {
    assert!(
        run.cfg.health.enabled,
        "drive_breaker_recovery exercises the breaker; arm HealthConfig on the run"
    );
    let pm = run.cfg.fault.xreg_fail_pm;
    assert!(
        pm > 0 && pm < 1000,
        "xreg_fail_pm must be probabilistic (0 < pm < 1000): high enough to trip \
         the breaker, below certainty so a half-open probe can eventually succeed"
    );
    run.run_offload(async move |off| {
        if off.size() < 2 {
            return;
        }
        let me = off.rank();
        // Cross-node pair: cross-GVMI registration only happens for
        // inter-node transfers.
        let peer = off.size() / 2;
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(me);
        if me == 0 {
            for tag in 0..rounds {
                // A fresh buffer per round forces a fresh registration
                // attempt: cache hits never fail, so reusing one buffer
                // would stop feeding the breaker after the first success.
                let buf = fab.alloc(ep, bytes);
                let req = off.send_offload(buf, bytes, peer, tag);
                off.wait(req).await;
                assert!(
                    off.req_error(req).is_none(),
                    "round {tag}: a degraded-mode send must still complete"
                );
            }
        } else if me == peer {
            for tag in 0..rounds {
                let buf = fab.alloc(ep, bytes);
                let req = off.recv_offload(buf, bytes, 0, tag);
                off.wait(req).await;
                assert!(
                    off.req_error(req).is_none(),
                    "round {tag}: a degraded-mode recv must still complete"
                );
            }
        }
    })
}

/// Group-primitive all-to-all plus a barrier-ordered ring all-gather,
/// each called `calls` times. Exercises the group metadata exchange
/// (`RecvMeta`), the group packet/exec cache, cross-registration at
/// install time, and barrier-counter writes.
pub fn drive_alltoall(run: &CheckRun, block: u64, calls: u64) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        let p = off.size() as u64;
        if p < 2 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let sendbuf = fab.alloc(ep, block * p);
        let recvbuf = fab.alloc(ep, block * p);
        let a2a = off.record_alltoall(sendbuf, recvbuf, block);
        let agbuf = fab.alloc(ep, block * p);
        let ring = off.record_allgather_ring(agbuf, block);
        for _ in 0..calls {
            off.group_call(a2a).await;
            off.ctx().compute_async(SimDelta::from_us(2)).await;
            off.group_wait(a2a).await.expect("group offload failed");
            off.group_call(ring).await;
            off.group_wait(ring).await.expect("group offload failed");
        }
    })
}

/// Halo exchange over the Group primitives: the same recorded group —
/// send a face to each ring neighbour, receive theirs, barrier — is
/// re-called every round with compute between call and wait. After the
/// first (cold) call the proxies replay the installed schedule from the
/// group cache without waking the host, which is exactly the overlap
/// window the metrics layer measures.
pub fn drive_group_stencil(
    run: &CheckRun,
    face_bytes: u64,
    rounds: u64,
) -> Result<Report, SimError> {
    run.run_offload(async move |off| {
        let p = off.size();
        if p < 2 {
            return;
        }
        let fab = off.cluster().fabric().clone();
        let ep = off.cluster().host_ep(off.rank());
        let me = off.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let sbuf_r = fab.alloc(ep, face_bytes);
        let sbuf_l = fab.alloc(ep, face_bytes);
        let rbuf_r = fab.alloc(ep, face_bytes);
        let rbuf_l = fab.alloc(ep, face_bytes);
        let g = off.group_start();
        off.group_send(g, sbuf_r, face_bytes, right, 0);
        off.group_send(g, sbuf_l, face_bytes, left, 1);
        off.group_recv(g, rbuf_l, face_bytes, left, 0);
        off.group_recv(g, rbuf_r, face_bytes, right, 1);
        off.group_barrier(g);
        off.group_end(g);
        for _ in 0..rounds {
            off.group_call(g).await;
            off.ctx().compute_async(SimDelta::from_us(5)).await;
            off.group_wait(g).await.expect("group offload failed");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_driver_completes_cleanly() {
        let report = drive_stencil(&CheckRun::baseline(11), 4096, 2).expect("clean run");
        assert!(report.end_time > SimTime::ZERO);
    }

    #[test]
    fn alltoall_driver_completes_cleanly() {
        let report = drive_alltoall(&CheckRun::baseline(12), 2048, 2).expect("clean run");
        assert!(report.end_time > SimTime::ZERO);
    }

    #[test]
    fn jitter_and_proxy_knobs_still_complete() {
        let mut run = CheckRun::baseline(13);
        run.jitter = SimDelta::from_us(3);
        run.proxies_per_dpu = 2;
        run.time_limit = Some(SimTime::ZERO + SimDelta::from_secs(5));
        drive_stencil(&run, 1024, 2).expect("jittered run");
        drive_alltoall(&run, 1024, 2).expect("jittered run");
    }

    #[test]
    fn group_stencil_driver_completes_cleanly() {
        let report = drive_group_stencil(&CheckRun::baseline(14), 4096, 3).expect("clean run");
        assert!(report.end_time > SimTime::ZERO);
    }

    fn two_tenant_run(seed: u64) -> CheckRun {
        use offload::TenantSpec;
        let mut run = CheckRun::baseline(seed);
        run.cfg = run
            .cfg
            .with_tenants(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
        run
    }

    #[test]
    fn tenant_flood_floods_only_its_ring() {
        // 2×2 world, two tenants: tenant 1 = ranks {1, 3}. Only they
        // flood; tenant 0 idles and the run still drains cleanly.
        let report = drive_tenant_flood(&two_tenant_run(15), 1024, 8, 1).expect("clean run");
        assert!(report.end_time > SimTime::ZERO);
    }

    #[test]
    fn noisy_neighbor_driver_completes_with_and_without_aggressor() {
        let solo = drive_noisy_neighbor(&two_tenant_run(16), 4096, 3, 1024, 0).expect("solo run");
        let noisy = drive_noisy_neighbor(&two_tenant_run(16), 4096, 3, 1024, 8).expect("noisy run");
        assert!(solo.end_time > SimTime::ZERO);
        assert!(noisy.end_time > SimTime::ZERO);
    }

    #[test]
    fn brownout_driver_surfaces_typed_budget_shed() {
        use offload::{FaultPlan, HealthConfig};
        let mut run = CheckRun::baseline(18);
        run.move_bytes = true;
        run.cfg = run
            .cfg
            .with_fault(FaultPlan {
                data_drop_pm: 1000,
                seed: 18,
                ..FaultPlan::none()
            })
            .with_health(HealthConfig::armed());
        let report = drive_brownout(&run, 4096).expect("brownout run");
        assert!(report.end_time > SimTime::ZERO);
    }

    #[test]
    fn breaker_recovery_driver_completes_every_round() {
        use offload::{FaultPlan, HealthConfig};
        let mut run = CheckRun::baseline(19);
        run.cfg = run
            .cfg
            .with_fault(FaultPlan {
                xreg_fail_pm: 700,
                seed: 19,
                ..FaultPlan::none()
            })
            .with_health(HealthConfig::armed());
        let report = drive_breaker_recovery(&run, 2048, 48).expect("recovery run");
        assert!(report.end_time > SimTime::ZERO);
    }

    #[test]
    fn quota_retry_driver_surfaces_typed_shed() {
        use offload::TenantSpec;
        let mut run = CheckRun::baseline(17);
        run.cfg = run.cfg.with_tenants(vec![
            TenantSpec::inherit(),
            TenantSpec::inherit().with_hard_quota(2),
        ]);
        let report = drive_quota_retry(&run, 2048).expect("shed-then-retry run");
        assert!(report.end_time > SimTime::ZERO);
    }
}
