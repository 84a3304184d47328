//! The protocol conformance checker: a per-run state machine fed from the
//! offload engine's structured [`ProtoEvent`] stream.
//!
//! The checker is an [`EventSink`] observer — it never touches engine
//! state and never panics on a violation; it records [`Violation`]s and
//! lets the caller decide what a failure means (a test assertion, an
//! explorer outcome, a report line).
//!
//! ## Invariants checked
//!
//! 1. **Matching** — a proxy may only declare `PairMatched` for a
//!    `(src, dst, tag)` flow when it has seen at least that many RTS *and*
//!    RTR messages; at end of run every RTS/RTR is matched.
//! 2. **Completion before FIN** — every `FinSend`/`FinRecv` refers to an
//!    RDMA operation whose completion the proxy has observed; every
//!    completion refers to a posted operation.
//! 3. **Cross-registration before use** — an `mkey2` may drive a transfer
//!    only after a `CrossReg` produced it.
//! 4. **Cache coherence** — a cross-registration cache hit must return
//!    exactly the `(mkey, mkey2)` pair the latest registration of that
//!    `(rank, addr, len)` produced.
//! 5. **At-most-once metadata** — receive metadata is sent at most once
//!    per `(from, to, req)` triple; with the group cache enabled, the full
//!    group packet is shipped at most once per `(host, req)`.
//! 6. **Barrier monotonicity** — barrier counters written along one
//!    `(src, dst-instance)` edge are strictly increasing in `(gen, value)`.
//! 7. **Message-id causality** — `PairMatched` may only cite transfer ids
//!    the proxy has seen in an RTS (send side) and an RTR (recv side);
//!    a `HostReqDone` must cite an id some `HostReqPosted` introduced.
//! 8. **Group FIN identity** — group FINs carry a real, never-reused work
//!    request id from the proxy's wr namespace (never the `0` sentinel,
//!    never a data-write wrid).
//! 9. **Exactly-once app completion** — `HostReqDone` fires at most once
//!    per transfer id, no matter how many duplicate FINs the fault plan
//!    manufactures on the wire.
//! 10. **Every request resolves** — at end of run each `HostReqPosted`
//!     transfer id has either a `HostReqDone`, a typed `ReqFailed`, or a
//!     `ReqCancelled`; requests never vanish into a crashed proxy.
//! 11. **No FIN over a corrupt payload** — a `Send`/`Recv` FIN may not
//!     cite a transfer whose last delivery attempt failed CRC
//!     verification (`PayloadCorrupt` without a later `PayloadRecovered`)
//!     or whose retransmission budget is exhausted
//!     (`DataIntegrityFailed`); at end of run no corruption is left
//!     unresolved.
//! 12. **Bounded queues stay bounded** — with an admission cap
//!     configured, `ProxyQueueDepth` never reports more queued
//!     descriptors than the cap.
//! 13. **No completion after cancel** — once a rank emits `ReqCancelled`
//!     for a transfer id, `HostReqDone` for that id is a violation (late
//!     FINs must be swallowed).
//! 14. **Group abandonment surfaces** — a host-side `CtrlAbandoned` of a
//!     group ctrl message must be followed by a `GroupFailed` — or by a
//!     successful `GroupWaitDone`, which restart replay can legitimately
//!     produce — before the end of the run (`Group_Wait` returns a typed
//!     error, never stalls).
//! 15. **Quota sheds surface as typed failures** — a `QuotaShed` (and a
//!     `DrrGrant`) may only cite a transfer id some `HostReqPosted`
//!     introduced, and by end of run every shed transfer has a
//!     `ReqFailed` — overload shedding degrades service, never loses a
//!     request silently.
//! 16. **No post over an open breaker** — while a `(proxy, peer,
//!     cross-GVMI)` breaker is fully open, the proxy must not take a
//!     per-message `FallbackToStaging` round-trip for that peer: open
//!     routes go straight to staging (`BreakerFastPath`) without
//!     consulting the sick path. The single fallback the *tripping*
//!     post itself emits (its `BreakerTripped` precedes its
//!     `FallbackToStaging` by construction) is exempt. The check keys
//!     on fallback events rather than `CrossReg` because the
//!     infallible `cross_reg_cached` path (one-sided gets, host-direct
//!     degrades) legitimately registers regardless of breaker state —
//!     a documented exemption. Conversely, a `BreakerFastPath` is a
//!     violation unless the breaker is open, or half-open with its one
//!     probe already admitted (a staging probe's verdict waits for its
//!     read to land, and posts in between keep the rerouted path).
//! 17. **Half-open admits exactly one probe** — between a
//!     `BreakerHalfOpen` and the next `BreakerTripped`/`BreakerClosed`
//!     of that `(proxy, peer, path)`, at most one `BreakerProbe` may
//!     fire, and never without a preceding half-open transition.
//! 18. **Budget sheds surface as typed failures** — every
//!     `RetryBudgetExhausted` (keyed `(rank, msg_id)`: a data-plane
//!     shed fires once per side of the matched pair, each citing its
//!     own transfer id) has a `ReqFailed` for that transfer id by end
//!     of run — the budget degrades service, never loses a request.
//!
//! ## Proxy restarts
//!
//! A `ProxyRestarted` event resets the restarting pid's share of the
//! checker state: its flow counters, non-completed work requests,
//! cross-registrations and barrier edges are discarded (a restarted
//! proxy re-registers and replays from scratch, and its old mkeys must
//! never be seen again — keeping `registered` would mask stale-epoch
//! reuse). Completions stay, so a FIN for pre-crash work remains valid.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use offload::{CacheOutcome, FinKind, HealthPath, ProtoEvent};
use parking_lot::Mutex;
use rdma::MrKey;
use simnet::{EventSink, Pid, SimTime};

use crate::idset::IdSet;

/// What the checker needs to know about the run it observes.
#[derive(Clone, Copy, Debug)]
pub struct ConformanceConfig {
    /// Whether the engine runs with its group metadata cache enabled —
    /// if so, a repeated `GroupPacketSent` is a violation; if not, every
    /// `group_call` legitimately resends the packet.
    pub group_cache_enabled: bool,
    /// The engine's admission cap (`OffloadConfig::queue_cap`); `0`
    /// means unbounded queues and disables the queue-depth invariant.
    pub queue_cap: usize,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            group_cache_enabled: true,
            queue_cap: 0,
        }
    }
}

/// One recorded invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short name of the broken invariant (stable, grep-friendly).
    pub invariant: &'static str,
    /// Human-readable description with the offending values.
    pub detail: String,
    /// Virtual time of the offending event.
    pub at: SimTime,
    /// Process that emitted the offending event (`None` for end-of-run
    /// completeness findings, which no single event triggers).
    pub pid: Option<Pid>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} (at {}", self.invariant, self.detail, self.at)?;
        match self.pid {
            Some(pid) => write!(f, ", {pid})"),
            None => write!(f, ", end of run)"),
        }
    }
}

/// Breaker state of one `(proxy, peer, path)` as the event stream shows
/// it; absent from the map means closed (or never tripped).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BreakerObs {
    Open,
    HalfOpen,
}

#[derive(Default)]
struct FlowState {
    /// Proxy pid that handles this flow (every event of a flow comes
    /// from `proxy_for_rank(src)`), so a restart can reset only the
    /// restarting proxy's flows.
    owner: Option<Pid>,
    rts: u64,
    rtr: u64,
    matched: u64,
    /// Transfer ids seen in RTS / RTR messages of this flow, so a
    /// `PairMatched` can be checked against ids the proxy really has.
    rts_ids: BTreeSet<u64>,
    rtr_ids: BTreeSet<u64>,
}

#[derive(Default)]
struct State {
    /// Per `(src, dst, tag)` matching counters.
    flows: BTreeMap<(usize, usize, u64), FlowState>,
    /// Work requests posted / completed, per emitting proxy (wrid spaces
    /// are per-proxy counters, so the pid is part of the key).
    posted: IdSet<(Pid, u64)>,
    completed: IdSet<(Pid, u64)>,
    /// Every mkey2 a CrossReg produced, keyed by the registering proxy
    /// so a restart invalidates exactly that proxy's keys.
    registered: BTreeSet<(Pid, MrKey)>,
    /// Latest registration per `(proxy, host_rank, addr, len)`.
    latest_reg: BTreeMap<(Pid, usize, u64, u64), (MrKey, MrKey)>,
    /// RecvMeta count per `(from, to, req)`.
    recv_meta: BTreeMap<(usize, usize, usize), u64>,
    /// Group packet count per `(host, req)`.
    group_packets: BTreeMap<(usize, usize), u64>,
    /// Breaker state per `(proxy, peer rank, path class)`, from the
    /// `BreakerTripped` / `BreakerHalfOpen` / `BreakerClosed` stream.
    breakers: BTreeMap<(Pid, usize, HealthPath), BreakerObs>,
    /// One-shot exemptions for invariant 16: the post that trips a
    /// cross-GVMI breaker emits its own `FallbackToStaging` right
    /// after the `BreakerTripped` event it caused.
    breaker_fallback_grace: BTreeSet<(Pid, usize)>,
    /// Probes observed since the last `BreakerHalfOpen` of the key;
    /// absent means the breaker is not half-open.
    probes_since_half_open: BTreeMap<(Pid, usize, HealthPath), u64>,
    /// `RetryBudgetExhausted` sheds, keyed `(rank, msg_id)` — each
    /// must surface as a `ReqFailed` for that transfer id.
    budget_shed: BTreeSet<(usize, u64)>,
    /// Last `(gen, value)` per barrier edge `(proxy, src, dst_host,
    /// dst_req)`.
    barrier_last: BTreeMap<(Pid, usize, usize, usize), (u64, u64)>,
    /// Group FIN wrids per proxy — must be fresh ids, never reused (the
    /// wr namespace is durable, so this survives restarts).
    group_fin_wrids: IdSet<(Pid, u64)>,
    /// Transfer ids introduced by `HostReqPosted`.
    req_ids_posted: IdSet<u64>,
    /// Transfer ids a `HostReqDone` completed toward the app.
    done_ids: IdSet<u64>,
    /// Transfer ids surfaced to the app as a typed failure.
    failed_ids: IdSet<u64>,
    /// Transfer ids the host cancelled (deadline or explicit).
    cancelled_ids: IdSet<u64>,
    /// Transfer ids shed at admission over a tenant hard quota — each
    /// must surface as a `ReqFailed` by end of run.
    quota_shed_ids: IdSet<u64>,
    /// Transfers whose last delivery attempt failed CRC verification at
    /// the keyed proxy, with no recovery seen yet (volatile per proxy:
    /// a restart replays the write from scratch).
    corrupt_outstanding: IdSet<(Pid, u64)>,
    /// Transfers whose data-path retransmission budget is exhausted —
    /// terminal, so any later FIN for them is a violation.
    integrity_failed: IdSet<(Pid, u64)>,
    /// Host-side abandonments of group ctrl messages; they demand a
    /// resolution — a `GroupFailed`, or a successful `GroupWaitDone`
    /// (restart replay can complete a collective whose original install
    /// packet was abandoned) — before end of run.
    group_ctrl_abandoned: u64,
    /// `GroupFailed` events observed.
    group_failures_seen: u64,
    /// Successful `GroupWaitDone` events observed.
    group_waits_done: u64,
    violations: Vec<Violation>,
    events_seen: u64,
}

impl State {
    fn violate(&mut self, at: SimTime, pid: Option<Pid>, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            invariant,
            detail,
            at,
            pid,
        });
    }

    // No analyzer rule counts these arms: a variant this match does not
    // name must fail to compile, so it may never grow a wildcard (clippy
    // reports a wildcard covering exactly one variant under the second
    // lint — the state right after a variant is added).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_event(&mut self, at: SimTime, src: Pid, ev: &ProtoEvent, cfg: &ConformanceConfig) {
        let pid = Some(src);
        self.events_seen += 1;
        match *ev {
            ProtoEvent::RtsAtProxy {
                src_rank,
                dst_rank,
                tag,
                msg_id,
            } => {
                let f = self.flows.entry((src_rank, dst_rank, tag)).or_default();
                f.owner.get_or_insert(src);
                f.rts += 1;
                f.rts_ids.insert(msg_id);
            }
            ProtoEvent::RtrAtProxy {
                src_rank,
                dst_rank,
                tag,
                msg_id,
            } => {
                let f = self.flows.entry((src_rank, dst_rank, tag)).or_default();
                f.owner.get_or_insert(src);
                f.rtr += 1;
                f.rtr_ids.insert(msg_id);
            }
            ProtoEvent::PairMatched {
                src_rank,
                dst_rank,
                tag,
                send_msg_id,
                recv_msg_id,
            } => {
                let key = (src_rank, dst_rank, tag);
                let f = self.flows.entry(key).or_default();
                f.owner.get_or_insert(src);
                let send_known = f.rts_ids.contains(&send_msg_id);
                let recv_known = f.rtr_ids.contains(&recv_msg_id);
                let overmatched = f.matched + 1 > f.rts.min(f.rtr);
                if !overmatched {
                    f.matched += 1;
                }
                let (rts, rtr, matched) = (f.rts, f.rtr, f.matched);
                // Settled — every RTS and RTR matched, by known ids — so
                // the flow is dropped and the table holds only what is in
                // flight. A later match on the key finds a fresh flow with
                // nothing to match, which is still `match-without-rts-rtr`.
                if send_known && recv_known && rts == matched && rtr == matched {
                    self.flows.remove(&key);
                }
                if overmatched {
                    self.violate(
                        at,
                        pid,
                        "match-without-rts-rtr",
                        format!(
                            "flow ({src_rank}->{dst_rank}, tag {tag}) matched {} with only \
                             {rts} RTS / {rtr} RTR seen",
                            matched + 1
                        ),
                    );
                }
                if !send_known || !recv_known {
                    self.violate(
                        at,
                        pid,
                        "match-cites-unknown-msg-id",
                        format!(
                            "flow ({src_rank}->{dst_rank}, tag {tag}) matched transfer ids \
                             {send_msg_id:#x}/{recv_msg_id:#x} which no RTS/RTR introduced"
                        ),
                    );
                }
            }
            ProtoEvent::WritePosted { wrid, .. } => {
                if !self.posted.insert((src, wrid)) {
                    self.violate(
                        at,
                        pid,
                        "duplicate-wrid",
                        format!("work request {wrid:#x} posted twice"),
                    );
                } else if self.group_fin_wrids.contains((src, wrid)) {
                    self.violate(
                        at,
                        pid,
                        "group-fin-wrid-collision",
                        format!("work request {wrid:#x} was already spent on a group FIN"),
                    );
                }
            }
            ProtoEvent::WriteCompleted { wrid } => {
                if !self.posted.contains((src, wrid)) {
                    self.violate(
                        at,
                        pid,
                        "completion-without-post",
                        format!("completion for {wrid:#x} which was never posted"),
                    );
                }
                self.completed.insert((src, wrid));
            }
            ProtoEvent::FinSent {
                rank,
                req,
                wrid,
                kind,
                msg_id,
            } => {
                if kind != FinKind::Group && msg_id != 0 {
                    if self.corrupt_outstanding.contains((src, msg_id)) {
                        self.violate(
                            at,
                            pid,
                            "fin-after-corrupt",
                            format!(
                                "{kind:?} FIN for transfer {msg_id:#x} whose last \
                                 delivery attempt failed CRC verification"
                            ),
                        );
                    }
                    if self.integrity_failed.contains((src, msg_id)) {
                        self.violate(
                            at,
                            pid,
                            "fin-after-corrupt",
                            format!(
                                "{kind:?} FIN for transfer {msg_id:#x} after its \
                                 data-path retransmission budget was exhausted"
                            ),
                        );
                    }
                }
                if kind == FinKind::Group {
                    if wrid == 0 {
                        self.violate(
                            at,
                            pid,
                            "group-fin-zero-wrid",
                            format!(
                                "group FIN for rank {rank} req {req} carries the \
                                 wrid 0 sentinel instead of a real work request id"
                            ),
                        );
                    } else if self.posted.contains((src, wrid)) {
                        self.violate(
                            at,
                            pid,
                            "group-fin-wrid-collision",
                            format!(
                                "group FIN for rank {rank} req {req} reuses {wrid:#x}, \
                                 the wrid of a posted RDMA write"
                            ),
                        );
                    } else if !self.group_fin_wrids.insert((src, wrid)) {
                        self.violate(
                            at,
                            pid,
                            "group-fin-wrid-collision",
                            format!(
                                "group FIN for rank {rank} req {req} reuses {wrid:#x}, \
                                 already spent on an earlier group FIN"
                            ),
                        );
                    }
                } else if !self.completed.contains((src, wrid)) {
                    self.violate(
                        at,
                        pid,
                        "fin-before-completion",
                        format!(
                            "{kind:?} FIN for rank {rank} req {req} references \
                             {wrid:#x} with no completed RDMA write"
                        ),
                    );
                }
            }
            ProtoEvent::CrossReg {
                host_rank,
                addr,
                len,
                mkey,
                mkey2,
            } => {
                self.registered.insert((src, mkey2));
                self.latest_reg
                    .insert((src, host_rank, addr.0, len), (mkey, mkey2));
            }
            ProtoEvent::CrossRegCacheLookup {
                host_rank,
                addr,
                len,
                outcome,
                mkey,
                mkey2,
            } => {
                if outcome == CacheOutcome::Hit {
                    let want = self.latest_reg.get(&(src, host_rank, addr.0, len));
                    match ((mkey, mkey2), want) {
                        ((Some(m), Some(m2)), Some(&(wm, wm2))) if m == wm && m2 == wm2 => {}
                        _ => self.violate(
                            at,
                            pid,
                            "cache-hit-wrong-key",
                            format!(
                                "cache hit for (rank {host_rank}, {addr:?}, {len}) returned \
                                 {mkey:?}/{mkey2:?} but the latest registration recorded \
                                 {want:?}"
                            ),
                        ),
                    }
                }
            }
            ProtoEvent::Mkey2Used { mkey2 } => {
                if !self.registered.contains(&(src, mkey2)) {
                    self.violate(
                        at,
                        pid,
                        "mkey2-before-crossreg",
                        format!(
                            "{mkey2:?} drives a transfer but no CrossReg of the \
                             current proxy incarnation produced it"
                        ),
                    );
                }
            }
            ProtoEvent::RecvMetaSent {
                from_rank,
                to_rank,
                req_id,
            } => {
                let e = self
                    .recv_meta
                    .entry((from_rank, to_rank, req_id))
                    .or_insert(0);
                *e += 1;
                let n = *e;
                if n > 1 {
                    self.violate(
                        at,
                        pid,
                        "recv-meta-resent",
                        format!(
                            "receive metadata ({from_rank}->{to_rank}, req {req_id}) \
                             sent {n} times"
                        ),
                    );
                }
            }
            ProtoEvent::GroupPacketSent { host_rank, req_id } => {
                let e = self.group_packets.entry((host_rank, req_id)).or_insert(0);
                *e += 1;
                let n = *e;
                if cfg.group_cache_enabled && n > 1 {
                    self.violate(
                        at,
                        pid,
                        "group-packet-resent",
                        format!(
                            "group packet (rank {host_rank}, req {req_id}) shipped {n} \
                             times with the group cache enabled"
                        ),
                    );
                }
            }
            ProtoEvent::BarrierCntr {
                src_rank,
                dst_host_rank,
                dst_req_id,
                gen,
                value,
            } => {
                let key = (src, src_rank, dst_host_rank, dst_req_id);
                let cur = (gen, value);
                if let Some(&last) = self.barrier_last.get(&key) {
                    if cur <= last {
                        self.violate(
                            at,
                            pid,
                            "barrier-counter-not-monotone",
                            format!(
                                "barrier edge {src_rank}->({dst_host_rank}, req \
                                 {dst_req_id}) wrote (gen {gen}, value {value}) after \
                                 (gen {}, value {})",
                                last.0, last.1
                            ),
                        );
                    }
                }
                self.barrier_last.insert(key, cur);
            }
            ProtoEvent::HostReqPosted { msg_id, .. } => {
                self.req_ids_posted.insert(msg_id);
            }
            ProtoEvent::HostReqDone { rank, msg_id, .. } => {
                if !self.req_ids_posted.contains(msg_id) {
                    self.violate(
                        at,
                        pid,
                        "done-without-post",
                        format!(
                            "rank {rank} completed transfer {msg_id:#x} which no \
                             HostReqPosted introduced"
                        ),
                    );
                }
                if !self.done_ids.insert(msg_id) {
                    self.violate(
                        at,
                        pid,
                        "fin-duplicated-to-app",
                        format!(
                            "rank {rank} surfaced completion of transfer {msg_id:#x} \
                             to the application twice"
                        ),
                    );
                }
                if self.cancelled_ids.contains(msg_id) {
                    self.violate(
                        at,
                        pid,
                        "done-after-cancel",
                        format!(
                            "rank {rank} completed transfer {msg_id:#x} after \
                             cancelling it — the late FIN must be swallowed"
                        ),
                    );
                }
            }
            ProtoEvent::ReqFailed { msg_id, .. } => {
                self.failed_ids.insert(msg_id);
            }
            ProtoEvent::ReqCancelled { msg_id, .. } => {
                self.cancelled_ids.insert(msg_id);
            }
            ProtoEvent::QuotaShed {
                tenant,
                rank,
                msg_id,
            } => {
                if !self.req_ids_posted.contains(msg_id) {
                    self.violate(
                        at,
                        pid,
                        "quota-shed-unknown-id",
                        format!(
                            "rank {rank} shed transfer {msg_id:#x} for tenant {tenant} \
                             but no HostReqPosted introduced that id"
                        ),
                    );
                }
                self.quota_shed_ids.insert(msg_id);
            }
            ProtoEvent::DrrGrant {
                tenant,
                rank,
                msg_id,
            } => {
                if !self.req_ids_posted.contains(msg_id) {
                    self.violate(
                        at,
                        pid,
                        "grant-unknown-id",
                        format!(
                            "rank {rank} granted deferred transfer {msg_id:#x} for \
                             tenant {tenant} but no HostReqPosted introduced that id"
                        ),
                    );
                }
            }
            ProtoEvent::BreakerTripped { peer, path } => {
                self.breakers.insert((src, peer, path), BreakerObs::Open);
                self.probes_since_half_open.remove(&(src, peer, path));
                if path == HealthPath::CrossGvmi {
                    // The tripping post's own fallback follows this event.
                    self.breaker_fallback_grace.insert((src, peer));
                }
            }
            ProtoEvent::BreakerHalfOpen { peer, path } => {
                self.breakers
                    .insert((src, peer, path), BreakerObs::HalfOpen);
                self.probes_since_half_open.insert((src, peer, path), 0);
            }
            ProtoEvent::BreakerProbe { peer, path, msg_id } => {
                match self.probes_since_half_open.get_mut(&(src, peer, path)) {
                    Some(n) => {
                        *n += 1;
                        if *n > 1 {
                            let n = *n;
                            self.violate(
                                at,
                                pid,
                                "half-open-multi-probe",
                                format!(
                                    "breaker (peer {peer}, {path:?}) admitted probe \
                                     {n} (transfer {msg_id:#x}) while half-open — \
                                     half-open admits exactly one"
                                ),
                            );
                        }
                    }
                    None => self.violate(
                        at,
                        pid,
                        "probe-without-half-open",
                        format!(
                            "breaker (peer {peer}, {path:?}) probed transfer \
                             {msg_id:#x} without a half-open transition"
                        ),
                    ),
                }
            }
            ProtoEvent::BreakerClosed { peer, path } => {
                self.breakers.remove(&(src, peer, path));
                self.probes_since_half_open.remove(&(src, peer, path));
                self.breaker_fallback_grace.remove(&(src, peer));
            }
            ProtoEvent::BreakerFastPath { peer, path, msg_id } => {
                // Open, or half-open with its one probe already admitted
                // (a staging probe stays in flight until its read lands).
                let rerouting = match self.breakers.get(&(src, peer, path)) {
                    Some(BreakerObs::Open) => true,
                    Some(BreakerObs::HalfOpen) => {
                        self.probes_since_half_open.get(&(src, peer, path)) == Some(&1)
                    }
                    None => false,
                };
                if !rerouting {
                    self.violate(
                        at,
                        pid,
                        "fastpath-without-open-breaker",
                        format!(
                            "transfer {msg_id:#x} was rerouted around breaker \
                             (peer {peer}, {path:?}) which is not open"
                        ),
                    );
                }
            }
            ProtoEvent::FallbackToStaging {
                src_rank, msg_id, ..
            } => {
                if self.breakers.get(&(src, src_rank, HealthPath::CrossGvmi))
                    == Some(&BreakerObs::Open)
                    && !self.breaker_fallback_grace.remove(&(src, src_rank))
                {
                    self.violate(
                        at,
                        pid,
                        "post-over-open-breaker",
                        format!(
                            "transfer {msg_id:#x} took a per-message staging \
                             fallback for peer {src_rank} whose cross-GVMI breaker \
                             is open — open routes must fast-path"
                        ),
                    );
                }
            }
            ProtoEvent::RetryBudgetExhausted { rank, msg_id, .. } => {
                self.budget_shed.insert((rank, msg_id));
                // A data-plane shed is the typed terminal resolution of
                // an outstanding corruption: the budget preempts further
                // retransmission, so neither a recovery nor a
                // DataIntegrityFailed will follow — and any later FIN
                // for the shed transfer is a violation.
                self.corrupt_outstanding.remove((src, msg_id));
                self.integrity_failed.insert((src, msg_id));
            }
            ProtoEvent::PayloadCorrupt { msg_id, .. } => {
                self.corrupt_outstanding.insert((src, msg_id));
            }
            ProtoEvent::PayloadRecovered { msg_id, attempts } => {
                if !self.corrupt_outstanding.remove((src, msg_id)) {
                    self.violate(
                        at,
                        pid,
                        "recovery-without-corrupt",
                        format!(
                            "transfer {msg_id:#x} reported recovered after {attempts} \
                             attempts but no corruption was outstanding"
                        ),
                    );
                }
            }
            ProtoEvent::DataIntegrityFailed { msg_id, .. } => {
                self.corrupt_outstanding.remove((src, msg_id));
                self.integrity_failed.insert((src, msg_id));
            }
            ProtoEvent::ProxyQueueDepth {
                send_depth,
                recv_depth,
            } => {
                if cfg.queue_cap > 0 && send_depth + recv_depth > cfg.queue_cap {
                    self.violate(
                        at,
                        pid,
                        "queue-over-cap",
                        format!(
                            "proxy queues hold {} descriptors past the admission \
                             cap of {}",
                            send_depth + recv_depth,
                            cfg.queue_cap
                        ),
                    );
                }
            }
            ProtoEvent::CtrlAbandoned { at_proxy, kind, .. } => {
                // A host abandoning a group ctrl message strands the whole
                // collective; `fail_group` must surface it as `GroupFailed`
                // (checked at end of run) instead of letting `Group_Wait`
                // stall forever.
                if !at_proxy
                    && matches!(
                        kind,
                        offload::CtrlKind::GroupPacket | offload::CtrlKind::GroupExec
                    )
                {
                    self.group_ctrl_abandoned += 1;
                }
            }
            ProtoEvent::GroupFailed { .. } => {
                self.group_failures_seen += 1;
            }
            ProtoEvent::GroupWaitDone { .. } => {
                self.group_waits_done += 1;
            }
            ProtoEvent::ProxyRestarted { .. } => {
                // The restarted proxy replays everything that had not
                // completed: wipe its share of the matching, posting,
                // registration and barrier state so the replay is judged
                // as a fresh run. Completions and group-FIN wrids are
                // durable (journaled / namespace-monotone) and stay.
                self.flows.retain(|_, f| f.owner != Some(src));
                let completed = &self.completed;
                self.posted.retain(|e| e.0 != src || completed.contains(e));
                self.registered.retain(|e| e.0 != src);
                self.latest_reg.retain(|k, _| k.0 != src);
                self.barrier_last.retain(|k, _| k.0 != src);
                // In-flight payload-verification state is volatile: the
                // restarted proxy replays the write from scratch, so a
                // pre-crash corruption is not "outstanding" any more.
                // Exhausted budgets stay — they already failed the app.
                self.corrupt_outstanding.retain(|e| e.0 != src);
                // Hosts legitimately re-ship receive metadata and group
                // packets to a restarted proxy; at-most-once holds only
                // between restarts.
                self.recv_meta.clear();
                self.group_packets.clear();
                // The restarted proxy's health engine resets open
                // breakers to half-open *silently* (the next post's
                // probe re-emits `BreakerHalfOpen`), so forget its
                // breaker observations rather than judge post-restart
                // events against pre-crash state.
                self.breakers.retain(|k, _| k.0 != src);
                self.probes_since_half_open.retain(|k, _| k.0 != src);
                self.breaker_fallback_grace.retain(|k| k.0 != src);
            }
            // Observability-only events: aggregated by `offload::Metrics`,
            // carrying no protocol invariants of their own.
            ProtoEvent::HostCacheLookup { .. }
            | ProtoEvent::CacheEvicted { .. }
            | ProtoEvent::CtrlDropped { .. }
            | ProtoEvent::CtrlRetransmit { .. }
            | ProtoEvent::CtrlDuplicateDropped { .. }
            | ProtoEvent::ReqReplayed { .. }
            | ProtoEvent::StaleCqe { .. }
            | ProtoEvent::HostWakeup { .. }
            | ProtoEvent::GroupCallReturned { .. }
            | ProtoEvent::GroupExecSent { .. }
            | ProtoEvent::BarrierStall { .. }
            | ProtoEvent::QueueFullNack { .. }
            | ProtoEvent::CreditDeferred { .. }
            | ProtoEvent::StagingReclaimed { .. }
            | ProtoEvent::ReqReaped { .. }
            | ProtoEvent::JournalTruncated { .. }
            | ProtoEvent::JournalSize { .. }
            | ProtoEvent::HostFinalized { .. } => {}
        }
    }
}

/// A protocol conformance checker. Install its [`Conformance::sink`] on a
/// cluster (or pass it to a `workloads::CheckRun`), run the workload,
/// then call [`Conformance::finish`].
#[derive(Clone)]
pub struct Conformance {
    cfg: ConformanceConfig,
    inner: Arc<Mutex<State>>,
}

impl Conformance {
    /// A fresh checker for a run described by `cfg`.
    pub fn new(cfg: ConformanceConfig) -> Conformance {
        Conformance {
            cfg,
            inner: Arc::new(Mutex::new(State::default())),
        }
    }

    /// The event sink to install on the simulation. Non-`ProtoEvent`
    /// payloads are ignored, so it can share the sink with other
    /// observers' event types.
    pub fn sink(&self) -> EventSink {
        let cfg = self.cfg;
        offload::proto_sink(
            Arc::clone(&self.inner),
            move |st: &mut State, at, pid, ev| st.on_event(at, pid, ev, &cfg),
        )
    }

    /// Violations recorded so far (cheap; does not run end-of-run checks).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Number of protocol events observed.
    pub fn events_seen(&self) -> u64 {
        self.inner.lock().events_seen
    }

    /// End-of-run verdict: everything recorded during the run plus the
    /// completeness checks that only make sense once the run is over
    /// (every RTS/RTR matched, every posted write completed). Reads the
    /// state without changing it, so calling it again returns the same
    /// findings (plus whatever events arrived in between).
    pub fn finish(&self) -> Vec<Violation> {
        let st = self.inner.lock();
        let mut out = st.violations.clone();
        let mut end = |pid: Option<Pid>, invariant: &'static str, detail: String| {
            out.push(Violation {
                invariant,
                detail,
                at: SimTime::ZERO,
                pid,
            });
        };
        for (&(src, dst, tag), f) in &st.flows {
            let (rts, rtr, matched) = (f.rts, f.rtr, f.matched);
            // A flow whose every transfer the host cancelled legitimately
            // ends unmatched: the descriptors were reaped on purpose.
            let mut ids = f.rts_ids.iter().chain(&f.rtr_ids).peekable();
            let reaped = ids.peek().is_some() && ids.all(|&id| st.cancelled_ids.contains(id));
            let settled = rts == rtr && rtr == matched;
            if !settled && !reaped {
                end(
                    None,
                    "unmatched-flow",
                    format!(
                        "flow ({src}->{dst}, tag {tag}) ended with {rts} RTS, {rtr} RTR, \
                         {matched} matches"
                    ),
                );
            }
        }
        for (pid, wrid) in st.posted.iter().filter(|&k| !st.completed.contains(k)) {
            end(
                Some(pid),
                "write-never-completed",
                format!("work request {wrid:#x} posted but no completion observed"),
            );
        }
        let resolved = |id| {
            st.done_ids.contains(id) || st.failed_ids.contains(id) || st.cancelled_ids.contains(id)
        };
        for id in st.req_ids_posted.iter().filter(|&id| !resolved(id)) {
            end(
                None,
                "posted-never-done",
                format!(
                    "transfer {id:#x} was posted but neither completed nor \
                     surfaced as a typed failure"
                ),
            );
        }
        for (pid, id) in st.corrupt_outstanding.iter() {
            end(
                Some(pid),
                "corrupt-never-resolved",
                format!(
                    "transfer {id:#x} ended the run with a failed CRC and neither \
                     a recovery nor a typed integrity failure"
                ),
            );
        }
        for id in st
            .quota_shed_ids
            .iter()
            .filter(|&id| !st.failed_ids.contains(id))
        {
            end(
                None,
                "quota-shed-unsurfaced",
                format!(
                    "transfer {id:#x} was shed over a tenant hard quota but never \
                     surfaced as a typed ReqFailed"
                ),
            );
        }
        for &(rank, id) in st
            .budget_shed
            .iter()
            .filter(|(_, id)| !st.failed_ids.contains(*id))
        {
            end(
                None,
                "budget-shed-unsurfaced",
                format!(
                    "transfer {id:#x} (rank {rank}) was shed by a retry budget but \
                     never surfaced as a typed ReqFailed"
                ),
            );
        }
        // Restart replay may legitimately complete a collective whose
        // original install packet was abandoned (the stale reliability
        // entry gives up while the replayed one succeeds), so any
        // successful group wait also counts as a resolution.
        if st.group_ctrl_abandoned > 0 && st.group_failures_seen == 0 && st.group_waits_done == 0 {
            let n = st.group_ctrl_abandoned;
            end(
                None,
                "group-abandon-unsurfaced",
                format!(
                    "{n} group ctrl message(s) were abandoned at a host but no \
                     GroupFailed ever surfaced — Group_Wait would stall"
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offload::{PathKind, ReqDir};

    fn feed(checker: &Conformance, events: &[ProtoEvent]) {
        let batch: Vec<simnet::Emitted<'_>> = events
            .iter()
            .enumerate()
            .map(|(i, ev)| simnet::Emitted {
                at: SimTime::from_ps(i as u64),
                pid: Pid::from_index(4),
                event: ev,
            })
            .collect();
        checker.sink()(&batch);
    }

    fn invariants(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn finish_is_idempotent() {
        let checker = Conformance::new(ConformanceConfig::default());
        // An RTS that is never matched, a write that never completes and
        // a request that never resolves: one end-of-run finding each.
        feed(
            &checker,
            &[
                ProtoEvent::HostReqPosted {
                    rank: 0,
                    msg_id: 1,
                    peer: 1,
                    tag: 7,
                    bytes: 64,
                    dir: ReqDir::Send,
                },
                ProtoEvent::RtsAtProxy {
                    src_rank: 0,
                    dst_rank: 1,
                    tag: 7,
                    msg_id: 1,
                },
                ProtoEvent::WritePosted {
                    wrid: 9,
                    bytes: 64,
                    path: PathKind::CrossGvmi,
                    msg_id: 1,
                },
            ],
        );
        let first = checker.finish();
        assert_eq!(
            invariants(&first),
            [
                "unmatched-flow",
                "write-never-completed",
                "posted-never-done"
            ]
        );
        let again = checker.finish();
        assert_eq!(
            first.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        );
        assert!(checker.violations().is_empty(), "finish records nothing");
    }

    #[test]
    fn a_match_past_a_settled_flow_is_still_reported() {
        let checker = Conformance::new(ConformanceConfig::default());
        let rts = ProtoEvent::RtsAtProxy {
            src_rank: 0,
            dst_rank: 1,
            tag: 7,
            msg_id: 1,
        };
        let rtr = ProtoEvent::RtrAtProxy {
            src_rank: 0,
            dst_rank: 1,
            tag: 7,
            msg_id: 1 << 32 | 1,
        };
        let matched = ProtoEvent::PairMatched {
            src_rank: 0,
            dst_rank: 1,
            tag: 7,
            send_msg_id: 1,
            recv_msg_id: 1 << 32 | 1,
        };
        feed(&checker, &[rts, rtr, matched]);
        assert!(checker.finish().is_empty(), "one RTS, one RTR, one match");
        feed(&checker, &[matched]);
        assert!(
            invariants(&checker.violations()).contains(&"match-without-rts-rtr"),
            "{:?}",
            checker.violations()
        );
    }
}
