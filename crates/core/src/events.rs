//! Structured protocol events for external conformance checking.
//!
//! Every protocol-relevant transition in the offload engine emits one of
//! these events through [`simnet::ProcessCtx::emit`]. A checker (see the
//! `checker` crate) installs an [`simnet::EventSink`] on the cluster and
//! replays the stream against the protocol's invariants: RTS-before-RTR
//! matching, FIN-after-completion, cross-registration before mkey2 use,
//! cache coherence, at-most-once metadata exchange, and barrier-counter
//! monotonicity.
//!
//! The events deliberately use plain field types (`usize`, `u64`,
//! [`rdma::MrKey`], [`rdma::VAddr`]) so observers outside this crate can
//! consume them without access to crate-private protocol structures.
//!
//! Every event and every small field enum is declared exactly once, in
//! the `proto_events!` and `flight_enums!` tables below; the enum
//! definitions and their flight-dump text codec (see [`crate::flight`])
//! are both expansions of those tables, so a new variant or field is
//! rendered, parsed and round-trip-sampled without touching `flight.rs`.
//! The hand-written consumers (`metrics.rs`, the checker's
//! `conformance.rs`) match `ProtoEvent` without a wildcard arm, so the
//! compiler rejects a variant they do not handle.

use std::sync::Arc;

use parking_lot::Mutex;
use rdma::{MrKey, VAddr};
use simnet::{Emitted, EventSink, Pid, SimTime};

use crate::flight::{Fields, FlightField};

/// Declares the field-less enums events carry, plus each one's
/// [`FlightField`] codec: a value is written as its variant identifier
/// and parsed back by the same identifier.
macro_rules! flight_enums {
    ($(
        $(#[$meta:meta])*
        pub enum $Name:ident {
            $( $(#[$vmeta:meta])* $Variant:ident ),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        pub enum $Name {
            $( $(#[$vmeta])* $Variant ),*
        }

        impl FlightField for $Name {
            const WHAT: &'static str = stringify!($Name);
            const SAMPLES: &'static [$Name] = &[$($Name::$Variant),*];

            fn put(self, out: &mut String) {
                out.push_str(match self {
                    $($Name::$Variant => stringify!($Variant)),*
                });
            }

            fn get(text: &str) -> Option<$Name> {
                match text {
                    $(stringify!($Variant) => Some($Name::$Variant),)*
                    _ => None,
                }
            }
        }
    )*};
}

flight_enums! {
    /// Which FIN message a proxy sent for a completed transfer.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FinKind {
        /// `FinSend` — completion notice to the sending rank.
        Send,
        /// `FinRecv` — completion notice to the receiving rank.
        Recv,
        /// `GroupFin` — completion notice for a whole group generation.
        Group,
    }

    /// Outcome of a registration-cache lookup.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CacheOutcome {
        /// A valid entry for exactly `(rank, addr, len)` was found.
        Hit,
        /// No entry was found.
        Miss,
        /// An entry was found but failed validation and was evicted.
        Stale,
    }

    /// Which leg of a data transfer an RDMA work request implements.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum PathKind {
        /// Direct host-to-host write through a cross-GVMI mkey2.
        CrossGvmi,
        /// Staging path, first hop: RDMA read from the source host into the
        /// proxy's staging buffer.
        StagingHop1,
        /// Staging path, second hop: RDMA write from the staging buffer to
        /// the destination host.
        StagingHop2,
    }

    /// Direction of a host-posted basic request, as seen by the posting rank.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ReqDir {
        /// `Send_offload` — the rank is the data source.
        Send,
        /// `Recv_offload` — the rank is the data destination.
        Recv,
        /// A one-sided put/get posted through the SHMEM facade.
        OneSided,
    }

    /// Which host-side registration cache a lookup touched.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum HostCacheKind {
        /// The per-proxy GVMI registration cache (mkey for offloaded sends).
        Gvmi,
        /// The plain IB registration cache (lkey/rkey for host verbs).
        Ib,
    }

    /// Which cache an eviction came from.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CacheSide {
        /// Host-side GVMI registration cache.
        HostGvmi,
        /// Host-side IB registration cache.
        HostIb,
        /// DPU-side cross-registration cache.
        DpuCross,
    }

    /// Path class a health-engine breaker or retry budget governs
    /// (DESIGN.md §19). Coarser than [`PathKind`]: both staging hops share
    /// one breaker, and the ctrl plane gets its own class.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum HealthPath {
        /// The direct cross-GVMI data path (registration + host-to-host
        /// write). Tripped: posts reroute to staging without probing.
        CrossGvmi,
        /// The staging store-and-forward data path. Tripped: posts degrade
        /// to a host-direct write where the registration material allows.
        Staging,
        /// The reliable ctrl plane (retry budgets only; ctrl has no
        /// alternate route to break to).
        Ctrl,
    }

    /// Kind of a ctrl-plane message, for drop/retransmit attribution in
    /// lifecycle timelines (the wire enum itself is crate-private).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CtrlKind {
        /// Ready-to-send.
        Rts,
        /// Ready-to-receive.
        Rtr,
        /// Send-side completion.
        FinSend,
        /// Receive-side completion.
        FinRecv,
        /// Host→host receive metadata.
        RecvMeta,
        /// Full group metadata packet.
        GroupPacket,
        /// Cached group execution doorbell.
        GroupExec,
        /// Group completion.
        GroupFin,
        /// Proxy→proxy barrier counter write.
        BarrierCntr,
        /// Data-write arrival marker.
        GroupArrival,
        /// One-sided put.
        Put,
        /// One-sided get.
        Get,
        /// Symmetric-heap handshake.
        ShmemHello,
        /// Rank shutdown notice.
        Shutdown,
        /// Reliability envelope.
        Seq,
        /// Reliability acknowledgement.
        Ack,
        /// Retransmission timer tick.
        RetxTick,
        /// Proxy restart notice.
        ProxyRestarted,
        /// Admission-control nack: the proxy's bounded queues were full.
        QueueFull,
        /// Host-initiated cancellation of an in-flight request.
        Cancel,
        /// Data-path retransmission budget exhausted for a transfer.
        DataError,
        /// Undecodable or foreign message.
        Unknown,
    }
}

impl HealthPath {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            HealthPath::CrossGvmi => "cross_gvmi",
            HealthPath::Staging => "staging",
            HealthPath::Ctrl => "ctrl",
        }
    }
}

/// Declares [`ProtoEvent`] and derives its flight-dump codec from the
/// declaration: a record renders as `ev=<Variant> <field>=<value>…` in
/// declaration order, each value through its type's [`FlightField`].
macro_rules! proto_events {
    ($(
        $(#[$vmeta:meta])*
        $Variant:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    ),* $(,)?) => {
        /// One structured protocol event. Emitted by the host engine, the DPU
        /// proxy, and the SHMEM facade at every protocol transition.
        #[derive(Clone, Copy, Debug)]
        pub enum ProtoEvent {
            $(
                $(#[$vmeta])*
                $Variant {
                    $( $(#[$fmeta])* $field: $ty ),*
                }
            ),*
        }

        impl ProtoEvent {
            /// Append this event's flight-dump text to `out`.
            pub(crate) fn put_flight(&self, out: &mut String) {
                match *self {
                    $(ProtoEvent::$Variant { $($field),* } => {
                        out.push_str(concat!("ev=", stringify!($Variant)));
                        $(
                            out.push_str(concat!(" ", stringify!($field), "="));
                            $field.put(out);
                        )*
                    })*
                }
            }

            /// Decode the event of one dump line, consuming `ev` and the
            /// fields of the variant it names.
            pub(crate) fn get_flight(f: &mut Fields<'_>) -> Result<ProtoEvent, String> {
                match f.raw("ev")? {
                    $(stringify!($Variant) => Ok(ProtoEvent::$Variant {
                        $($field: f.take(stringify!($field))?),*
                    }),)*
                    other => Err(f.err(format_args!("unknown event {other:?}"))),
                }
            }

            /// At least one instance of every variant, the fields cycling
            /// through their types' edge values (`0`, `MAX`, `None`, every
            /// variant of every small enum) — the input of the golden
            /// flight dump and of every test that must cover all variants.
            pub fn samples() -> Vec<ProtoEvent> {
                fn pick<T: FlightField>(row: usize) -> T {
                    T::SAMPLES[row % T::SAMPLES.len()]
                }
                let mut out = Vec::new();
                $(
                    let rows = [$(<$ty>::SAMPLES.len()),*].into_iter().max().unwrap_or(0);
                    out.extend((0..rows).map(|row| ProtoEvent::$Variant {
                        $($field: pick::<$ty>(row)),*
                    }));
                )*
                out
            }
        }
    };
}

proto_events! {
    /// A host posted a basic-primitive request (`Send_offload`,
    /// `Recv_offload`, or a one-sided put/get). Opens the causal timeline
    /// for `msg_id`.
    HostReqPosted {
        /// Posting rank.
        rank: usize,
        /// Stable per-transfer id: `(rank << 32) | seq`, unique per run.
        msg_id: u64,
        /// Peer rank of the transfer.
        peer: usize,
        /// Message tag (0 for one-sided operations).
        tag: u64,
        /// Payload bytes requested.
        bytes: u64,
        /// Direction of the request from the poster's point of view.
        dir: ReqDir,
    },
    /// The host observed the FIN for one of its basic requests; the
    /// causal timeline for `msg_id` closes here and the matching `Wait`
    /// is now satisfiable.
    HostReqDone {
        /// Rank whose request finished.
        rank: usize,
        /// Stable per-transfer id assigned at post time.
        msg_id: u64,
        /// True when other offloaded requests were still outstanding on
        /// this rank when the FIN landed — the host-resident segment the
        /// basic path pays and warm group windows avoid.
        more_outstanding: bool,
    },
    /// A proxy accepted an RTS control message (or synthesized one for a
    /// pre-matched one-sided put).
    RtsAtProxy {
        /// Sending rank.
        src_rank: usize,
        /// Receiving rank.
        dst_rank: usize,
        /// Message tag.
        tag: u64,
        /// Sender-side transfer id carried by the RTS.
        msg_id: u64,
    },
    /// A proxy accepted an RTR control message (or synthesized one for a
    /// pre-matched one-sided put).
    RtrAtProxy {
        /// Sending rank.
        src_rank: usize,
        /// Receiving rank.
        dst_rank: usize,
        /// Message tag.
        tag: u64,
        /// Receiver-side transfer id carried by the RTR.
        msg_id: u64,
    },
    /// A proxy matched an RTS with an RTR and is about to move data.
    PairMatched {
        /// Sending rank.
        src_rank: usize,
        /// Receiving rank.
        dst_rank: usize,
        /// Message tag.
        tag: u64,
        /// Transfer id of the matched send side.
        send_msg_id: u64,
        /// Transfer id of the matched receive side.
        recv_msg_id: u64,
    },
    /// A proxy posted an RDMA write (or read) carrying payload; `wrid` is
    /// the work-request id the completion will carry.
    WritePosted {
        /// Work-request id of the posted operation.
        wrid: u64,
        /// Payload bytes the work request moves.
        bytes: u64,
        /// Which transfer leg the work request implements.
        path: PathKind,
        /// Send-side transfer id whose payload this work request moves
        /// (both staging hops carry the same id).
        msg_id: u64,
    },
    /// The completion for `wrid` arrived at the posting proxy.
    WriteCompleted {
        /// Work-request id of the completed operation.
        wrid: u64,
    },
    /// A proxy sent a FIN control message for a completed transfer.
    FinSent {
        /// Rank the FIN is addressed to.
        rank: usize,
        /// Host-side request index being finished.
        req: usize,
        /// Work-request id whose completion triggered this FIN. Group
        /// FINs aggregate many writes and instead carry a fresh id from
        /// the proxy's work-request namespace, so every FIN is uniquely
        /// attributable (never 0).
        wrid: u64,
        /// Which FIN variant was sent.
        kind: FinKind,
        /// Transfer id the FIN finishes (the send-side id for
        /// `FinKind::Send`, the receive-side id for `FinKind::Recv`, 0
        /// for group FINs, which finish a generation, not a message).
        msg_id: u64,
    },
    /// A proxy cross-registered host memory, producing `mkey2` from the
    /// host's `mkey`.
    CrossReg {
        /// Rank owning the memory.
        host_rank: usize,
        /// Base address of the region.
        addr: VAddr,
        /// Region length in bytes.
        len: u64,
        /// The host's GVMI mkey.
        mkey: MrKey,
        /// The proxy-side cross-registration key.
        mkey2: MrKey,
    },
    /// A proxy looked up its cross-registration cache.
    CrossRegCacheLookup {
        /// Rank owning the memory.
        host_rank: usize,
        /// Base address of the region.
        addr: VAddr,
        /// Region length in bytes.
        len: u64,
        /// Hit, miss, or stale-evicted.
        outcome: CacheOutcome,
        /// On a hit: the cached host mkey.
        mkey: Option<MrKey>,
        /// On a hit: the cached cross-registration key.
        mkey2: Option<MrKey>,
    },
    /// A proxy used `mkey2` as the local key of a data transfer.
    Mkey2Used {
        /// The cross-registration key driving the transfer.
        mkey2: MrKey,
    },
    /// A host shipped its receive metadata for a group request to the
    /// sending host (at most once per `(from, to, req_id)` triple).
    RecvMetaSent {
        /// Rank sending the metadata (the receiver of the data).
        from_rank: usize,
        /// Rank the metadata is addressed to (the sender of the data).
        to_rank: usize,
        /// Group request id on the receiving side.
        req_id: usize,
    },
    /// A host shipped a full group metadata packet to its proxy. With the
    /// group cache enabled this happens at most once per group request.
    GroupPacketSent {
        /// Rank shipping the packet.
        host_rank: usize,
        /// Group request id on that rank.
        req_id: usize,
    },
    /// A proxy wrote a barrier counter into a peer proxy's instance.
    BarrierCntr {
        /// Rank whose instance produced the counter.
        src_rank: usize,
        /// `host_rank` of the destination instance key.
        dst_host_rank: usize,
        /// `req_id` of the destination instance key.
        dst_req_id: usize,
        /// Generation of the destination instance.
        gen: u64,
        /// Counter value written (must increase monotonically per edge).
        value: u64,
    },
    /// A host looked up one of its registration caches.
    HostCacheLookup {
        /// Rank owning the cache.
        rank: usize,
        /// Which host cache was consulted.
        cache: HostCacheKind,
        /// Hit or miss (host caches validate by key, never go stale).
        outcome: CacheOutcome,
    },
    /// A registration cache evicted an entry to make room.
    CacheEvicted {
        /// Rank owning the cache (host rank, also for the DPU-side
        /// cross-cache, whose entries are keyed by host rank).
        rank: usize,
        /// Which cache evicted.
        side: CacheSide,
    },
    /// A control message was dropped: either a malformed/foreign body the
    /// decoder refused, or a loss injected by the run's `FaultPlan`.
    CtrlDropped {
        /// True when dropped on the proxy side, false on the host side.
        at_proxy: bool,
        /// Kind of the dropped message (`Unknown` for undecodable ones).
        kind: CtrlKind,
        /// Transfer id the message was about (0 when it carried none).
        msg_id: u64,
    },
    /// The reliability layer retransmitted an unacked ctrl message after
    /// its backoff timer fired.
    CtrlRetransmit {
        /// True when the retransmitting side is a proxy.
        at_proxy: bool,
        /// Kind of the retransmitted message.
        kind: CtrlKind,
        /// Transfer id the message was about (0 when it carried none).
        msg_id: u64,
        /// Retransmission attempt number (1 = first retransmit).
        attempt: u32,
    },
    /// Receiver-side dedup discarded a duplicate ctrl message (an
    /// injected duplicate or a retransmit whose original arrived).
    CtrlDuplicateDropped {
        /// True when the deduplicating side is a proxy.
        at_proxy: bool,
        /// Kind of the duplicate message.
        kind: CtrlKind,
        /// Transfer id the message was about (0 when it carried none).
        msg_id: u64,
    },
    /// The reliability layer gave up on a ctrl message after exhausting
    /// its retransmission budget.
    CtrlAbandoned {
        /// True when the abandoning side is a proxy.
        at_proxy: bool,
        /// Kind of the abandoned message.
        kind: CtrlKind,
        /// Transfer id the message was about (0 when it carried none).
        msg_id: u64,
    },
    /// Cross-GVMI registration failed for one transfer; the proxy fell
    /// back to the staging data path for it (graceful degradation).
    FallbackToStaging {
        /// Sending rank of the affected transfer.
        src_rank: usize,
        /// Receiving rank of the affected transfer.
        dst_rank: usize,
        /// Message tag of the affected transfer.
        tag: u64,
        /// Send-side transfer id of the affected transfer.
        msg_id: u64,
    },
    /// A proxy crashed and restarted with a fresh state and a bumped
    /// epoch; hosts react by invalidating caches and replaying.
    ProxyRestarted {
        /// The proxy's post-restart epoch (monotonically increasing).
        epoch: u64,
    },
    /// A host replayed an in-flight request to a restarted proxy.
    ReqReplayed {
        /// Replaying rank.
        rank: usize,
        /// Transfer id of the replayed request (0 for group replays).
        msg_id: u64,
    },
    /// A host request failed permanently: its ctrl message exhausted the
    /// retransmission budget and a typed `OffloadError` was surfaced.
    ReqFailed {
        /// Rank whose request failed.
        rank: usize,
        /// Transfer id of the failed request.
        msg_id: u64,
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// A completion arrived for a work request the proxy no longer
    /// tracks (it was in flight across a crash); the data landed, the
    /// completion is ignored.
    StaleCqe {
        /// Work-request id of the orphaned completion.
        wrid: u64,
    },
    /// The host CPU woke up to process a control message from the
    /// offload plane.
    HostWakeup {
        /// The rank that woke.
        rank: usize,
        /// True when, after applying the message, offloaded work is
        /// still outstanding on this rank — i.e. the host had to
        /// intervene mid-operation rather than merely observe a
        /// terminal completion.
        intervention: bool,
    },
    /// `Group_Offload_call` returned control to the application; the
    /// overlap window for this generation opens here.
    GroupCallReturned {
        /// Calling rank.
        host_rank: usize,
        /// Group request id on that rank.
        req_id: usize,
        /// Generation just launched (1-based).
        gen: u64,
    },
    /// `Group_Wait` observed the generation's completion; the overlap
    /// window closes here.
    GroupWaitDone {
        /// Waiting rank.
        host_rank: usize,
        /// Group request id on that rank.
        req_id: usize,
        /// Generation waited for.
        gen: u64,
    },
    /// A host re-armed an already-installed group with a `GroupExec`
    /// doorbell (the cached warm path, no metadata resend).
    GroupExecSent {
        /// Calling rank.
        host_rank: usize,
        /// Group request id on that rank.
        req_id: usize,
        /// Generation being launched.
        gen: u64,
    },
    /// A proxy's group instance blocked at a barrier entry it could not
    /// yet cross (emitted once per barrier crossing, on first block).
    BarrierStall {
        /// Rank owning the stalled instance.
        host_rank: usize,
        /// Group request id of the stalled instance.
        req_id: usize,
        /// Generation of the stalled instance.
        gen: u64,
    },
    /// A proxy enqueued a posted descriptor; carries the queue depths
    /// right after the enqueue so observers can track high-water marks.
    ProxyQueueDepth {
        /// Entries across the proxy's pending-send queues.
        send_depth: usize,
        /// Entries across the proxy's pending-receive queues.
        recv_depth: usize,
    },
    /// A host rank completed `Finalize_Offload`; its counters are final.
    HostFinalized {
        /// The finalizing rank.
        rank: usize,
    },
    /// End-to-end CRC verification failed for a transfer at FIN time on
    /// the posting proxy; a bounded data-path retransmission follows.
    PayloadCorrupt {
        /// Send-side transfer id whose payload failed verification.
        msg_id: u64,
        /// Data-path delivery attempt that failed (1 = first write).
        attempt: u32,
    },
    /// A previously corrupt transfer verified clean after one or more
    /// data-path retransmissions; the FIN was released.
    PayloadRecovered {
        /// Send-side transfer id that recovered.
        msg_id: u64,
        /// Total data-path delivery attempts including the clean one.
        attempts: u32,
    },
    /// The data-path retransmission budget was exhausted without a clean
    /// CRC; a typed `DataIntegrity` error was surfaced to the host.
    DataIntegrityFailed {
        /// Send-side transfer id that failed permanently.
        msg_id: u64,
        /// Data-path delivery attempts made before giving up.
        attempts: u32,
    },
    /// A proxy refused to admit a descriptor because its bounded queues
    /// were at capacity; a `QueueFull` nack went back to the poster.
    QueueFullNack {
        /// Transfer id of the refused descriptor.
        msg_id: u64,
    },
    /// The host deferred posting a request because its per-proxy credit
    /// window was exhausted; the request waits in the host's overflow
    /// queue until a FIN returns credit.
    CreditDeferred {
        /// Deferring rank.
        rank: usize,
        /// Transfer id of the deferred request.
        msg_id: u64,
    },
    /// The host shed a post at admission because the posting rank's
    /// tenant is over its hard quota (multi-tenant runs only). A typed
    /// `QuotaExceeded` error surfaces on the request; a `ReqFailed`
    /// event follows for the same transfer id.
    QuotaShed {
        /// Tenant whose hard quota was hit.
        tenant: usize,
        /// Shedding rank.
        rank: usize,
        /// Transfer id of the shed request.
        msg_id: u64,
    },
    /// The host admitted a previously deferred post from its credit FIFO
    /// (multi-tenant runs only; a single-tenant flush emits nothing).
    DrrGrant {
        /// Tenant whose deferred queue was served.
        tenant: usize,
        /// Rank whose post was admitted.
        rank: usize,
        /// Transfer id of the admitted request.
        msg_id: u64,
    },
    /// The proxy reused an idle staging buffer from its bounded free
    /// pool instead of allocating fresh staging memory.
    StagingReclaimed {
        /// Byte length of the reclaimed buffer.
        len: u64,
    },
    /// A host cancelled an in-flight request (deadline expiry or explicit
    /// cancel); the matching `Wait` surfaces a typed error and any late
    /// FIN for this id is ignored.
    ReqCancelled {
        /// Cancelling rank.
        rank: usize,
        /// Transfer id of the cancelled request.
        msg_id: u64,
    },
    /// A proxy reaped the queued descriptor of a cancelled request
    /// before it matched; no data will move for this id.
    ReqReaped {
        /// Transfer id of the reaped descriptor.
        msg_id: u64,
    },
    /// A group generation failed permanently: a group ctrl message
    /// exhausted its retransmission budget (or its data path failed) and
    /// `Group_Wait` surfaces a typed error instead of stalling.
    GroupFailed {
        /// Rank whose group failed.
        host_rank: usize,
        /// Group request id on that rank.
        req_id: usize,
        /// Generation that failed.
        gen: u64,
    },
    /// The proxy truncated its durable FIN journal after every host
    /// acknowledged past the truncation horizon.
    JournalTruncated {
        /// Entries dropped by this truncation.
        dropped: u64,
    },
    /// Periodic journal-size sample, emitted only when a journal cap is
    /// configured (observability for the bounded-journal regression test).
    JournalSize {
        /// Journal entries currently retained.
        len: u64,
    },
    /// A health-engine breaker tripped open: the sliding failure window
    /// for `(peer, path)` crossed the trip threshold (or a half-open
    /// probe failed). Posts toward this peer now reroute without
    /// touching the path (health-armed runs only, DESIGN.md §19).
    BreakerTripped {
        /// Peer rank the breaker guards.
        peer: usize,
        /// Path class that tripped.
        path: HealthPath,
    },
    /// An open breaker's cooldown expired: it moved to half-open and
    /// admitted its single probe (a `BreakerProbe` event follows).
    BreakerHalfOpen {
        /// Peer rank the breaker guards.
        peer: usize,
        /// Path class probing.
        path: HealthPath,
    },
    /// A half-open probe succeeded: the breaker closed and steady-state
    /// routing returns to the primary path. The probe's registration
    /// result was installed in the reg-cache, so warm state is rebuilt.
    BreakerClosed {
        /// Peer rank the breaker guards.
        peer: usize,
        /// Path class that recovered.
        path: HealthPath,
    },
    /// The single post a half-open breaker admitted onto the primary
    /// path; its outcome closes or re-opens the breaker.
    BreakerProbe {
        /// Peer rank being probed.
        peer: usize,
        /// Path class being probed.
        path: HealthPath,
        /// Transfer id of the probing post.
        msg_id: u64,
    },
    /// A post was routed around an open breaker without consulting the
    /// sick path — no registration attempt, no per-message
    /// `FallbackToStaging` round-trip. Cross-GVMI fast-paths go to
    /// staging; staging fast-paths degrade to a host-direct write.
    BreakerFastPath {
        /// Peer rank whose breaker is open.
        peer: usize,
        /// Path class that was bypassed.
        path: HealthPath,
        /// Transfer id of the rerouted post.
        msg_id: u64,
    },
    /// A retry was shed because the peer's retry-budget token bucket is
    /// empty; a typed `RetryBudgetExhausted` error surfaces on the
    /// owning basic request and a `ReqFailed` event follows for the
    /// same transfer id. (Group-entry budget sheds fail the generation
    /// through `GroupFailed` and do not emit this event.)
    RetryBudgetExhausted {
        /// Rank whose request was shed.
        rank: usize,
        /// Transfer id of the shed request.
        msg_id: u64,
        /// Plane the exhausted budget governs (`Ctrl` for ctrl-plane
        /// retransmits, a data class for payload retransmits).
        path: HealthPath,
    },
}

/// The [`EventSink`] of an observer whose state is `state`: each slice
/// the engine delivers takes the lock once and folds its [`ProtoEvent`]s
/// into the state in emission order. Emissions of other types are
/// skipped, so observers of different event types can share one stream.
pub fn proto_sink<T: Send + 'static>(
    state: Arc<Mutex<T>>,
    fold: impl Fn(&mut T, SimTime, Pid, &ProtoEvent) + Send + Sync + 'static,
) -> EventSink {
    Arc::new(move |batch: &[Emitted<'_>]| {
        let mut st = state.lock();
        for e in batch {
            if let Some(ev) = e.event.downcast_ref::<ProtoEvent>() {
                fold(&mut st, e.at, e.pid, ev);
            }
        }
    })
}
