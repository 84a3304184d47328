//! Reliability layer for the host↔DPU ctrl plane (DESIGN.md §13).
//!
//! When a run's [`FaultPlan`] injects losses, every ctrl message travels
//! inside a sequence-numbered [`CtrlMsg::Seq`] envelope. The sender keeps
//! the message in a pending table and arms a virtual-time retransmission
//! timer (a [`CtrlMsg::RetxTick`] self-delivery) with exponential
//! backoff; the receiver acks every envelope and deduplicates on
//! `(sender, epoch, seq)` so retransmits and injected duplicates are
//! idempotent. A sender that exhausts its retransmission budget abandons
//! the message and surfaces a typed [`OffloadError`] on the associated
//! request instead of hanging.
//!
//! The layer is *disarmed* on a clean plan ([`FaultPlan::reliable`] is
//! false): senders bypass the envelope entirely, so fault-free runs are
//! byte-identical to the pre-reliability protocol and committed bench
//! baselines do not move.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rdma::{EpId, Fabric, NetMsg, Packet};
use simnet::{Pid, ProcessCtx, SimDelta, StatKey};

use crate::config::{FaultPlan, OffloadConfig};
use crate::events::{CtrlKind, ProtoEvent};
use crate::health::TokenBucket;
use crate::messages::CtrlMsg;

/// Retransmission backoff floor; also paces data-path and backpressure
/// retries.
pub const RETX_BASE: SimDelta = SimDelta::from_us(20);
/// Retransmission backoff ceiling.
pub const RETX_CAP: SimDelta = SimDelta::from_us(200);
/// Send attempts (original + retransmits) before a ctrl message is
/// abandoned. At a 10% injected drop rate the chance of losing all
/// attempts is 1e-12 — abandonment in practice means the peer is gone,
/// not the link lossy.
pub const CTRL_MAX_ATTEMPTS: u32 = 12;

/// Typed failure surfaced by the offload engine when a posted request
/// cannot complete (instead of hanging forever).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OffloadError {
    /// A ctrl message for this request exhausted its retransmission
    /// budget; the peer is unreachable.
    CtrlUndeliverable {
        /// Transfer id of the failed request.
        msg_id: u64,
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// End-to-end CRC verification kept failing: the proxy exhausted its
    /// bounded data-path retransmission budget for this transfer.
    DataIntegrity {
        /// Transfer id of the failed request.
        msg_id: u64,
        /// Data-path delivery attempts made before giving up.
        attempts: u32,
    },
    /// The request's deadline expired before its FIN arrived; it was
    /// cancelled and the proxy told to reap it.
    DeadlineExceeded {
        /// Transfer id of the timed-out request.
        msg_id: u64,
    },
    /// The application cancelled the request before it completed.
    Cancelled {
        /// Transfer id of the cancelled request.
        msg_id: u64,
    },
    /// A group generation failed permanently: a group ctrl message was
    /// abandoned, or a group entry's data path failed integrity checks.
    GroupFailed {
        /// Group request id on the failing rank.
        req_id: usize,
        /// Generation that failed.
        gen: u64,
    },
    /// The post was shed at admission: the rank's tenant is over its
    /// hard quota (DESIGN.md §18). Unlike the deferral path this is an
    /// immediate, typed refusal — the application may retry once its
    /// earlier posts settle.
    QuotaExceeded {
        /// Tenant whose hard quota was hit.
        tenant: usize,
        /// Transfer id of the shed request.
        msg_id: u64,
    },
    /// The retry was shed by the health engine (DESIGN.md §19): the
    /// peer's retry-budget token bucket ran dry before the bounded
    /// attempt counter did, so the request fails fast instead of
    /// feeding a correlated retransmission storm.
    RetryBudgetExhausted {
        /// Transfer id of the shed request.
        msg_id: u64,
        /// Delivery attempts made before the budget ran out.
        attempts: u32,
    },
}

impl fmt::Debug for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::CtrlUndeliverable { msg_id, attempts } => write!(
                f,
                "ctrl message for transfer {msg_id:#x} undeliverable after {attempts} attempts"
            ),
            OffloadError::DataIntegrity { msg_id, attempts } => write!(
                f,
                "payload of transfer {msg_id:#x} failed CRC verification after {attempts} delivery attempts"
            ),
            OffloadError::DeadlineExceeded { msg_id } => {
                write!(f, "transfer {msg_id:#x} missed its deadline and was cancelled")
            }
            OffloadError::Cancelled { msg_id } => {
                write!(f, "transfer {msg_id:#x} was cancelled by the application")
            }
            OffloadError::GroupFailed { req_id, gen } => {
                write!(f, "group request {req_id} generation {gen} failed permanently")
            }
            OffloadError::QuotaExceeded { tenant, msg_id } => write!(
                f,
                "transfer {msg_id:#x} shed at admission: tenant {tenant} is over its hard quota"
            ),
            OffloadError::RetryBudgetExhausted { msg_id, attempts } => write!(
                f,
                "transfer {msg_id:#x} shed: peer retry budget exhausted after {attempts} attempts"
            ),
        }
    }
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for OffloadError {}

/// Deterministic fault RNG (splitmix64), deliberately separate from the
/// simulator's schedule RNG so fault decisions never perturb schedules
/// and the explorer can sweep fault seeds independently.
pub(crate) struct FaultRng(u64);

impl FaultRng {
    pub(crate) fn new(seed: u64, salt: u64) -> FaultRng {
        FaultRng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Raw 64-bit draw (the health engine jitters probe cooldowns with
    /// it so breaker episodes de-synchronize across peers).
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.next()
    }

    /// Roll a permille chance. Zero never fires (and does not consume
    /// randomness, keeping unrelated rolls aligned across plans).
    pub(crate) fn chance(&mut self, pm: u16) -> bool {
        pm > 0 && self.next() % 1000 < u64::from(pm)
    }
}

/// Receiver-side duplicate suppression, keyed `(sender, epoch, seq)`.
/// A restarted sender bumps its epoch, so its fresh seq space never
/// collides with pre-crash history.
#[derive(Default)]
pub(crate) struct DedupWindow {
    seen: BTreeMap<(Pid, u64), BTreeSet<u64>>,
}

impl DedupWindow {
    /// Record `(from, epoch, seq)`; true when seen for the first time.
    pub(crate) fn accept(&mut self, from: Pid, epoch: u64, seq: u64) -> bool {
        self.seen.entry((from, epoch)).or_default().insert(seq)
    }

    /// Forget everything (a crashed receiver loses its window; senders'
    /// epoch bumps and the engine-level journals keep replays safe).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }
}

/// What an abandoned ctrl message was working for, so the owner can
/// surface a typed failure on the right request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReqOrigin {
    /// Not tied to any host request slot (e.g. FINs, shutdown notices).
    Free,
    /// Basic-path request slot index on the sending host.
    Basic(usize),
    /// Group request id on the sending host; abandonment fails the
    /// in-flight generation.
    Group(usize),
}

/// One unacked ctrl message at the sender.
struct Pending {
    to: EpId,
    msg: CtrlMsg,
    /// Modelled wire size (metadata-bearing messages exceed `OffloadConfig::CTRL_BYTES`).
    bytes: u64,
    /// Transmissions so far; the next timer waits `backoff_delay` of it.
    attempts: u32,
    /// What to fail if the message is abandoned.
    origin: ReqOrigin,
}

/// What [`ReliableLink::receive`] leaves for the protocol to act on.
pub(crate) enum Inbound {
    /// A message: unwrapped from its envelope, or sent bare.
    Msg(CtrlMsg),
    /// A retransmission timer fired.
    Tick(TickOutcome),
    /// An ack or a duplicate delivery: nothing.
    Absorbed,
}

/// What a retransmission-timer tick did.
pub(crate) enum TickOutcome {
    /// The message was already acked (or this side restarted); no-op.
    Idle,
    /// The message was retransmitted and a new timer armed.
    Retransmitted,
    /// The retransmission budget is exhausted; the message is dropped
    /// from the pending table and the caller must surface the failure.
    Abandoned {
        msg_id: u64,
        attempts: u32,
        origin: ReqOrigin,
    },
    /// The peer's retry-budget token bucket ran dry before the attempt
    /// counter did: the message is dropped from the pending table and
    /// the caller must shed-and-surface a typed
    /// [`OffloadError::RetryBudgetExhausted`].
    BudgetShed {
        msg_id: u64,
        attempts: u32,
        origin: ReqOrigin,
    },
}

/// Exponential ctrl-plane backoff for delivery attempt `attempt`
/// (1-based): [`RETX_BASE`] `* 2^(attempt-1)` capped at [`RETX_CAP`].
/// Shared with the data-path retransmission and backpressure-retry
/// timers so every retry loop in the engine paces identically.
pub(crate) fn backoff_delay(attempt: u32) -> SimDelta {
    let mut d = RETX_BASE;
    for _ in 1..attempt {
        d = (d * 2).min(RETX_CAP);
    }
    d
}

/// Per-process endpoint of the reliable ctrl plane: the sender half
/// (pending table + retransmission timers) and the receiver half
/// (ack generation + dedup window) in one.
pub(crate) struct ReliableLink {
    plan: FaultPlan,
    /// Per-peer retry budget `(capacity, refill per ack)`; `None` keeps
    /// the unbounded, [`CTRL_MAX_ATTEMPTS`]-only behavior.
    budget: Option<(u32, u32)>,
    rng: FaultRng,
    /// True on proxies (event attribution).
    at_proxy: bool,
    /// Endpoint the envelopes (and acks) are sent from.
    from_ep: EpId,
    /// Restart epoch carried in outgoing envelopes.
    epoch: u64,
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    dedup: DedupWindow,
    /// Per-destination retry budgets (keyed by endpoint index), created
    /// lazily at full capacity. Empty when `budget` is `None`.
    buckets: BTreeMap<u64, TokenBucket>,
}

impl ReliableLink {
    pub(crate) fn new(
        plan: FaultPlan,
        budget: Option<(u32, u32)>,
        at_proxy: bool,
        from_ep: EpId,
    ) -> Self {
        ReliableLink {
            plan,
            budget,
            rng: FaultRng::new(plan.seed, from_ep.index() as u64 + 1),
            at_proxy,
            from_ep,
            epoch: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            dedup: DedupWindow::default(),
            buckets: BTreeMap::new(),
        }
    }

    /// Current restart epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether any sent message is still unacked.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The one way host and proxy send a ctrl message. On a plan that
    /// arms reliability: envelope, pending entry, retransmission timer,
    /// with `origin` naming what to fail on abandonment. Otherwise a
    /// bare packet, so clean runs stay byte-identical to the protocol
    /// without the link.
    pub(crate) fn send(
        &mut self,
        ctx: &ProcessCtx,
        fab: &Fabric,
        to: EpId,
        bytes: u64,
        msg: CtrlMsg,
        origin: ReqOrigin,
    ) {
        if !self.plan.reliable() {
            fab.send_packet(ctx, self.from_ep, to, bytes, Box::new(msg))
                .expect("ctrl send");
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            seq,
            Pending {
                to,
                msg,
                bytes,
                attempts: 1,
                origin,
            },
        );
        self.transmit(ctx, fab, seq);
    }

    /// Put one attempt of pending message `seq` on the wire, applying the
    /// plan's drop/delay/duplicate faults, and arm the retransmission
    /// timer at the backoff of its attempt count.
    fn transmit(&mut self, ctx: &ProcessCtx, fab: &Fabric, seq: u64) {
        let p = &self.pending[&seq];
        let (to, kind, msg_id) = (p.to, p.msg.kind(), p.msg.msg_id_hint());
        let backoff = backoff_delay(p.attempts);
        let bytes = p.bytes;
        let (msg, from, from_ep, epoch) = (p.msg.clone(), ctx.pid(), self.from_ep, self.epoch);
        let envelope = move || CtrlMsg::Seq {
            seq,
            from,
            from_ep,
            epoch,
            inner: Box::new(msg.clone()),
        };
        // Targeted fault: unconditionally eat group launch messages so
        // abandonment of a group ctrl message is deterministic (the
        // group-abandonment satellite test relies on this; permille
        // drops cannot guarantee losing all 12 attempts).
        let group_eaten = self.plan.drop_group_packets
            && matches!(kind, CtrlKind::GroupPacket | CtrlKind::GroupExec);
        if group_eaten || self.rng.chance(self.plan.drop_pm) {
            static INJECTED_DROPS: StatKey = StatKey::new("offload.reliable.injected_drops");
            ctx.stat_incr(&INJECTED_DROPS, 1);
            ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: self.at_proxy,
                kind,
                msg_id,
            });
        } else if self.rng.chance(self.plan.delay_pm) {
            // Late delivery: bypass the fabric's send path and deposit
            // the packet into the destination mailbox after `delay_ns`.
            static INJECTED_DELAYS: StatKey = StatKey::new("offload.reliable.injected_delays");
            ctx.stat_incr(&INJECTED_DELAYS, 1);
            ctx.deliver(
                fab.pid_of(to),
                SimDelta::from_ns(self.plan.delay_ns),
                Box::new(NetMsg::Packet(Packet {
                    src: self.from_ep,
                    bytes,
                    body: Box::new(envelope()),
                })),
            );
        } else {
            fab.send_packet(ctx, self.from_ep, to, bytes, Box::new(envelope()))
                .expect("reliable ctrl send");
            if self.rng.chance(self.plan.dup_pm) {
                static INJECTED_DUPS: StatKey = StatKey::new("offload.reliable.injected_dups");
                ctx.stat_incr(&INJECTED_DUPS, 1);
                fab.send_packet(ctx, self.from_ep, to, bytes, Box::new(envelope()))
                    .expect("reliable ctrl dup send");
            }
        }
        ctx.deliver_self(
            backoff,
            Box::new(NetMsg::Notify(Box::new(CtrlMsg::RetxTick { seq }))),
        );
    }

    /// The one way host and proxy take in a ctrl message. An envelope
    /// is acked (acks share the lossy plane: a lost ack is healed by
    /// retransmit, dedup and re-ack) and unwrapped, or absorbed as a
    /// duplicate. An ack retires its pending entry (idempotent) and
    /// refills the destination's retry budget: a responsive peer earns
    /// its tokens back, so budgets only bite during sustained
    /// brownouts. A retransmission timer is serviced. Anything else
    /// passes through.
    pub(crate) fn receive(&mut self, ctx: &ProcessCtx, fab: &Fabric, msg: CtrlMsg) -> Inbound {
        let (seq, from, from_ep, epoch, inner) = match msg {
            CtrlMsg::Seq {
                seq,
                from,
                from_ep,
                epoch,
                inner,
            } => (seq, from, from_ep, epoch, *inner),
            CtrlMsg::Ack { seq } => {
                if let Some(p) = self.pending.remove(&seq) {
                    if let Some(bucket) = self.buckets.get_mut(&(p.to.index() as u64)) {
                        bucket.credit();
                    }
                }
                return Inbound::Absorbed;
            }
            CtrlMsg::RetxTick { seq } => return Inbound::Tick(self.on_tick(ctx, fab, seq)),
            other => return Inbound::Msg(other),
        };
        if self.rng.chance(self.plan.drop_pm) {
            static INJECTED_DROPS: StatKey = StatKey::new("offload.reliable.injected_drops");
            ctx.stat_incr(&INJECTED_DROPS, 1);
            ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: self.at_proxy,
                kind: CtrlKind::Ack,
                msg_id: 0,
            });
        } else {
            fab.send_packet(
                ctx,
                self.from_ep,
                from_ep,
                OffloadConfig::CTRL_BYTES,
                Box::new(CtrlMsg::Ack { seq }),
            )
            .expect("reliable ctrl ack");
        }
        if self.dedup.accept(from, epoch, seq) {
            return Inbound::Msg(inner);
        }
        static DUPS_DROPPED: StatKey = StatKey::new("offload.reliable.dups_dropped");
        ctx.stat_incr(&DUPS_DROPPED, 1);
        ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
            at_proxy: self.at_proxy,
            kind: inner.kind(),
            msg_id: inner.msg_id_hint(),
        });
        Inbound::Absorbed
    }

    /// A retransmission timer fired.
    fn on_tick(&mut self, ctx: &ProcessCtx, fab: &Fabric, seq: u64) -> TickOutcome {
        let Some(p) = self.pending.get_mut(&seq) else {
            return TickOutcome::Idle;
        };
        if p.attempts >= CTRL_MAX_ATTEMPTS {
            let p = self.pending.remove(&seq).expect("entry just found");
            let (kind, msg_id) = (p.msg.kind(), p.msg.msg_id_hint());
            static ABANDONED: StatKey = StatKey::new("offload.reliable.abandoned");
            ctx.stat_incr(&ABANDONED, 1);
            ctx.emit(&ProtoEvent::CtrlAbandoned {
                at_proxy: self.at_proxy,
                kind,
                msg_id,
            });
            return TickOutcome::Abandoned {
                msg_id,
                attempts: p.attempts,
                origin: p.origin,
            };
        }
        // Health-armed links pay one budget token per retransmit toward
        // a peer; an empty bucket sheds the message instead of feeding
        // a correlated storm (DESIGN.md §19). Acks refill the bucket.
        if let Some((cap, refill)) = self.budget {
            let to = p.to.index() as u64;
            let bucket = self
                .buckets
                .entry(to)
                .or_insert_with(|| TokenBucket::new(cap, refill));
            if !bucket.try_spend() {
                let shed = self.pending.remove(&seq).expect("entry just found");
                static BUDGET_SHEDS: StatKey = StatKey::new("offload.reliable.budget_sheds");
                ctx.stat_incr(&BUDGET_SHEDS, 1);
                return TickOutcome::BudgetShed {
                    msg_id: shed.msg.msg_id_hint(),
                    attempts: shed.attempts,
                    origin: shed.origin,
                };
            }
        }
        let p = self.pending.get_mut(&seq).expect("entry just found");
        p.attempts += 1;
        let attempt = p.attempts - 1;
        let (kind, msg_id) = (p.msg.kind(), p.msg.msg_id_hint());
        static RETRANSMITS: StatKey = StatKey::new("offload.reliable.retransmits");
        ctx.stat_incr(&RETRANSMITS, 1);
        ctx.emit(&ProtoEvent::CtrlRetransmit {
            at_proxy: self.at_proxy,
            kind,
            msg_id,
            attempt,
        });
        self.transmit(ctx, fab, seq);
        TickOutcome::Retransmitted
    }

    /// Forget the retry-budget history for `to` (refilled lazily at full
    /// capacity on next use). Called when that peer restarts: the fresh
    /// process deserves a fresh budget.
    pub(crate) fn reset_budget_for(&mut self, to: EpId) {
        self.buckets.remove(&(to.index() as u64));
    }

    /// Crash recovery: forget all sender and receiver state and start a
    /// fresh epoch. Outgoing envelopes now carry the new epoch, so peers
    /// dedup this side's messages in a fresh space.
    pub(crate) fn reset_for_restart(&mut self) {
        self.epoch += 1;
        self.pending.clear();
        self.dedup.clear();
        self.buckets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rng_is_deterministic_and_respects_rates() {
        let mut a = FaultRng::new(7, 3);
        let mut b = FaultRng::new(7, 3);
        let rolls_a: Vec<bool> = (0..64).map(|_| a.chance(100)).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.chance(100)).collect();
        assert_eq!(rolls_a, rolls_b, "same seed+salt must agree");
        let mut c = FaultRng::new(7, 4);
        assert!((0..4096).any(|_| c.chance(500)), "50% must fire sometimes");
        let mut d = FaultRng::new(7, 5);
        assert!((0..4096).all(|_| !d.chance(0)), "0 permille never fires");
        let hits = {
            let mut e = FaultRng::new(42, 1);
            (0..10_000).filter(|_| e.chance(100)).count()
        };
        assert!(
            (600..1400).contains(&hits),
            "10% rate wildly off: {hits}/10000"
        );
    }

    #[test]
    fn dedup_accepts_once_per_epoch() {
        let mut w = DedupWindow::default();
        let p = Pid::from_index(3);
        assert!(w.accept(p, 0, 1));
        assert!(!w.accept(p, 0, 1), "duplicate must be rejected");
        assert!(w.accept(p, 1, 1), "a new epoch is a fresh seq space");
        assert!(w.accept(Pid::from_index(4), 0, 1), "senders independent");
        w.clear();
        assert!(w.accept(p, 0, 1), "cleared window forgets history");
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite: dedup yields exactly-once delivery under
            // arbitrary duplicate injection. Each (epoch, seq) pair may
            // appear any number of times in the arrival order; the window
            // must accept each distinct pair exactly once.
            #[test]
            fn dedup_is_exactly_once_under_arbitrary_duplication(
                arrivals in prop::collection::vec((0u64..3, 0u64..16), 1..200),
            ) {
                let mut w = DedupWindow::default();
                let sender = Pid::from_index(1);
                let mut delivered: Vec<(u64, u64)> = Vec::new();
                for &(epoch, seq) in &arrivals {
                    if w.accept(sender, epoch, seq) {
                        delivered.push((epoch, seq));
                    }
                }
                let mut distinct: Vec<(u64, u64)> = arrivals.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let mut got = delivered.clone();
                got.sort_unstable();
                prop_assert_eq!(
                    got, distinct,
                    "every distinct (epoch, seq) delivered exactly once"
                );
            }
        }
    }
}
