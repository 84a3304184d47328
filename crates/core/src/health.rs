//! Fabric health engine (DESIGN.md §19): per-(peer, path) circuit
//! breakers and per-peer retry budgets.
//!
//! PR 4/5 made individual faults survivable, but every fault is still
//! paid per message: a flaky cross-GVMI path eats the full
//! registration-fail → `FallbackToStaging` round-trip on *every* post,
//! and a browned-out peer can drive correlated retransmission storms
//! bounded only by `MAX_ATTEMPTS` per message. This module adds the
//! degradation layer between those mechanisms and an adaptive offload
//! policy (not built):
//!
//! * **Circuit breakers**, one per `(peer, path-class)`, fed by a
//!   bounded sliding window of per-path outcomes (cross-registration
//!   results, staged-hop completions, payload-CRC verdicts). A breaker
//!   trips `Closed → Open` when the window's failure rate crosses
//!   [`HealthConfig::TRIP_PERMILLE`]; while open, posts are routed
//!   around the sick path without probing it (cross-GVMI → staging,
//!   staging → host-direct). After [`HealthConfig::PROBE_COOLDOWN`]
//!   rerouted posts (plus seeded deterministic jitter) the breaker goes
//!   `Open → HalfOpen` and admits exactly one probe; the probe's result
//!   closes or re-opens it.
//! * **Retry budgets**: token buckets per peer, spanning the ctrl plane
//!   (`reliable.rs` spends one token per retransmission) and the data
//!   plane (`proxy.rs` spends one per payload retransmit). An empty
//!   bucket sheds the transfer with a typed
//!   [`crate::OffloadError::RetryBudgetExhausted`] instead of grinding
//!   through the full per-message attempt budget; successful deliveries
//!   refill the bucket, so an isolated fault never sheds.
//!
//! ## Determinism and gating
//!
//! The engine consumes no wall-clock time: the open-state cooldown is
//! counted in rerouted posts and its jitter comes from the same
//! splitmix64 [`FaultRng`] family as fault injection, salted per proxy,
//! so runs are byte-identical from run to run.
//! [`HealthConfig::default`] is *disabled*: every hook collapses to the
//! pre-health behavior, no event is emitted, and fault-free runs stay
//! counter-identical to the committed bench baselines (the same gating
//! discipline as tenants in DESIGN.md §18).

use std::collections::BTreeMap;

use crate::events::HealthPath;
use crate::reliable::FaultRng;

/// Health-engine switch ([`crate::OffloadConfig::health`]). The default
/// is **disabled** — breakers and budgets only arm when a run opts in
/// via [`HealthConfig::armed`]. Their tuning is the associated
/// constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HealthConfig {
    /// Master switch. Off by default: clean runs stay byte-identical to
    /// the pre-health protocol.
    pub enabled: bool,
}

impl HealthConfig {
    /// Sliding-window length (outcomes) per `(peer, path)` breaker.
    pub const WINDOW: usize = 16;
    /// Failure-rate trip threshold, in permille of the window.
    pub const TRIP_PERMILLE: u32 = 500;
    /// Minimum outcomes in the window before the breaker may trip (a
    /// single early failure must not open a breaker).
    pub const MIN_SAMPLES: usize = 4;
    /// Rerouted posts an open breaker absorbs before transitioning to
    /// half-open and admitting its single probe. Seeded jitter of up to
    /// a quarter of this value is added per episode.
    pub const PROBE_COOLDOWN: u32 = 8;
    /// Ctrl-plane retry-budget bucket capacity (tokens per peer; one
    /// token per retransmission).
    pub const CTRL_BUDGET: u32 = 6;
    /// Tokens returned to a peer's ctrl bucket per acknowledged
    /// delivery, capped at [`Self::CTRL_BUDGET`].
    pub const CTRL_REFILL: u32 = 2;
    /// Data-plane retry-budget bucket capacity (tokens per peer; one
    /// token per payload retransmit).
    pub const DATA_BUDGET: u32 = 4;
    /// Tokens returned to a peer's data bucket per recovered payload,
    /// capped at [`Self::DATA_BUDGET`].
    pub const DATA_REFILL: u32 = 2;

    /// The engine switched on.
    pub fn armed() -> HealthConfig {
        HealthConfig { enabled: true }
    }
}

/// Breaker state machine (DESIGN.md §19).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: posts take the primary path; outcomes feed the window.
    Closed,
    /// Tripped: posts are rerouted without touching the sick path.
    Open,
    /// Probing: exactly one in-flight probe decides open vs closed;
    /// everything else keeps the rerouted path.
    HalfOpen,
}

/// What the router decided for one post.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Breaker closed (or engine disabled): take the primary path.
    Primary,
    /// Breaker open: take the degraded path; the primary path is not
    /// consulted at all.
    FastPath,
    /// Breaker just went half-open and this post is the probe: take the
    /// primary path and report the result via
    /// [`HealthEngine::on_outcome`].
    Probe,
}

/// A state transition the caller must surface as a `ProtoEvent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerEvent {
    /// `Closed|HalfOpen → Open`.
    Tripped,
    /// `HalfOpen → Closed` (the probe succeeded).
    Closed,
}

/// One `(peer, path)` breaker: bounded outcome ring + state machine.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// Outcome ring (true = failure), bounded at [`HealthConfig::WINDOW`].
    ring: Vec<bool>,
    ring_at: usize,
    fails: usize,
    /// Rerouted posts remaining before an open breaker half-opens.
    cooldown: u32,
    /// A half-open probe is in flight (admit no second one).
    probe_inflight: bool,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            ring: Vec::new(),
            ring_at: 0,
            fails: 0,
            cooldown: 0,
            probe_inflight: false,
        }
    }

    fn push_outcome(&mut self, failed: bool) {
        let window = HealthConfig::WINDOW;
        if self.ring.len() < window {
            self.ring.push(failed);
        } else {
            let evicted = std::mem::replace(&mut self.ring[self.ring_at], failed);
            if evicted {
                self.fails -= 1;
            }
            self.ring_at = (self.ring_at + 1) % window;
        }
        if failed {
            self.fails += 1;
        }
    }

    fn over_threshold(&self) -> bool {
        let trip = u64::from(HealthConfig::TRIP_PERMILLE);
        self.ring.len() >= HealthConfig::MIN_SAMPLES
            && (self.fails as u64) * 1000 >= trip * self.ring.len() as u64
    }

    fn clear_window(&mut self) {
        self.ring.clear();
        self.ring_at = 0;
        self.fails = 0;
    }
}

/// Token bucket: starts full, spends one per retry, refills (capped) on
/// success.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    cap: u32,
    refill: u32,
    tokens: u32,
}

impl TokenBucket {
    pub(crate) fn new(cap: u32, refill: u32) -> TokenBucket {
        TokenBucket {
            cap,
            refill,
            tokens: cap,
        }
    }

    /// Take one token; false when the bucket is empty (shed the retry).
    pub(crate) fn try_spend(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Return `refill` tokens, capped at the bucket's capacity.
    pub(crate) fn credit(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.cap);
    }

    /// Refill to capacity (recovery reset).
    pub(crate) fn reset(&mut self) {
        self.tokens = self.cap;
    }

    #[cfg(test)]
    fn tokens(&self) -> u32 {
        self.tokens
    }
}

/// The per-process health engine: breakers keyed `(peer, path)`, data
/// retry-budget buckets keyed by peer. One lives in each proxy's state;
/// hosts interact with the ctrl-plane budget through `ReliableLink`.
pub(crate) struct HealthEngine {
    enabled: bool,
    rng: FaultRng,
    breakers: BTreeMap<(usize, HealthPath), Breaker>,
    data_buckets: BTreeMap<usize, TokenBucket>,
}

impl HealthEngine {
    pub(crate) fn new(cfg: HealthConfig, seed: u64, salt: u64) -> HealthEngine {
        HealthEngine {
            enabled: cfg.enabled,
            rng: FaultRng::new(seed, salt),
            breakers: BTreeMap::new(),
            data_buckets: BTreeMap::new(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open-state cooldown for one episode: [`HealthConfig::PROBE_COOLDOWN`] plus
    /// seeded jitter of up to a quarter of it (deterministic per engine
    /// instance; no wall clock).
    fn episode_cooldown(&mut self) -> u32 {
        let base = HealthConfig::PROBE_COOLDOWN;
        base + (self.rng.next_u64() % (u64::from(base / 4) + 1)) as u32
    }

    /// Route one post over `(peer, path)`. Disabled engines and unknown
    /// peers route [`Route::Primary`]; open breakers count the post
    /// against their cooldown and route [`Route::FastPath`] until the
    /// cooldown expires, at which point the breaker half-opens and this
    /// post becomes the single admitted [`Route::Probe`].
    pub(crate) fn route(&mut self, peer: usize, path: HealthPath) -> Route {
        if !self.enabled {
            return Route::Primary;
        }
        let Some(b) = self.breakers.get_mut(&(peer, path)) else {
            return Route::Primary;
        };
        match b.state {
            BreakerState::Closed => Route::Primary,
            BreakerState::Open => {
                if b.cooldown > 1 {
                    b.cooldown -= 1;
                    Route::FastPath
                } else {
                    b.state = BreakerState::HalfOpen;
                    b.probe_inflight = true;
                    Route::Probe
                }
            }
            BreakerState::HalfOpen => {
                if b.probe_inflight {
                    Route::FastPath
                } else {
                    b.probe_inflight = true;
                    Route::Probe
                }
            }
        }
    }

    /// Feed one path outcome. In `Closed` this slides the failure
    /// window and may trip the breaker; in `HalfOpen` with a probe in
    /// flight it is the probe's verdict (success closes, failure
    /// re-opens). Returns the transition for the caller to emit.
    pub(crate) fn on_outcome(
        &mut self,
        peer: usize,
        path: HealthPath,
        ok: bool,
    ) -> Option<BreakerEvent> {
        if !self.enabled {
            return None;
        }
        let b = self
            .breakers
            .entry((peer, path))
            .or_insert_with(Breaker::new);
        match b.state {
            BreakerState::Closed => {
                b.push_outcome(!ok);
                if b.over_threshold() {
                    b.state = BreakerState::Open;
                    b.clear_window();
                    b.cooldown = 0; // set below, needs &mut self.rng
                } else {
                    return None;
                }
            }
            BreakerState::HalfOpen if b.probe_inflight => {
                b.probe_inflight = false;
                if ok {
                    b.state = BreakerState::Closed;
                    b.clear_window();
                    return Some(BreakerEvent::Closed);
                }
                b.state = BreakerState::Open;
                b.cooldown = 0;
            }
            // Outcomes landing while open (e.g. a straggling staged hop
            // completing after the trip) keep the window warm but cannot
            // transition the breaker.
            _ => {
                b.push_outcome(!ok);
                return None;
            }
        }
        let cooldown = self.episode_cooldown();
        let b = self.breakers.get_mut(&(peer, path)).expect("just present");
        b.cooldown = cooldown;
        Some(BreakerEvent::Tripped)
    }

    /// Current state of a breaker (implicitly closed when untracked).
    #[cfg(test)]
    pub(crate) fn state(&self, peer: usize, path: HealthPath) -> BreakerState {
        self.breakers
            .get(&(peer, path))
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Whether any tracked breaker is not closed (degraded-mode flag).
    #[cfg(test)]
    pub(crate) fn any_degraded(&self) -> bool {
        self.breakers
            .values()
            .any(|b| b.state != BreakerState::Closed)
    }

    /// Spend one data-plane retry token for `peer`; false sheds the
    /// retry. Buckets start full and are created on first use.
    pub(crate) fn try_spend_data(&mut self, peer: usize) -> bool {
        if !self.enabled {
            return true;
        }
        let (cap, refill) = (HealthConfig::DATA_BUDGET, HealthConfig::DATA_REFILL);
        self.data_buckets
            .entry(peer)
            .or_insert_with(|| TokenBucket::new(cap, refill))
            .try_spend()
    }

    /// A retried payload for `peer` recovered: refill its bucket.
    pub(crate) fn credit_data(&mut self, peer: usize) {
        if let Some(b) = self.data_buckets.get_mut(&peer) {
            b.credit();
        }
    }

    /// Restart recovery: every tracked breaker drops to half-open with
    /// no probe in flight (the next routed post probes immediately) and
    /// every data bucket refills. Peer state learned before the crash
    /// is stale; the probe re-validates each path before trusting it.
    pub(crate) fn reset_half_open(&mut self) {
        for b in self.breakers.values_mut() {
            b.state = BreakerState::HalfOpen;
            b.probe_inflight = false;
            b.clear_window();
            b.cooldown = 0;
        }
        for bucket in self.data_buckets.values_mut() {
            bucket.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> HealthConfig {
        HealthConfig::armed()
    }

    #[test]
    fn disabled_engine_is_inert() {
        let mut e = HealthEngine::new(HealthConfig::default(), 7, 1);
        assert!(!e.enabled());
        for _ in 0..64 {
            assert_eq!(e.route(0, HealthPath::CrossGvmi), Route::Primary);
            assert_eq!(e.on_outcome(0, HealthPath::CrossGvmi, false), None);
            assert!(e.try_spend_data(0));
        }
        assert_eq!(e.state(0, HealthPath::CrossGvmi), BreakerState::Closed);
        assert!(!e.any_degraded());
    }

    #[test]
    fn breaker_trips_reroutes_probes_and_recovers() {
        let mut e = HealthEngine::new(armed(), 7, 1);
        // Sustained failures trip the breaker once `MIN_SAMPLES` is met.
        let mut tripped = false;
        for _ in 0..HealthConfig::MIN_SAMPLES {
            tripped = matches!(
                e.on_outcome(3, HealthPath::CrossGvmi, false),
                Some(BreakerEvent::Tripped)
            );
        }
        assert!(tripped, "failure streak must trip");
        assert_eq!(e.state(3, HealthPath::CrossGvmi), BreakerState::Open);
        assert!(e.any_degraded());
        // While open: fast-path until the cooldown expires, then exactly
        // one probe.
        let mut probes = 0;
        let mut fastpaths = 0;
        for _ in 0..64 {
            match e.route(3, HealthPath::CrossGvmi) {
                Route::FastPath => fastpaths += 1,
                Route::Probe => {
                    probes += 1;
                    break;
                }
                Route::Primary => panic!("open breaker must not route primary"),
            }
        }
        assert_eq!(probes, 1);
        assert!(fastpaths >= 1, "cooldown absorbs posts before the probe");
        // Posts while the probe is in flight keep fast-pathing.
        assert_eq!(e.route(3, HealthPath::CrossGvmi), Route::FastPath);
        // Probe success closes; traffic returns to the primary path.
        assert_eq!(
            e.on_outcome(3, HealthPath::CrossGvmi, true),
            Some(BreakerEvent::Closed)
        );
        assert_eq!(e.state(3, HealthPath::CrossGvmi), BreakerState::Closed);
        assert_eq!(e.route(3, HealthPath::CrossGvmi), Route::Primary);
        assert!(!e.any_degraded());
    }

    #[test]
    fn failed_probe_reopens() {
        let mut e = HealthEngine::new(armed(), 7, 2);
        for _ in 0..HealthConfig::MIN_SAMPLES {
            e.on_outcome(1, HealthPath::Staging, false);
        }
        while e.route(1, HealthPath::Staging) != Route::Probe {}
        assert_eq!(
            e.on_outcome(1, HealthPath::Staging, false),
            Some(BreakerEvent::Tripped)
        );
        assert_eq!(e.state(1, HealthPath::Staging), BreakerState::Open);
        // And the next episode admits exactly one more probe.
        let mut probes = 0;
        for _ in 0..64 {
            if e.route(1, HealthPath::Staging) == Route::Probe {
                probes += 1;
            }
        }
        assert_eq!(probes, 1, "one probe per half-open episode");
    }

    #[test]
    fn mixed_outcomes_below_threshold_never_trip() {
        // 1-in-4 failures is below the 500‰ default threshold.
        let mut e = HealthEngine::new(armed(), 9, 3);
        for i in 0..128 {
            assert_eq!(e.on_outcome(0, HealthPath::CrossGvmi, i % 4 != 0), None);
        }
        assert_eq!(e.state(0, HealthPath::CrossGvmi), BreakerState::Closed);
    }

    #[test]
    fn reset_half_open_probes_every_tracked_breaker() {
        let mut e = HealthEngine::new(armed(), 7, 4);
        for _ in 0..HealthConfig::MIN_SAMPLES {
            e.on_outcome(2, HealthPath::CrossGvmi, false);
        }
        assert_eq!(e.state(2, HealthPath::CrossGvmi), BreakerState::Open);
        e.reset_half_open();
        assert_eq!(e.state(2, HealthPath::CrossGvmi), BreakerState::HalfOpen);
        // First post after the reset is the probe; success closes.
        assert_eq!(e.route(2, HealthPath::CrossGvmi), Route::Probe);
        assert_eq!(
            e.on_outcome(2, HealthPath::CrossGvmi, true),
            Some(BreakerEvent::Closed)
        );
    }

    #[test]
    fn data_budget_sheds_then_refills_on_recovery() {
        let mut e = HealthEngine::new(armed(), 7, 5);
        for _ in 0..HealthConfig::DATA_BUDGET {
            assert!(e.try_spend_data(4));
        }
        assert!(!e.try_spend_data(4), "empty bucket sheds");
        e.credit_data(4);
        for _ in 0..HealthConfig::DATA_REFILL {
            assert!(e.try_spend_data(4), "recovery refills");
        }
        assert!(
            !e.try_spend_data(4),
            "a recovery refills DATA_REFILL tokens"
        );
        // Peers have independent buckets.
        assert!(e.try_spend_data(5));
    }

    #[test]
    fn same_seed_same_cooldowns() {
        let mk = || {
            let mut e = HealthEngine::new(armed(), 11, 6);
            for _ in 0..HealthConfig::MIN_SAMPLES {
                e.on_outcome(0, HealthPath::CrossGvmi, false);
            }
            let mut fastpaths = 0u32;
            while e.route(0, HealthPath::CrossGvmi) == Route::FastPath {
                fastpaths += 1;
            }
            fastpaths
        };
        assert_eq!(mk(), mk(), "cooldown jitter is seed-deterministic");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite: under arbitrary interleavings of outcomes and
            // routed posts, a half-open episode never admits a second
            // probe before the first one's verdict arrives.
            #[test]
            fn at_most_one_probe_in_flight(
                steps in prop::collection::vec((0u8..3, any::<bool>()), 1..400),
            ) {
                let mut e = HealthEngine::new(armed(), 13, 7);
                let mut inflight = 0u32;
                for (op, ok) in steps {
                    match op {
                        0 => {
                            if e.route(0, HealthPath::CrossGvmi) == Route::Probe {
                                inflight += 1;
                            }
                        }
                        1 => {
                            // A probe verdict (when one is in flight)
                            // retires it; other outcomes just feed the
                            // window.
                            let probing = e.state(0, HealthPath::CrossGvmi)
                                == BreakerState::HalfOpen
                                && inflight > 0;
                            e.on_outcome(0, HealthPath::CrossGvmi, ok);
                            if probing {
                                inflight -= 1;
                            }
                        }
                        _ => {
                            // Restart recovery mid-stream: tracked
                            // breakers half-open, probe slot free again.
                            e.reset_half_open();
                            inflight = 0;
                        }
                    }
                    prop_assert!(
                        inflight <= 1,
                        "a second probe was admitted while one was in flight"
                    );
                }
            }

            // Satellite: the token bucket conserves tokens — after any
            // spend/credit sequence, tokens held plus tokens spent
            // equals tokens granted (capacity + credits actually
            // applied), and the level never exceeds capacity.
            #[test]
            fn token_bucket_conserves(
                cap in 1u32..16,
                refill in 0u32..8,
                ops in prop::collection::vec(any::<bool>(), 0..200),
            ) {
                let mut b = TokenBucket::new(cap, refill);
                let mut spent = 0u64;
                let mut granted = u64::from(cap);
                for spend in ops {
                    if spend {
                        let before = b.tokens();
                        if b.try_spend() {
                            spent += 1;
                            prop_assert_eq!(b.tokens(), before - 1);
                        } else {
                            prop_assert_eq!(before, 0, "shed only when empty");
                        }
                    } else {
                        let before = b.tokens();
                        b.credit();
                        // Credits above the cap are clipped, not banked.
                        granted += u64::from(b.tokens() - before);
                    }
                    prop_assert!(b.tokens() <= cap, "level never exceeds capacity");
                    prop_assert_eq!(
                        u64::from(b.tokens()) + spent,
                        granted,
                        "held + spent == granted"
                    );
                }
            }
        }
    }
}
