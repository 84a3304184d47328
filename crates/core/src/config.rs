//! Configuration of the offload framework, including the ablation switches
//! called out in DESIGN.md and the fault-injection plan consumed by the
//! reliability layer (DESIGN.md §13).

use std::collections::BTreeMap;
use std::fmt;

use simnet::SimDelta;

use crate::health::HealthConfig;

/// Identity of one tenant (job) sharing the offload plane. Ranks map to
/// tenants round-robin (`rank % tenants.len()`); tenant 0 is the
/// implicit identity of every rank in a single-tenant run.
pub type TenantId = usize;

/// Per-tenant overload policy (DESIGN.md §18).
///
/// All-zero (the [`Default`]) means "inherit": the hard quota is
/// unbounded. Every tenant of a roster shares the same soft quota,
/// [`OffloadConfig::queue_cap`], and an equal slice of the proxy
/// descriptor pool. A config whose `tenants` list holds zero or one
/// specs behaves byte-identically to the pre-multi-tenant engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TenantSpec {
    /// Hard quota: total live basic posts (admitted + deferred) a rank
    /// of this tenant may hold before new posts are shed with a typed
    /// [`crate::OffloadError::QuotaExceeded`]. 0 = never shed.
    pub hard_quota: usize,
}

impl TenantSpec {
    /// The inherit-everything spec (see the type-level docs).
    pub const fn inherit() -> TenantSpec {
        TenantSpec { hard_quota: 0 }
    }

    /// Builder: set the hard quota.
    pub const fn with_hard_quota(mut self, q: usize) -> TenantSpec {
        self.hard_quota = q;
        self
    }
}

/// One tenant's effective limits: its [`TenantSpec`] resolved against
/// the roster by [`OffloadConfig::quota`]. A 0 limit is unarmed. Both
/// ends decide admission from it alone: the host with
/// [`TenantQuota::verdict`], the proxy with [`TenantQuota::free_slots`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TenantQuota {
    /// Credit window: admitted-unfinished basic posts per rank before
    /// further posts are deferred.
    pub soft: usize,
    /// Live basic posts per rank before new posts are shed.
    pub hard: usize,
    /// Slots of the proxy descriptor pool the tenant may hold.
    pub share: usize,
    /// The descriptor pool of one proxy ([`OffloadConfig::queue_cap`]),
    /// which is also the credit window a rank holds per target.
    pub cap: usize,
}

/// The host's verdict on one basic post ([`TenantQuota::verdict`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Verdict {
    /// Ship it now, charging the target one credit.
    Admit,
    /// Park it until a credit frees up.
    Defer,
    /// Fail it with [`crate::OffloadError::QuotaExceeded`].
    Shed,
}

impl TenantQuota {
    /// The host's verdict on a post to endpoint `target`: shed when the
    /// rank's `live` basic posts (this one included) are over the hard
    /// quota; defer when the target already holds `cap` of the rank's
    /// credits or the rank's `window` holds `soft` in total; admit
    /// otherwise. `window` is the rank's credits per target endpoint.
    pub(crate) fn verdict(
        &self,
        live: usize,
        window: &BTreeMap<usize, usize>,
        target: usize,
    ) -> Verdict {
        if self.hard > 0 && live > self.hard {
            return Verdict::Shed;
        }
        let at_target = || window.get(&target).copied().unwrap_or(0);
        if (self.cap > 0 && at_target() >= self.cap)
            || (self.soft > 0 && window.values().sum::<usize>() >= self.soft)
        {
            return Verdict::Defer;
        }
        Verdict::Admit
    }

    /// Descriptors the tenant may still queue at a proxy whose pool
    /// holds `pool` descriptors, `held` of them the tenant's: both sides
    /// count against one pool, the paper's worker's single descriptor
    /// pool, and each tenant against its share of it (one tenant's
    /// share is the whole pool), so a flooding tenant fills
    /// only its own share. 0 while the pool is unbounded.
    pub(crate) fn free_slots(&self, pool: usize, held: usize) -> usize {
        let free = self.cap.saturating_sub(pool);
        free.min(self.share.saturating_sub(held))
    }
}

/// Which mechanism moves the payload (paper Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataPath {
    /// Cross-GVMI: the proxy cross-registers host memory and RDMA-writes
    /// it straight to the destination host — no staging hop. The paper's
    /// proposed mechanism.
    Gvmi,
    /// Staging: the host first writes the payload into DPU memory over
    /// PCIe; the proxy then forwards it from its own memory. The
    /// BluesMPI-style mechanism, generalized to any pattern.
    Staging,
}

/// Seeded probabilistic fault plan for the ctrl plane (DESIGN.md §13).
///
/// Rates are in permille (parts per thousand) so plans stay `Eq`/`Copy`
/// and filename-safe for the explorer's failure dumps. A plan with any
/// nonzero rate or a crash step arms the reliability layer (seq/ack
/// envelopes, retransmission timers, receiver dedup); the all-zero plan
/// leaves the engine byte-identical to the pre-reliability protocol so
/// committed bench baselines stay unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Probability (permille) that a ctrl message or ack is dropped.
    pub drop_pm: u16,
    /// Probability (permille) that a ctrl message is delivered twice.
    pub dup_pm: u16,
    /// Probability (permille) that a ctrl message is delayed by
    /// [`delay_ns`](FaultPlan::delay_ns) instead of sent immediately.
    pub delay_pm: u16,
    /// Virtual-time delay applied to delayed messages, in nanoseconds.
    pub delay_ns: u64,
    /// Crash each proxy once, after it has handled this many ctrl
    /// packets (0 = never). The proxy restarts with a bumped epoch.
    pub crash_at_step: u32,
    /// Probability (permille) that one cross-GVMI registration attempt
    /// fails; the transfer falls back to the staging path.
    pub xreg_fail_pm: u16,
    /// Probability (permille) that an RDMA payload lands with one byte
    /// flipped (data-plane fault; arms end-to-end CRC verification).
    pub flip_pm: u16,
    /// Probability (permille) that an RDMA payload lands torn: only a
    /// random prefix of the bytes is written.
    pub torn_pm: u16,
    /// Probability (permille) that an RDMA payload is dropped entirely on
    /// the wire while the operation still completes (silent loss).
    pub data_drop_pm: u16,
    /// Targeted fault: drop every transmit attempt of `GroupPacket`
    /// ctrl messages (including retransmissions), forcing the reliability
    /// layer to abandon them. Proves `Group_Wait` surfaces a typed error
    /// instead of stalling. Arms the reliability layer.
    pub drop_group_packets: bool,
    /// Seed for the fault RNG (independent of the schedule seed).
    pub seed: u64,
    /// One-shot fault: drop the first FIN, never retransmit (see
    /// [`FaultPlan::drop_first_fin`]).
    pub drop_first_fin: bool,
    /// One-shot fault: skip cross-registration, use mkey as mkey2 (see
    /// [`FaultPlan::skip_cross_reg`]).
    pub skip_cross_reg: bool,
}

impl FaultPlan {
    /// The empty plan: no faults, reliability layer disarmed.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            drop_pm: 0,
            dup_pm: 0,
            delay_pm: 0,
            delay_ns: 0,
            crash_at_step: 0,
            xreg_fail_pm: 0,
            flip_pm: 0,
            torn_pm: 0,
            data_drop_pm: 0,
            drop_group_packets: false,
            seed: 0,
            drop_first_fin: false,
            skip_cross_reg: false,
        }
    }

    /// Checker validation: the proxy drops the first `FinRecv` it would
    /// send and never retransmits it. The receiving rank waits forever,
    /// which the explorer reports as a deadlock.
    pub const fn drop_first_fin() -> FaultPlan {
        FaultPlan {
            drop_first_fin: true,
            ..FaultPlan::none()
        }
    }

    /// Checker validation: the proxy skips cross-registration and
    /// fabricates `mkey2 = mkey`. The conformance checker reports an
    /// `Mkey2Used`-before-`CrossReg` violation.
    pub const fn skip_cross_reg() -> FaultPlan {
        FaultPlan {
            skip_cross_reg: true,
            ..FaultPlan::none()
        }
    }

    /// Whether the seq/ack reliability machinery is armed. The one-shot
    /// checker-validation faults deliberately do *not* arm it: they
    /// exist to prove the checker still detects unrecovered faults.
    pub fn reliable(&self) -> bool {
        self.drop_pm > 0
            || self.dup_pm > 0
            || self.delay_pm > 0
            || self.crash_at_step > 0
            || self.drop_group_packets
    }

    /// Whether data-plane payload faults are armed. Arming any of them
    /// also arms the end-to-end CRC integrity layer (checksums in RTS and
    /// group entries, verification at the posting proxy's CQE, bounded
    /// data-path retransmission).
    pub fn payload_faults(&self) -> bool {
        self.flip_pm > 0 || self.torn_pm > 0 || self.data_drop_pm > 0
    }

    /// Whether cross-GVMI registration may fail (staging fallback armed).
    /// Hosts then carry both an mkey and an rkey in each RTS so the proxy
    /// can take either path per message.
    pub fn fallback_enabled(&self) -> bool {
        self.xreg_fail_pm > 0
    }

    /// Whether any fault at all is configured.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::none()
    }

    /// Set the fault RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Parse a comma-separated `key=value` list, e.g.
    /// `drop=100,dup=50,delay=20:5000,crash=40,xreg=80,seed=7` or the
    /// data-plane knobs `flip=5,torn=5,ddrop=3`.
    /// `delay` takes `permille:nanoseconds`. The plan is outside input, so
    /// an unknown key, a key given twice, a rate over 1000 permille or a
    /// crash step past `u32` is an error naming the key, never a silently
    /// different plan.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        let mut seen = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan: `{part}` is not key=value"))?;
            if seen.contains(&key) {
                return Err(format!("fault plan: `{key}` given twice"));
            }
            seen.push(key);
            let num = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("fault plan: `{v}` is not a number in `{part}`"))
            };
            let pm = |v: &str| -> Result<u16, String> {
                u16::try_from(num(v)?)
                    .ok()
                    .filter(|&n| n <= 1000)
                    .ok_or_else(|| format!("fault plan: `{key}={v}` is over 1000 permille"))
            };
            match key {
                "drop" => plan.drop_pm = pm(value)?,
                "dup" => plan.dup_pm = pm(value)?,
                "delay" => {
                    let (rate, ns) = value
                        .split_once(':')
                        .ok_or_else(|| format!("fault plan: delay wants pm:ns, got `{value}`"))?;
                    plan.delay_pm = pm(rate)?;
                    plan.delay_ns = num(ns)?;
                }
                "crash" => {
                    plan.crash_at_step = u32::try_from(num(value)?)
                        .map_err(|_| format!("fault plan: `crash={value}` is past u32"))?;
                }
                "xreg" => plan.xreg_fail_pm = pm(value)?,
                "flip" => plan.flip_pm = pm(value)?,
                "torn" => plan.torn_pm = pm(value)?,
                "ddrop" => plan.data_drop_pm = pm(value)?,
                "seed" => plan.seed = num(value)?,
                other => return Err(format!("fault plan: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Read a plan from the `FAULT_PLAN` environment variable (see the
    /// README fault-injection quickstart). Unset or empty means
    /// [`FaultPlan::none`]; a malformed value is an error.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("FAULT_PLAN") {
            Ok(v) if !v.trim().is_empty() => FaultPlan::parse(&v),
            _ => Ok(FaultPlan::none()),
        }
    }
}

// Filename-safe: the explorer embeds `{:?}` of the plan in failure-dump
// names, so no spaces, braces, or colons.
impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        if self.drop_first_fin {
            return write!(f, "drop-first-fin");
        }
        if self.skip_cross_reg {
            return write!(f, "skip-cross-reg");
        }
        write!(
            f,
            "d{}-u{}-y{}.{}-x{}-c{}-s{}",
            self.drop_pm,
            self.dup_pm,
            self.delay_pm,
            self.delay_ns,
            self.xreg_fail_pm,
            self.crash_at_step,
            self.seed
        )?;
        if self.payload_faults() {
            write!(
                f,
                "-p{}.{}.{}",
                self.flip_pm, self.torn_pm, self.data_drop_pm
            )?;
        }
        if self.drop_group_packets {
            write!(f, "-G")?;
        }
        Ok(())
    }
}

/// Framework configuration. One instance shared by hosts and proxies of a
/// run (like an `MPIRUN` environment).
#[derive(Clone, Debug)]
pub struct OffloadConfig {
    /// Payload mechanism.
    pub data_path: DataPath,
    /// Use the host/DPU GVMI registration caches (paper §VII-B). Off =
    /// register on every transfer (ablation 2).
    pub use_gvmi_cache: bool,
    /// Use the group-request metadata caches (paper §VII-D). Off = full
    /// metadata exchange on every `Group_Offload_call` (ablation 3).
    pub use_group_cache: bool,
    /// Bound on the proxy's pending send+recv descriptor queues
    /// (0 = unbounded, the PR-4-identical default). When armed, hosts
    /// run credit-based admission: at most this many un-FINned basic
    /// descriptors in flight per proxy, overflow posts are deferred
    /// host-side, and a racing over-admission is bounced with a
    /// `QueueFull` nack the host retries after a backoff.
    pub queue_cap: usize,
    /// Bound on the number of per-message staging buffers a proxy keeps
    /// (0 = unbounded). When armed, idle buffers are reclaimed LRU and
    /// reused for same-size transfers instead of growing the pool.
    pub staging_cap: usize,
    /// Bound on the durable per-proxy FIN journal (0 = unbounded). When
    /// armed, hosts piggyback their contiguous completion horizon on
    /// RTS/RTR and the proxy truncates journal entries every host has
    /// acked past once the journal exceeds the cap.
    pub journal_cap: usize,
    /// Memory budget (entries) for the host registration caches
    /// (0 = unbounded). When armed, caches evict LRU — never an entry
    /// pinned by an in-flight request — and evicted keys are
    /// deregistered from the fabric.
    pub cache_budget: usize,
    /// Tenant roster (DESIGN.md §18). Empty or a single spec = the
    /// implicit single-tenant default: every rank is tenant 0 and the
    /// engine is byte-identical to the pre-multi-tenant protocol. Two
    /// or more specs arm per-tenant admission: ranks map to tenants
    /// round-robin, each tenant gets its own GVMI cross-registration
    /// namespace, staging pool and journal partition at the proxy, an
    /// equal share of the proxy descriptor pool, and the host enforces
    /// the soft quota (`queue_cap`) and the per-tenant hard quotas.
    pub tenants: Vec<TenantSpec>,
    /// Fault plan (checker validation and fault-soak only).
    pub fault: FaultPlan,
    /// Fabric health engine: per-(peer, path) circuit breakers and
    /// retry budgets (DESIGN.md §19). Disabled by default — clean runs
    /// stay counter-identical to the pre-health engine.
    pub health: HealthConfig,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            data_path: DataPath::Gvmi,
            use_gvmi_cache: true,
            use_group_cache: true,
            queue_cap: 0,
            staging_cap: 0,
            journal_cap: 0,
            cache_budget: 0,
            tenants: Vec::new(),
            fault: FaultPlan::none(),
            health: HealthConfig::default(),
        }
    }
}

impl OffloadConfig {
    /// Modelled wire size of one control message (RTS/RTR/FIN/EXEC).
    pub const CTRL_BYTES: u64 = 64;
    /// Modelled wire size of one group-packet entry.
    pub const ENTRY_BYTES: u64 = 48;
    /// ARM time the proxy spends interpreting one queue/packet entry.
    pub const PROXY_ENTRY_OVERHEAD: SimDelta = SimDelta::from_ns(120);
    /// Data-path delivery attempts before a transfer fails integrity
    /// permanently.
    pub const DATA_RETX_MAX: u32 = 8;

    /// The paper's proposed configuration (GVMI + both caches).
    pub fn proposed() -> Self {
        Self::default()
    }

    /// Staging-based configuration (generalized BluesMPI mechanism).
    pub fn staging() -> Self {
        OffloadConfig {
            data_path: DataPath::Staging,
            ..Self::default()
        }
    }

    /// Disable the GVMI registration caches (ablation).
    pub fn without_gvmi_cache(mut self) -> Self {
        self.use_gvmi_cache = false;
        self
    }

    /// Disable the group metadata caches (ablation).
    pub fn without_group_cache(mut self) -> Self {
        self.use_group_cache = false;
        self
    }

    /// Inject a fault plan (checker validation and fault-soak only).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Bound the proxy descriptor queues and arm credit-based admission.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Bound the proxy staging-buffer pool.
    pub fn with_staging_cap(mut self, cap: usize) -> Self {
        self.staging_cap = cap;
        self
    }

    /// Bound the durable per-proxy FIN journal.
    pub fn with_journal_cap(mut self, cap: usize) -> Self {
        self.journal_cap = cap;
        self
    }

    /// Bound the host registration caches to a memory budget (entries).
    pub fn with_cache_budget(mut self, budget: usize) -> Self {
        self.cache_budget = budget;
        self
    }

    /// Install a tenant roster (two or more specs arm per-tenant
    /// admission; see [`OffloadConfig::tenants`]).
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Install a health-engine config (circuit breakers + retry
    /// budgets; DESIGN.md §19).
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Whether per-tenant admission is armed (two or more tenants).
    pub fn multi_tenant(&self) -> bool {
        self.tenants.len() > 1
    }

    /// The tenant a rank belongs to: round-robin over the roster, and
    /// tenant 0 for everyone in a single-tenant run.
    pub fn tenant_of(&self, rank: usize) -> TenantId {
        if self.multi_tenant() {
            rank % self.tenants.len()
        } else {
            0
        }
    }

    /// What `tenant` may hold, with the roster rules applied here and
    /// nowhere else. A roster of zero or one specs is the one-tenant
    /// quota: no soft or hard quota, and the whole descriptor pool. In a
    /// roster of two or more, the soft quota is `queue_cap`, a hard
    /// quota of 0 stays unbounded, and each tenant's share is
    /// `queue_cap / tenants`, at least one slot. A tenant outside the
    /// roster inherits everything.
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        let cap = self.queue_cap;
        if !self.multi_tenant() {
            return TenantQuota {
                soft: 0,
                hard: 0,
                share: cap,
                cap,
            };
        }
        let own = self.tenants.get(tenant).copied().unwrap_or_default();
        TenantQuota {
            soft: cap,
            hard: own.hard_quota,
            // `min` keeps an unarmed pool at no share.
            share: (cap / self.tenants.len()).max(1).min(cap),
            cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_uses_gvmi_and_caches() {
        let c = OffloadConfig::proposed();
        assert_eq!(c.data_path, DataPath::Gvmi);
        assert!(c.use_gvmi_cache && c.use_group_cache);
    }

    #[test]
    fn ablation_builders() {
        let c = OffloadConfig::staging()
            .without_gvmi_cache()
            .without_group_cache();
        assert_eq!(c.data_path, DataPath::Staging);
        assert!(!c.use_gvmi_cache && !c.use_group_cache);
    }

    #[test]
    fn fault_plan_arming_rules() {
        assert!(!FaultPlan::none().reliable());
        assert!(FaultPlan::none().is_none());
        // One-shot faults must NOT arm the reliability layer: the
        // checker proves they stay detectable (deadlock / violation).
        assert!(!FaultPlan::drop_first_fin().reliable());
        assert!(!FaultPlan::skip_cross_reg().reliable());
        assert!(FaultPlan::skip_cross_reg().skip_cross_reg);
        let lossy = FaultPlan {
            drop_pm: 100,
            ..FaultPlan::none()
        };
        assert!(lossy.reliable() && !lossy.fallback_enabled());
        let flaky_reg = FaultPlan {
            xreg_fail_pm: 50,
            ..FaultPlan::none()
        };
        assert!(flaky_reg.fallback_enabled() && !flaky_reg.reliable());
    }

    #[test]
    fn fault_plan_parse_round_trip() {
        let plan = FaultPlan::parse("drop=100, dup=50, delay=20:5000, crash=40, xreg=80, seed=7")
            .expect("parses");
        assert_eq!(plan.drop_pm, 100);
        assert_eq!(plan.dup_pm, 50);
        assert_eq!(plan.delay_pm, 20);
        assert_eq!(plan.delay_ns, 5000);
        assert_eq!(plan.crash_at_step, 40);
        assert_eq!(plan.xreg_fail_pm, 80);
        assert_eq!(plan.seed, 7);
        assert_eq!(FaultPlan::parse("").expect("empty ok"), FaultPlan::none());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
    }

    #[test]
    fn fault_plan_parse_rejects_what_it_used_to_change() {
        for (input, key) in [
            ("drop=70000", "drop"),           // was 4 464 permille
            ("drop=65636", "drop"),           // was 100 permille
            ("flip=1001", "flip"),            // was accepted past certainty
            ("delay=2000:5", "delay"),        // likewise
            ("crash=4294967296", "crash"),    // was 0: no crash at all
            ("drop=5,seed=1,drop=7", "drop"), // was last-wins
        ] {
            let err = FaultPlan::parse(input).expect_err(input);
            assert!(err.contains(&format!("`{key}")), "{input}: {err}");
        }
        let edge = FaultPlan::parse("drop=1000,crash=4294967295").expect("bounds parse");
        assert_eq!((edge.drop_pm, edge.crash_at_step), (1000, u32::MAX));
    }

    #[test]
    fn fault_plan_debug_is_filename_safe() {
        let plan = FaultPlan::parse("drop=100,dup=50,delay=20:5000,crash=40,xreg=80,seed=7")
            .expect("parses");
        let names = [
            format!("{:?}", FaultPlan::none()),
            format!("{:?}", FaultPlan::drop_first_fin()),
            format!("{:?}", FaultPlan::skip_cross_reg()),
            format!("{plan:?}"),
        ];
        assert_eq!(names[0], "none");
        assert_eq!(names[1], "drop-first-fin");
        assert_eq!(names[2], "skip-cross-reg");
        for name in &names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
                "{name} is not filename-safe"
            );
        }
    }

    #[test]
    fn payload_fault_parse_arming_and_debug() {
        let plan = FaultPlan::parse("flip=5,torn=4,ddrop=3,seed=9").expect("parses");
        assert_eq!((plan.flip_pm, plan.torn_pm, plan.data_drop_pm), (5, 4, 3));
        assert!(plan.payload_faults());
        // Payload faults alone do not arm the ctrl-plane machinery.
        assert!(!plan.reliable());
        let name = format!("{plan:?}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
            "{name} is not filename-safe"
        );
        assert!(name.ends_with("-p5.4.3"), "{name}");
        // The targeted group-packet drop arms the reliability layer.
        let grp = FaultPlan {
            drop_group_packets: true,
            ..FaultPlan::none()
        };
        assert!(grp.reliable() && !grp.payload_faults());
        assert!(format!("{grp:?}").ends_with("-G"));
    }

    #[test]
    fn bound_knobs_default_unbounded() {
        let c = OffloadConfig::proposed();
        assert_eq!(
            (c.queue_cap, c.staging_cap, c.journal_cap, c.cache_budget),
            (0, 0, 0, 0)
        );
        let c = OffloadConfig::proposed()
            .with_queue_cap(4)
            .with_staging_cap(2)
            .with_journal_cap(16)
            .with_cache_budget(8);
        assert_eq!(
            (c.queue_cap, c.staging_cap, c.journal_cap, c.cache_budget),
            (4, 2, 16, 8)
        );
    }

    #[test]
    fn tenant_mapping_is_round_robin() {
        // No roster, or one spec, is single-tenant: everyone is tenant 0.
        let c = OffloadConfig::proposed();
        assert!(!c.multi_tenant());
        assert_eq!((c.tenant_of(0), c.tenant_of(7)), (0, 0));
        let c = OffloadConfig::proposed().with_tenants(vec![TenantSpec::inherit()]);
        assert!(!c.multi_tenant());
        assert_eq!(c.tenant_of(5), 0);
        let c = OffloadConfig::proposed()
            .with_tenants(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
        assert!(c.multi_tenant());
        assert_eq!(c.tenant_of(0), 0);
        assert_eq!(c.tenant_of(1), 1);
        assert_eq!(c.tenant_of(2), 0);
        assert_eq!(c.tenant_of(3), 1);
    }

    /// The admission code [`TenantQuota::verdict`] and
    /// [`TenantQuota::free_slots`] replace, copied as the oracle: the
    /// host's hard-quota check, then `blocked` gated by `credit_armed`
    /// (a flush never shed), and the proxy's `free_slots`.
    fn old_verdict(
        cfg: &OffloadConfig,
        q: TenantQuota,
        live: usize,
        window: &BTreeMap<usize, usize>,
        to: usize,
        flush: bool,
    ) -> Verdict {
        if !flush && q.hard > 0 && live > q.hard {
            return Verdict::Shed;
        }
        let credit_armed = cfg.queue_cap > 0 || q.soft > 0;
        let used = window.get(&to).copied().unwrap_or(0);
        let blocked = (cfg.queue_cap > 0 && used >= cfg.queue_cap)
            || (q.soft > 0 && window.values().sum::<usize>() >= q.soft);
        if credit_armed && blocked {
            Verdict::Defer
        } else {
            Verdict::Admit
        }
    }

    fn old_free_slots(cfg: &OffloadConfig, tenant: TenantId, len: usize, held: usize) -> usize {
        let pool = cfg.queue_cap.saturating_sub(len);
        pool.min(cfg.quota(tenant).share.saturating_sub(held))
    }

    #[test]
    fn one_verdict_and_free_slots_match_the_code_they_replace() {
        let spec = |hard| TenantSpec::inherit().with_hard_quota(hard);
        let rosters: Vec<Vec<TenantSpec>> = [0, 3]
            .into_iter()
            .flat_map(|hard| {
                [
                    vec![spec(hard)],
                    vec![spec(hard), spec(0)],
                    vec![spec(0), spec(hard), spec(hard)],
                ]
            })
            .collect();
        // Credit windows over targets 0 and 1 (target 2 holds none).
        let levels = [0, 1, 2, 7, 8, 9];
        let windows: Vec<BTreeMap<usize, usize>> = levels
            .iter()
            .flat_map(|&a| {
                levels
                    .iter()
                    .map(move |&b| BTreeMap::from([(0, a), (1, b)]))
            })
            .collect();
        for cap in [0, 1, 8] {
            for roster in &rosters {
                let cfg = OffloadConfig::proposed()
                    .with_queue_cap(cap)
                    .with_tenants(roster.clone());
                for tenant in 0..=roster.len() {
                    let q = cfg.quota(tenant);
                    for (window, live, to) in windows.iter().flat_map(|w| {
                        [0, 1, 3, 4, 9]
                            .into_iter()
                            .flat_map(move |l| (0..3).map(move |t| (w, l, t)))
                    }) {
                        let what = format!("cap {cap} {roster:?} t{tenant} {window:?} {live} {to}");
                        let want = old_verdict(&cfg, q, live, window, to, false);
                        assert_eq!(q.verdict(live, window, to), want, "post: {what}");
                        let want = old_verdict(&cfg, q, live, window, to, true);
                        assert_eq!(q.verdict(0, window, to), want, "flush: {what}");
                    }
                    for (len, held) in (0..=10).flat_map(|n| (0..=n).map(move |h| (n, h))) {
                        let want = old_free_slots(&cfg, tenant, len, held);
                        assert_eq!(
                            q.free_slots(len, held),
                            want,
                            "cap {cap} t{tenant} {len}/{held}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotas_apply_the_roster_rules() {
        let roster = |cap: usize, specs: &[TenantSpec]| {
            OffloadConfig::proposed()
                .with_queue_cap(cap)
                .with_tenants(specs.to_vec())
        };
        let q = |soft, hard, share| TenantQuota {
            soft,
            hard,
            share,
            cap: 0,
        };
        let inherit = TenantSpec::inherit();
        let overrides = [inherit, inherit.with_hard_quota(4)];
        let rows = [
            ("no roster", roster(0, &[]), 0, q(0, 0, 0)),
            ("no roster, capped", roster(4, &[]), 0, q(0, 0, 4)),
            (
                "a single spec is ignored",
                roster(6, &[inherit.with_hard_quota(1)]),
                0,
                q(0, 0, 6),
            ),
            (
                "a zero field inherits",
                roster(6, &overrides),
                0,
                q(6, 0, 3),
            ),
            (
                "a set hard quota holds",
                roster(6, &overrides),
                1,
                q(6, 4, 3),
            ),
            ("outside the roster", roster(6, &overrides), 9, q(6, 0, 3)),
            (
                "two tenants halve the pool",
                roster(8, &[inherit; 2]),
                1,
                q(8, 0, 4),
            ),
            (
                "a share keeps one slot",
                roster(1, &overrides),
                1,
                q(1, 4, 1),
            ),
            ("uncapped, no pool", roster(0, &overrides), 1, q(0, 4, 0)),
        ];
        for (what, cfg, tenant, want) in rows {
            let want = TenantQuota {
                cap: cfg.queue_cap,
                ..want
            };
            assert_eq!(cfg.quota(tenant), want, "{what}: tenant {tenant}");
        }
    }
}
