//! Schedule exploration: rerun a workload across seeds and legal
//! schedule perturbations, classify each run, and shrink failures.
//!
//! The explorer perturbs only *legal* schedules — fabric delivery jitter
//! never reorders packets on the same QP, and the proxy count changes
//! which proxy owns a rank but not the protocol. Any deadlock, livelock
//! or invariant violation it finds is therefore a real engine bug (or a
//! deliberately injected one), not an artifact of the exploration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use offload::{
    parse_flight_dump, replay_into, DataPath, FaultPlan, FlightRecorder, HealthConfig,
    OffloadConfig, TenantSpec,
};
use simnet::{EventSink, Report, SimDelta, SimError, SimTime};
use workloads::{
    drive_alltoall, drive_breaker_recovery, drive_brownout, drive_ctrl_undeliverable,
    drive_data_integrity, drive_deadline, drive_flood, drive_group_abandon, drive_noisy_neighbor,
    drive_quota_retry, drive_stencil, drive_verified_stencil, fanout, CheckRun,
};

use crate::conformance::{Conformance, ConformanceConfig, Violation};

/// One point in the exploration space: a seed plus the schedule, config
/// and fault knobs applied to the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Simulation RNG seed.
    pub seed: u64,
    /// Uniform fabric delivery jitter bound, in nanoseconds.
    pub jitter_ns: u64,
    /// Proxy processes per DPU.
    pub proxies_per_dpu: usize,
    /// Fault plan applied to the run (probabilistic drop/dup/delay,
    /// proxy crash, registration failure, payload corruption — or a
    /// one-shot [`FaultPlan::drop_first_fin`] /
    /// [`FaultPlan::skip_cross_reg`]).
    pub fault: FaultPlan,
    /// Off-by-default policies armed under the workload's own knobs.
    pub overlay: Overlay,
}

impl Scenario {
    /// An unperturbed, fault-free scenario for `seed`.
    pub fn baseline(seed: u64) -> Scenario {
        Scenario {
            seed,
            jitter_ns: 0,
            proxies_per_dpu: 1,
            fault: FaultPlan::none(),
            overlay: Overlay::Default,
        }
    }

    /// The same scenario with `fault` injected.
    pub fn with_fault(mut self, fault: FaultPlan) -> Scenario {
        self.fault = fault;
        self
    }

    /// The same scenario with `proxies` proxy processes per DPU.
    pub fn with_proxies(mut self, proxies: usize) -> Scenario {
        self.proxies_per_dpu = proxies;
        self
    }

    /// The same scenario with up to `jitter_ns` of delivery jitter.
    pub fn with_jitter(mut self, jitter_ns: u64) -> Scenario {
        self.jitter_ns = jitter_ns;
        self
    }

    /// The same scenario under `overlay`.
    pub fn with_overlay(mut self, overlay: Overlay) -> Scenario {
        self.overlay = overlay;
        self
    }
}

/// Admission cap the [`Overlay::Credits`] overlay arms.
const OVERLAY_QUEUE_CAP: usize = 4;

/// A config overlay: off-by-default policies armed on the paper's
/// proposed configuration *before* a workload's constructor applies its
/// own knobs, so an overlay never removes what a workload sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlay {
    /// Nothing armed.
    Default,
    /// The staging data path instead of cross-GVMI.
    Staging,
    /// Both registration caches off (the paper's ablations).
    NoCache,
    /// Credit-based admission under a 4-deep queue cap.
    Credits,
    /// Two inherit-everything tenants.
    Tenants,
    /// The fabric health engine (breakers and retry budgets).
    Health,
    /// Everything at once: the [`all_armed_workload`] config.
    AllArmed,
}

impl Overlay {
    /// Every overlay, in the order the fingerprint matrix runs them.
    pub const ALL: [Overlay; 7] = [
        Overlay::Default,
        Overlay::Staging,
        Overlay::NoCache,
        Overlay::Credits,
        Overlay::Tenants,
        Overlay::Health,
        Overlay::AllArmed,
    ];

    /// Short stable name for scenario ids and dump headers.
    pub fn label(self) -> &'static str {
        match self {
            Overlay::Default => "default",
            Overlay::Staging => "staging",
            Overlay::NoCache => "no-cache",
            Overlay::Credits => "credits",
            Overlay::Tenants => "tenants",
            Overlay::Health => "health",
            Overlay::AllArmed => "all-armed",
        }
    }

    /// `cfg` with this overlay's policies armed.
    fn apply(self, cfg: OffloadConfig) -> OffloadConfig {
        let two_tenants = || vec![TenantSpec::inherit(), TenantSpec::inherit()];
        match self {
            Overlay::Default => cfg,
            Overlay::Staging => OffloadConfig {
                data_path: DataPath::Staging,
                ..cfg
            },
            Overlay::NoCache => cfg.without_gvmi_cache().without_group_cache(),
            Overlay::Credits => cfg.with_queue_cap(OVERLAY_QUEUE_CAP),
            Overlay::Tenants => cfg.with_tenants(two_tenants()),
            Overlay::Health => cfg.with_health(HealthConfig::armed()),
            Overlay::AllArmed => cfg
                .with_tenants(two_tenants())
                .with_queue_cap(ALL_ARMED_QUEUE_CAP)
                .with_staging_cap(2)
                .with_journal_cap(8)
                .with_cache_budget(4)
                .with_health(HealthConfig::armed()),
        }
    }

    /// The checker config matching a run under this overlay: the group
    /// cache as the overlay leaves it, and the overlay's admission cap
    /// unless the workload enforces its own (`cfg.queue_cap != 0`).
    pub fn checked(self, cfg: ConformanceConfig) -> ConformanceConfig {
        let cap = match self {
            Overlay::Credits => OVERLAY_QUEUE_CAP,
            Overlay::AllArmed => ALL_ARMED_QUEUE_CAP,
            _ => 0,
        };
        ConformanceConfig {
            group_cache_enabled: cfg.group_cache_enabled && self != Overlay::NoCache,
            queue_cap: if cfg.queue_cap == 0 {
                cap
            } else {
                cfg.queue_cap
            },
        }
    }
}

/// Verdict for one explored run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Ran to completion with every invariant intact.
    Ok,
    /// The conformance checker recorded protocol violations.
    Violations(Vec<Violation>),
    /// The simulation wedged: no pending events, processes blocked.
    Deadlock(String),
    /// Virtual time exceeded the scenario's limit (livelock suspect).
    TimeLimit(String),
    /// The clock stopped advancing while processes kept running.
    Livelock(String),
    /// A simulated process panicked (and no violation explains why).
    Panic(String),
}

impl Outcome {
    /// Whether this run passed.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }

    /// Short classification label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Violations(_) => "violations",
            Outcome::Deadlock(_) => "deadlock",
            Outcome::TimeLimit(_) => "time-limit",
            Outcome::Livelock(_) => "livelock",
            Outcome::Panic(_) => "panic",
        }
    }
}

/// A workload the explorer can rerun: builds a simulation for the given
/// scenario, installs the sink, and returns the simulation's verdict.
pub type Workload = Arc<dyn Fn(&Scenario, EventSink) -> Result<Report, SimError> + Send + Sync>;

fn check_run(scenario: &Scenario, sink: EventSink) -> CheckRun {
    let mut run = CheckRun::baseline(scenario.seed);
    run.proxies_per_dpu = scenario.proxies_per_dpu;
    run.jitter = SimDelta::from_ns(scenario.jitter_ns);
    // Generous virtual-time budget: these workloads finish in
    // milliseconds; ten seconds only trips on genuine no-progress loops.
    run.time_limit = Some(SimTime::ZERO + SimDelta::from_secs(10));
    run.cfg = scenario
        .overlay
        .apply(OffloadConfig::proposed())
        .with_fault(scenario.fault);
    run.sink = Some(sink);
    run
}

/// The canonical point-to-point workload: a 2-round ring halo exchange
/// on 2 nodes x 2 ranks (see [`workloads::drive_stencil`]).
pub fn stencil_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        drive_stencil(&check_run(scenario, sink), 4096, 2)
    })
}

/// The payload-verifying stencil (see
/// [`workloads::drive_verified_stencil`]): real bytes move through the
/// fabric, every send buffer carries a per-`(rank, round, direction)`
/// pattern, and each receiver checks what actually landed. This is the
/// fault-soak workload — under a lossy [`FaultPlan`] it proves that
/// retransmission and restart replay deliver every payload intact.
pub fn verified_stencil_workload() -> Workload {
    verified_stencil_sized(2048, 2)
}

/// [`verified_stencil_workload`] with `rounds` rounds of `face_bytes`
/// faces.
pub fn verified_stencil_sized(face_bytes: u64, rounds: u64) -> Workload {
    Arc::new(move |scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.move_bytes = true;
        drive_verified_stencil(&run, face_bytes, rounds)
    })
}

/// The canonical group workload: alltoall plus a barrier-ordered ring
/// allgather, called twice (see [`workloads::drive_alltoall`]).
pub fn alltoall_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        drive_alltoall(&check_run(scenario, sink), 2048, 2)
    })
}

/// Admission cap a starved run gives the proxies. Deliberately tiny —
/// [`starved_flood_workload`] posts [`FLOOD_BURST`] transfers per rank
/// at once, so the credit window is exhausted from the first round.
pub const STARVED_QUEUE_CAP: usize = 2;

/// Outstanding send/recv pairs each rank posts in the starved flood.
pub const FLOOD_BURST: u64 = 16;

/// The backpressure workload: [`workloads::drive_flood`] under a
/// [`STARVED_QUEUE_CAP`]-deep admission cap, a bounded staging pool and
/// a bounded FIN journal. Every queue the engine owns is capped far
/// below the posted burst; the run must still complete, with deferral
/// and nack-retry doing the pacing (never unbounded growth — pair it
/// with [`ConformanceConfig::queue_cap`] to have the checker enforce
/// the bound).
pub fn starved_flood_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.cfg = run
            .cfg
            .clone()
            .with_queue_cap(STARVED_QUEUE_CAP)
            .with_staging_cap(4)
            .with_journal_cap(64);
        drive_flood(&run, 1024, FLOOD_BURST)
    })
}

/// Admission cap of the noisy-neighbor scenarios. Small enough that the
/// aggressor's burst saturates its credit window and its proxy-queue
/// share immediately; the victim's window traffic fits comfortably.
pub const NOISY_QUEUE_CAP: usize = 4;

/// Send/recv pairs the flooding tenant posts at once in the
/// noisy-neighbor scenarios — an order of magnitude past its share of
/// the [`NOISY_QUEUE_CAP`]-deep pool.
pub const NOISY_FLOOD_BURST: u64 = 24;

/// The committed isolation bound: with per-tenant credit windows and
/// share-partitioned proxy admission, the flooding
/// tenant may not inflate the victim tenant's p99 group-window latency
/// beyond this factor of its solo-run p99. The noisy-neighbor gates
/// (tier-1 and the fault-soak chaos matrix) assert it from the
/// per-tenant lifecycle histograms.
pub const NOISY_P99_BOUND_FACTOR: u64 = 3;

/// Rounds of the victim's group-stencil window loop in the
/// noisy-neighbor scenarios.
const NOISY_ROUNDS: u64 = 4;

/// Hard quota the quota-retry scenarios arm on tenant 1.
pub const QUOTA_RETRY_HARD: usize = 3;

/// The two-tenant noisy-neighbor run: tenant 0 (ranks 0, 2) is the
/// victim, tenant 1 (ranks 1, 3) the aggressor, both inheriting the
/// [`NOISY_QUEUE_CAP`] credit window as their soft quota.
fn noisy_run(scenario: &Scenario, sink: EventSink) -> CheckRun {
    let mut run = check_run(scenario, sink);
    run.cfg = run
        .cfg
        .clone()
        .with_queue_cap(NOISY_QUEUE_CAP)
        .with_tenants(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
    run
}

/// The noisy-neighbor workload (see [`workloads::drive_noisy_neighbor`])
/// with `burst` flood pairs from the aggressor tenant; `burst == 0` is
/// the solo baseline the isolation gate compares against.
pub fn noisy_neighbor_workload(burst: u64) -> Workload {
    Arc::new(move |scenario: &Scenario, sink: EventSink| {
        drive_noisy_neighbor(&noisy_run(scenario, sink), 4096, NOISY_ROUNDS, 1024, burst)
    })
}

/// The hard-quota shed-and-retry workload (see
/// [`workloads::drive_quota_retry`]): tenant 1 runs with a
/// [`QUOTA_RETRY_HARD`]-post hard quota, overfills it, and must see a
/// typed `QuotaExceeded` followed by a successful retry.
pub fn quota_retry_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.cfg = run.cfg.clone().with_tenants(vec![
            TenantSpec::inherit(),
            TenantSpec::inherit().with_hard_quota(QUOTA_RETRY_HARD),
        ]);
        drive_quota_retry(&run, 1024)
    })
}

/// Run the noisy-neighbor scenario and measure the victim tenant's p99
/// group-window latency (picoseconds) from the per-tenant lifecycle
/// histograms, alongside the run's conformance verdict. This is the
/// probe both isolation gates are built on: call once with `burst == 0`
/// for the solo baseline and once with the flood armed, then hold the
/// noisy p99 to [`NOISY_P99_BOUND_FACTOR`] times the solo p99.
pub fn noisy_victim_p99(scenario: &Scenario, burst: u64) -> (u64, Outcome) {
    let cfg = ConformanceConfig {
        queue_cap: NOISY_QUEUE_CAP,
        ..ConformanceConfig::default()
    };
    let lifecycle = obs::LifecycleRecorder::new();
    let workload = noisy_neighbor_workload(burst);
    let (outcome, ..) = run_scenario_recorded(&workload, scenario, cfg, Some(lifecycle.sink()));
    // The victim ring is the even ranks of the 2×2 world (tenant 0 of
    // the two-tenant round-robin roster noisy_run installs).
    let tenant_of = (0..4).map(|r| (r, r % 2)).collect();
    let p99 = lifecycle
        .report()
        .tenant_window_histograms(&tenant_of)
        .get(&0)
        .map(|h| h.p99())
        .unwrap_or(0);
    (p99, outcome)
}

/// Rounds of sustained cross-node posting in the breaker-recovery
/// scenarios: enough for the cross-GVMI breaker to trip, fast-path
/// through its open-state cooldown, and close on a successful probe.
pub const BREAKER_RECOVERY_ROUNDS: u64 = 48;

/// Registration-failure rate (permille) of the breaker scenarios.
/// Deliberately probabilistic — high enough that the sliding window
/// trips the breaker almost immediately, below certainty so an
/// eventual half-open probe's registration roll succeeds and the
/// breaker closes (the recovery half of the state machine).
pub const BREAKER_XREG_PM: u16 = 700;

/// The breaker trip-and-recovery workload (see
/// [`workloads::drive_breaker_recovery`]): the health engine armed
/// under the scenario's fault plan (pair it with a probabilistic
/// `xreg_fail_pm`), sustained fresh-buffer posting across nodes, every
/// transfer required to complete through fallback or fast-path.
pub fn breaker_recovery_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.cfg = run.cfg.clone().with_health(HealthConfig::armed());
        drive_breaker_recovery(&run, 1024, BREAKER_RECOVERY_ROUNDS)
    })
}

/// The data-plane brownout workload (see [`workloads::drive_brownout`]):
/// the health engine armed under the scenario's fault plan (pair it
/// with `data_drop_pm: 1000`), real byte movement, both ends of the
/// doomed pair required to surface a typed `RetryBudgetExhausted`.
pub fn brownout_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.move_bytes = true;
        run.cfg = run.cfg.clone().with_health(HealthConfig::armed());
        drive_brownout(&run, 2048)
    })
}

/// The ctrl-plane soak plans: each recovery mechanism alone, then the
/// combined acceptance plan (10% drop + 5% dup + delays + a mid-window
/// proxy crash), last.
pub fn soak_plans() -> Vec<FaultPlan> {
    let none = FaultPlan::none();
    vec![
        FaultPlan {
            drop_pm: 100,
            ..none
        },
        FaultPlan { dup_pm: 50, ..none },
        FaultPlan {
            delay_pm: 100,
            delay_ns: 30_000,
            ..none
        },
        FaultPlan {
            xreg_fail_pm: 300,
            ..none
        },
        FaultPlan {
            drop_pm: 100,
            dup_pm: 50,
            delay_pm: 50,
            delay_ns: 10_000,
            crash_at_step: 12,
            ..none
        },
    ]
}

/// Data-plane corruption plans: each mode alone, then everything
/// stacked on a lossy ctrl plane (the data-integrity acceptance plan);
/// `long` adds a deeper stack.
pub fn payload_plans(long: bool) -> Vec<FaultPlan> {
    let none = FaultPlan::none();
    let mut plans = vec![
        FaultPlan {
            flip_pm: 60,
            ..none
        },
        FaultPlan {
            torn_pm: 60,
            ..none
        },
        FaultPlan {
            data_drop_pm: 40,
            ..none
        },
        FaultPlan {
            flip_pm: 40,
            torn_pm: 40,
            data_drop_pm: 20,
            drop_pm: 50,
            ..none
        },
    ];
    if long {
        plans.push(FaultPlan {
            flip_pm: 150,
            torn_pm: 100,
            data_drop_pm: 60,
            drop_pm: 80,
            dup_pm: 40,
            ..none
        });
    }
    plans
}

/// Admission cap of the all-armed interaction suite: small enough that
/// the stencil's four posts per rank and round defer and nack.
pub const ALL_ARMED_QUEUE_CAP: usize = 3;

/// The all-armed suite's fault plan: ctrl drop/dup/delay, registration
/// failure, every payload corruption mode and a mid-run proxy crash.
/// Payload rates stay below what the armed data retry budget sheds.
pub const ALL_ARMED_PLAN: FaultPlan = FaultPlan {
    drop_pm: 50,
    dup_pm: 30,
    delay_pm: 30,
    delay_ns: 5_000,
    xreg_fail_pm: 200,
    flip_pm: 20,
    torn_pm: 20,
    data_drop_pm: 10,
    crash_at_step: 12,
    ..FaultPlan::none()
};

/// The payload-verifying stencil with every off-by-default branch armed
/// at once ([`Overlay::AllArmed`]): two tenants, the admission cap,
/// bounded staging pool, FIN journal and registration caches, and the
/// health engine. Pair it with [`ALL_ARMED_PLAN`] and
/// [`ConformanceConfig::queue_cap`] = [`ALL_ARMED_QUEUE_CAP`]: the
/// interaction gate for the admission and path policies, which are
/// otherwise soaked one at a time.
pub fn all_armed_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.move_bytes = true;
        run.cfg = Overlay::AllArmed.apply(run.cfg.clone());
        drive_verified_stencil(&run, 2048, 3)
    })
}

/// A fully dark ctrl plane (see [`workloads::drive_ctrl_undeliverable`]):
/// meant to run under `drop_pm: 1000`, where the orphan send must fail
/// with a typed `CtrlUndeliverable`. The run itself ends in a deadlock
/// of the shutdown-starved proxies.
pub fn ctrl_undeliverable_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        drive_ctrl_undeliverable(&check_run(scenario, sink), 4096)
    })
}

/// A data plane that drops every payload (see
/// [`workloads::drive_data_integrity`]): meant to run under
/// `data_drop_pm: 1000`, where both ends must fail with a typed
/// `DataIntegrity`.
pub fn data_integrity_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        let mut run = check_run(scenario, sink);
        run.move_bytes = true;
        drive_data_integrity(&run, 4096)
    })
}

/// The group-abandonment workload (see
/// [`workloads::drive_group_abandon`]): meant to run under a plan with
/// `drop_group_packets`, where `Group_Wait` must surface a typed error.
pub fn doomed_group_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        drive_group_abandon(&check_run(scenario, sink), 1024)
    })
}

/// The deadline/cancel workload (see [`workloads::drive_deadline`]):
/// orphan transfers must expire or cancel with typed errors while a
/// matched exchange on the same ranks completes untouched.
pub fn deadline_workload() -> Workload {
    Arc::new(|scenario: &Scenario, sink: EventSink| {
        drive_deadline(&check_run(scenario, sink), 1024)
    })
}

/// Run one scenario under the conformance checker and classify it.
///
/// Violations recorded *during* the run take priority over the way the
/// run ended: an injected fault often first breaks an invariant and then
/// crashes or wedges the engine, and the invariant is the root cause.
/// The end-of-run completeness checks ([`Conformance::finish`]) run only
/// on cleanly completed runs — a deadlocked run trivially leaves flows
/// unmatched, which would drown the real diagnosis in noise.
pub fn run_scenario(workload: &Workload, scenario: &Scenario, cfg: ConformanceConfig) -> Outcome {
    run_scenario_recorded(workload, scenario, cfg, None).0
}

/// Like [`run_scenario`], but with the always-on flight recorder
/// installed next to the conformance sink, and `tap` (if any) next to
/// both. Returns the recorder, so the caller can dump the event tail of a
/// failed run (see [`write_failure_dump`]), and the report of a run that
/// completed (`None` if it deadlocked, timed out or panicked).
pub fn run_scenario_recorded(
    workload: &Workload,
    scenario: &Scenario,
    cfg: ConformanceConfig,
    tap: Option<EventSink>,
) -> (Outcome, FlightRecorder, Option<Report>) {
    let checker = Conformance::new(cfg);
    let recorder = FlightRecorder::new();
    let sink = fanout(
        [checker.sink(), recorder.sink()]
            .into_iter()
            .chain(tap)
            .collect(),
    );
    let (outcome, report) = classify(
        catch_unwind(AssertUnwindSafe(|| workload(scenario, sink))),
        &checker,
    );
    (outcome, recorder, report)
}

fn classify(
    result: std::thread::Result<Result<Report, SimError>>,
    checker: &Conformance,
) -> (Outcome, Option<Report>) {
    let during = checker.violations();
    let outcome = match &result {
        Ok(Ok(_)) => {
            let all = checker.finish();
            if all.is_empty() {
                Outcome::Ok
            } else {
                Outcome::Violations(all)
            }
        }
        _ if !during.is_empty() => Outcome::Violations(during),
        Ok(Err(e @ SimError::Deadlock { .. })) => Outcome::Deadlock(e.to_string()),
        Ok(Err(e @ SimError::TimeLimitExceeded { .. })) => Outcome::TimeLimit(e.to_string()),
        Ok(Err(e @ SimError::Livelock { .. })) => Outcome::Livelock(e.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Panic(msg)
        }
    };
    (outcome, result.ok().and_then(Result::ok))
}

/// Directory failure dumps are written to: `$BF_FAILURE_DUMP_DIR` if
/// set, else `target/failure-dumps/` at the workspace root.
pub fn failure_dump_dir() -> PathBuf {
    match std::env::var_os("BF_FAILURE_DUMP_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/failure-dumps"),
    }
}

/// Write the flight-recorder tail of a failed scenario to
/// [`failure_dump_dir`], prefixed with `#` header lines describing the
/// scenario and verdict so the dump is self-identifying. The filename is
/// deterministic in `(name, scenario)`, so a rerun of the same failure
/// overwrites rather than accumulates. Returns the path written.
pub fn write_failure_dump(
    name: &str,
    scenario: &Scenario,
    outcome: &Outcome,
    recorder: &FlightRecorder,
) -> std::io::Result<PathBuf> {
    let dir = failure_dump_dir();
    std::fs::create_dir_all(&dir)?;
    let overlay = scenario.overlay.label();
    let path = dir.join(format!(
        "{name}-seed{}-j{}ns-p{}-{:?}-{overlay}.flight.txt",
        scenario.seed, scenario.jitter_ns, scenario.proxies_per_dpu, scenario.fault
    ));
    let mut text = format!(
        "# workload={name} outcome={}\n# scenario seed={} jitter_ns={} proxies_per_dpu={} fault={:?} overlay={overlay}\n",
        outcome.label(),
        scenario.seed,
        scenario.jitter_ns,
        scenario.proxies_per_dpu,
        scenario.fault
    );
    text.push_str(&recorder.dump());
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Run a scenario with the flight recorder on; if the run fails, dump
/// the recorded event tail to [`failure_dump_dir`] and return the path
/// alongside the outcome. Passing runs write nothing.
pub fn run_scenario_with_dump(
    name: &str,
    workload: &Workload,
    scenario: &Scenario,
    cfg: ConformanceConfig,
) -> (Outcome, Option<PathBuf>) {
    let (outcome, recorder, _) = run_scenario_recorded(workload, scenario, cfg, None);
    if outcome.is_ok() {
        return (outcome, None);
    }
    let path = write_failure_dump(name, scenario, &outcome, &recorder)
        .map_err(|e| eprintln!("flight dump not written: {e}"))
        .ok();
    (outcome, path)
}

/// Replay a flight-recorder dump through a fresh conformance checker and
/// return the violations the recorded stream itself exhibits. A dump of
/// a run that broke an invariant *during* execution (e.g. an mkey2 used
/// before its cross-registration) reproduces the same violation here; a
/// deadlocked run's dump replays clean, because the bug is the event
/// that never happened. End-of-run completeness checks are deliberately
/// not applied — a dump's tail is truncated by the ring buffer, so
/// unmatched flows are expected, not evidence.
pub fn replay_dump(dump: &str, cfg: ConformanceConfig) -> Result<Vec<Violation>, String> {
    let records = parse_flight_dump(dump)?;
    let checker = Conformance::new(cfg);
    let sink = checker.sink();
    replay_into(&records, &sink);
    Ok(checker.violations())
}

/// Run every scenario and return the failures, in exploration order.
pub fn explore(
    workload: &Workload,
    scenarios: impl IntoIterator<Item = Scenario>,
    cfg: ConformanceConfig,
) -> Vec<(Scenario, Outcome)> {
    scenarios
        .into_iter()
        .filter_map(|sc| {
            let outcome = run_scenario(workload, &sc, cfg);
            if outcome.is_ok() {
                None
            } else {
                Some((sc, outcome))
            }
        })
        .collect()
}

/// A standard sweep: `seeds` baseline scenarios with schedule knobs
/// varied deterministically per seed (jitter 0/2/10 microseconds, one or
/// two proxies per DPU).
pub fn sweep(seeds: std::ops::Range<u64>, fault: FaultPlan) -> Vec<Scenario> {
    seeds
        .map(|seed| {
            Scenario::baseline(seed)
                .with_jitter([0, 2_000, 10_000][(seed % 3) as usize])
                .with_proxies(1 + (seed % 2) as usize)
                .with_fault(fault)
        })
        .collect()
}

/// Cap on extra runs [`shrink`] may spend hunting a smaller seed.
const SHRINK_SEED_BUDGET: u64 = 64;

/// Shrink a failing scenario to a minimal one that still fails: first
/// remove jitter, then drop to a single proxy, then scan for the
/// smallest failing seed (bounded by [`SHRINK_SEED_BUDGET`] runs).
/// Returns the shrunken scenario and its (still failing) outcome.
pub fn shrink(
    workload: &Workload,
    failing: Scenario,
    cfg: ConformanceConfig,
) -> (Scenario, Outcome) {
    let mut best = failing;
    let mut outcome = run_scenario(workload, &best, cfg);
    debug_assert!(!outcome.is_ok(), "shrink called on a passing scenario");

    let try_candidate = |cand: Scenario, best: &mut Scenario, outcome: &mut Outcome| {
        if cand == *best {
            return false;
        }
        let o = run_scenario(workload, &cand, cfg);
        if o.is_ok() {
            return false;
        }
        *best = cand;
        *outcome = o;
        true
    };

    let mut no_jitter = best;
    no_jitter.jitter_ns = 0;
    try_candidate(no_jitter, &mut best, &mut outcome);

    let mut one_proxy = best;
    one_proxy.proxies_per_dpu = 1;
    try_candidate(one_proxy, &mut best, &mut outcome);

    for seed in (0..best.seed).take(SHRINK_SEED_BUDGET as usize) {
        let mut cand = best;
        cand.seed = seed;
        if try_candidate(cand, &mut best, &mut outcome) {
            break;
        }
    }

    (best, outcome)
}
