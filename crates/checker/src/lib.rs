//! # checker — protocol-invariant conformance and schedule exploration
//!
//! Correctness tooling for the offload engine, independent of the
//! benchmark harness:
//!
//! * [`Conformance`] — a per-run state machine fed from the engine's
//!   structured [`offload::ProtoEvent`] stream (via a simnet
//!   [`simnet::EventSink`]) that checks the offload protocol's
//!   invariants: RTS/RTR matching, completion-before-FIN,
//!   cross-registration before mkey2 use, registration-cache coherence,
//!   at-most-once group metadata, and barrier-counter monotonicity.
//! * [`run_scenario`] / [`explore`] / [`shrink`] — rerun a workload
//!   across seeds and legal schedule perturbations (delivery jitter,
//!   proxy count), classify each run ([`Outcome`]: clean, violations,
//!   deadlock, livelock, time-limit, panic), and shrink failures to a
//!   minimal reproducer.
//!
//! The one-shot [`offload::FaultPlan::drop_first_fin`] and
//! [`offload::FaultPlan::skip_cross_reg`] plans exist so this crate can
//! prove it detects real bugs: dropping a FIN must be reported as a
//! deadlock, skipping cross-registration as an invariant violation.
//! The probabilistic [`offload::FaultPlan`] points the same machinery
//! the other way: under seeded drop/dup/delay/crash plans the reliable
//! ctrl-plane must *recover* — every scenario of the fault-soak matrix
//! must come back [`Outcome::Ok`] with payloads intact (see
//! [`verified_stencil_workload`] and the `fault_soak` binary).

#![warn(missing_docs)]

mod conformance;
mod explore;
mod idset;

pub use conformance::{Conformance, ConformanceConfig, Violation};
pub use explore::{
    all_armed_workload, alltoall_workload, breaker_recovery_workload, brownout_workload,
    ctrl_undeliverable_workload, data_integrity_workload, deadline_workload, doomed_group_workload,
    explore, failure_dump_dir, noisy_neighbor_workload, noisy_victim_p99, payload_plans,
    quota_retry_workload, replay_dump, run_scenario, run_scenario_recorded, run_scenario_with_dump,
    shrink, soak_plans, starved_flood_workload, stencil_workload, sweep, verified_stencil_sized,
    verified_stencil_workload, write_failure_dump, Outcome, Overlay, Scenario, Workload,
    ALL_ARMED_PLAN, ALL_ARMED_QUEUE_CAP, BREAKER_RECOVERY_ROUNDS, BREAKER_XREG_PM, FLOOD_BURST,
    NOISY_FLOOD_BURST, NOISY_P99_BOUND_FACTOR, NOISY_QUEUE_CAP, QUOTA_RETRY_HARD,
    STARVED_QUEUE_CAP,
};

#[cfg(test)]
mod tests {
    use super::*;
    use offload::{FaultPlan, Metrics};

    fn assert_sweep_clean(workload: &Workload, what: &str) {
        let failures = explore(
            workload,
            sweep(0..32, FaultPlan::none()),
            ConformanceConfig::default(),
        );
        assert!(
            failures.is_empty(),
            "{what}: {} of 32 scenarios failed; first: {:?}",
            failures.len(),
            failures[0]
        );
    }

    #[test]
    fn stencil_sweep_32_seeds_clean() {
        assert_sweep_clean(&stencil_workload(), "stencil");
    }

    #[test]
    fn alltoall_sweep_32_seeds_clean() {
        assert_sweep_clean(&alltoall_workload(), "alltoall");
    }

    #[test]
    fn checker_observes_events() {
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(7);
        run.sink = Some(checker.sink());
        workloads::drive_stencil(&run, 1024, 1).expect("clean run");
        assert!(checker.events_seen() > 0, "sink saw no protocol events");
        assert!(checker.finish().is_empty());
    }

    #[test]
    fn dropped_fin_is_reported_as_deadlock() {
        let scenario = Scenario::baseline(3).with_fault(FaultPlan::drop_first_fin());
        let outcome = run_scenario(&stencil_workload(), &scenario, ConformanceConfig::default());
        assert!(
            matches!(outcome, Outcome::Deadlock(_)),
            "expected deadlock, got {outcome:?}"
        );
    }

    #[test]
    fn deadlock_dump_replays_to_same_verdict() {
        // An injected deadlock must leave a flight-recorder dump behind,
        // and replaying that dump through a fresh checker must reach the
        // same conformance verdict as the live run: no during-run
        // violations — the deadlock is the event that never happened.
        let scenario = Scenario::baseline(3).with_fault(FaultPlan::drop_first_fin());
        let (outcome, path) = run_scenario_with_dump(
            "test-dropped-fin",
            &stencil_workload(),
            &scenario,
            ConformanceConfig::default(),
        );
        assert!(
            matches!(outcome, Outcome::Deadlock(_)),
            "expected deadlock, got {outcome:?}"
        );
        let path = path.expect("failed run must leave a dump");
        let dump = std::fs::read_to_string(&path).expect("dump readable");
        assert!(dump.starts_with("# workload=test-dropped-fin outcome=deadlock"));
        let violations = replay_dump(&dump, ConformanceConfig::default()).expect("dump parses");
        assert!(
            violations.is_empty(),
            "live run recorded no during-run violations, replay must agree: {violations:?}"
        );
    }

    #[test]
    fn skipped_crossreg_dump_replays_the_violation() {
        // A run that breaks an invariant mid-flight must reproduce the
        // same violation when its dump is replayed offline.
        let scenario = Scenario::baseline(0).with_fault(FaultPlan::skip_cross_reg());
        let (outcome, recorder, _) = run_scenario_recorded(
            &stencil_workload(),
            &scenario,
            ConformanceConfig::default(),
            None,
        );
        let live = match outcome {
            Outcome::Violations(vs) => vs,
            other => panic!("expected violations, got {other:?}"),
        };
        assert!(live.iter().any(|v| v.invariant == "mkey2-before-crossreg"));
        let replayed =
            replay_dump(&recorder.dump(), ConformanceConfig::default()).expect("dump parses");
        assert!(
            replayed
                .iter()
                .any(|v| v.invariant == "mkey2-before-crossreg"),
            "replay lost the live violation: {replayed:?}"
        );
        assert_eq!(
            live.iter()
                .filter(|v| v.invariant == "mkey2-before-crossreg")
                .count(),
            replayed
                .iter()
                .filter(|v| v.invariant == "mkey2-before-crossreg")
                .count(),
            "replay must reproduce the violation the same number of times"
        );
    }

    #[test]
    fn fault_soak_stencil_delivers_every_payload() {
        // Seeds x plans x proxy counts, with real byte movement and
        // per-round payload verification: a dropped, duplicated,
        // delayed or crash-replayed transfer must still land exactly
        // the bytes its sender wrote, and the conformance checker must
        // see every request resolve exactly once.
        let workload = verified_stencil_workload();
        let cfg = ConformanceConfig::default();
        for plan in soak_plans() {
            for seed in 0..4u64 {
                for proxies in [1usize, 2, 4] {
                    let scenario = Scenario::baseline(seed)
                        .with_proxies(proxies)
                        .with_fault(plan.with_seed(seed * 97 + proxies as u64));
                    let (outcome, dump) =
                        run_scenario_with_dump("fault-soak-stencil", &workload, &scenario, cfg);
                    assert!(
                        outcome.is_ok(),
                        "plan {plan:?} seed {seed} proxies {proxies}: {outcome:?} (dump: {dump:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_soak_alltoall_survives_the_combined_plan() {
        // The group path (metadata install, exec doorbells, barrier
        // counters, group FINs) under the combined lossy plan.
        let workload = alltoall_workload();
        let cfg = ConformanceConfig::default();
        let plan = soak_plans().pop().expect("combined plan");
        for seed in 0..4u64 {
            let scenario = Scenario::baseline(seed).with_fault(plan.with_seed(seed + 1));
            let (outcome, dump) =
                run_scenario_with_dump("fault-soak-alltoall", &workload, &scenario, cfg);
            assert!(
                outcome.is_ok(),
                "plan {plan:?} seed {seed}: {outcome:?} (dump: {dump:?})"
            );
        }
    }

    #[test]
    fn clean_runs_never_touch_the_reliability_machinery() {
        // With FaultPlan::none() the reliable layer must be fully
        // dormant: no retransmissions, no duplicates, no fallbacks, no
        // restarts — byte-identical ctrl traffic to the seed engine.
        let metrics = Metrics::new();
        let mut run = workloads::CheckRun::baseline(5);
        run.sink = Some(metrics.sink());
        workloads::drive_stencil(&run, 1024, 2).expect("clean run");
        let report = metrics.report();
        assert_eq!(report.ctrl_retransmits, 0);
        assert_eq!(report.ctrl_dups_dropped, 0);
        assert_eq!(report.ctrl_abandoned, 0);
        assert_eq!(report.fallback_staging, 0);
        assert_eq!(report.proxy_restarts, 0);
        assert_eq!(report.reqs_replayed, 0);
        assert_eq!(report.req_failures, 0);
        assert_eq!(report.stale_cqes, 0);
        // The integrity/backpressure/deadline machinery must be equally
        // dormant: no CRC traffic, no nacks, no credit accounting, no
        // reclaim, no cancellations, no journal activity.
        assert_eq!(report.payload_corrupt, 0);
        assert_eq!(report.payload_recovered, 0);
        assert_eq!(report.data_integrity_failures, 0);
        assert_eq!(report.queue_full_nacks, 0);
        assert_eq!(report.credit_deferrals, 0);
        assert_eq!(report.quota_sheds, 0);
        assert_eq!(report.drr_grants, 0);
        assert!(
            report.tenants.is_empty(),
            "no tenants section single-tenant"
        );
        assert_eq!(report.staging_reclaimed, 0);
        assert_eq!(report.reqs_cancelled, 0);
        assert_eq!(report.reqs_reaped, 0);
        assert_eq!(report.group_failures, 0);
        assert_eq!(report.journal_truncations, 0);
        assert_eq!(report.journal_hwm, 0);
        // The fabric health engine (disabled by default) must be fully
        // dormant: no breaker transitions, no probes, no budget sheds.
        assert!(
            !report.health.any(),
            "a clean run must leave every health counter at zero: {:?}",
            report.health
        );
    }

    #[test]
    fn armed_health_engine_is_silent_without_faults() {
        // Arming HealthConfig on a fault-free run must change nothing:
        // breakers only transition on failures, budgets only spend on
        // retries, so every health counter stays zero and the run is
        // conformant — the gating proof that clean armed runs remain
        // counter-identical to unarmed ones.
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(5);
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run.cfg.clone().with_health(offload::HealthConfig::armed());
        workloads::drive_stencil(&run, 1024, 2).expect("clean armed run");
        assert!(checker.finish().is_empty());
        let report = metrics.report();
        assert!(
            !report.health.any(),
            "an armed engine on a clean link must stay silent: {:?}",
            report.health
        );
        assert_eq!(report.fallback_staging, 0);
        assert_eq!(report.req_failures, 0);
    }

    #[test]
    fn open_breaker_stops_per_message_fallback_round_trips() {
        // The tentpole acceptance gate: under sustained cross-GVMI
        // registration failure the armed breaker must trip and reroute
        // open-state posts straight to staging (BreakerFastPath, no
        // registration attempt), so per-message FallbackToStaging
        // round-trips collapse to the probe cadence — bounded by one
        // per probe plus the pre-trip sliding window — instead of one
        // per failed registration, which over BREAKER_RECOVERY_ROUNDS
        // fresh-buffer posts at BREAKER_XREG_PM would dwarf the bound.
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(37);
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run
            .cfg
            .clone()
            .with_fault(FaultPlan {
                xreg_fail_pm: BREAKER_XREG_PM,
                seed: 11,
                ..FaultPlan::none()
            })
            .with_health(offload::HealthConfig::armed());
        workloads::drive_breaker_recovery(&run, 1024, BREAKER_RECOVERY_ROUNDS)
            .expect("degraded-mode run completes");
        assert!(
            checker.finish().is_empty(),
            "degraded mode must stay conformant"
        );
        let report = metrics.report();
        let h = report.health;
        assert!(h.breaker_trips > 0, "sustained failure must trip: {h:?}");
        assert!(
            h.breaker_fastpaths > 0,
            "open-state posts must reroute without registration: {h:?}"
        );
        assert_eq!(
            h.breaker_probes, h.breaker_half_opens,
            "every half-open admits exactly one probe"
        );
        let window = offload::HealthConfig::WINDOW as u64;
        assert!(
            report.fallback_staging <= h.breaker_probes + window,
            "fallback round-trips ({}) must collapse to the probe cadence \
             ({} probes + {window} pre-trip window)",
            report.fallback_staging,
            h.breaker_probes
        );
        assert_eq!(report.req_failures, 0, "degradation loses no requests");
        assert_eq!(
            h.retry_budget_sheds, 0,
            "registration faults spend no budget"
        );
    }

    #[test]
    fn tripped_breaker_recovers_and_closes() {
        // The recovery half of the state machine: with a probabilistic
        // registration fault, the open breaker's cooldown burns down on
        // rerouted posts, a half-open probe eventually rolls a success,
        // and the breaker closes — with zero residual typed failures.
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(53);
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run
            .cfg
            .clone()
            .with_fault(FaultPlan {
                xreg_fail_pm: 500,
                seed: 17,
                ..FaultPlan::none()
            })
            .with_health(offload::HealthConfig::armed());
        workloads::drive_breaker_recovery(&run, 1024, 64).expect("recovery run completes");
        assert!(checker.finish().is_empty());
        let report = metrics.report();
        let h = report.health;
        assert!(h.breaker_trips > 0, "the breaker must trip first: {h:?}");
        assert!(
            h.breaker_closes > 0,
            "a successful probe must close the breaker: {h:?}"
        );
        assert_eq!(
            report.req_failures, 0,
            "recovery leaves no residual failures"
        );
        assert_eq!(
            h.retry_budget_sheds, 0,
            "no budget spends on registration faults"
        );
    }

    #[test]
    fn brownout_sheds_typed_and_surfaces_exactly_once() {
        // A total data-plane brownout with the health engine armed: the
        // per-peer retry budget (smaller than `OffloadConfig::DATA_RETX_MAX`) runs dry
        // first, both ends surface a typed RetryBudgetExhausted (the
        // driver asserts the variant), every shed pairs with a
        // ReqFailed (invariant 18), and the retransmission budget never
        // gets to exhaust — the shed preempts the grind.
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(43);
        run.move_bytes = true;
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run
            .cfg
            .clone()
            .with_fault(FaultPlan {
                data_drop_pm: 1000,
                seed: 13,
                ..FaultPlan::none()
            })
            .with_health(offload::HealthConfig::armed());
        workloads::drive_brownout(&run, 4096).expect("brownout run sheds cleanly");
        let vs = checker.finish();
        assert!(
            vs.is_empty(),
            "every budget shed must surface as a typed ReqFailed: {vs:?}"
        );
        let report = metrics.report();
        let h = report.health;
        assert!(
            h.retry_budget_sheds >= 2,
            "both ends of the doomed pair must shed: {h:?}"
        );
        assert_eq!(
            report.data_integrity_failures, 0,
            "the budget sheds before the retx budget runs dry"
        );
        assert_eq!(
            report.req_failures, 2,
            "exactly the matched pair fails, nothing else"
        );
    }

    #[test]
    fn fault_soak_with_armed_health_stays_lossless() {
        // The regression half of the health story: arming breakers and
        // budgets under the classic lossy/crashy soak plans — whose
        // failure rates sit far below the budget thresholds — must not
        // convert any previously-recovered run into a shed or a breaker
        // detour that loses data. Every payload still lands intact.
        let workload = verified_stencil_workload();
        let cfg = ConformanceConfig::default();
        for plan in soak_plans() {
            for seed in 0..2u64 {
                let scenario = Scenario::baseline(seed)
                    .with_proxies(1 + (seed as usize % 2))
                    .with_overlay(Overlay::Health)
                    .with_fault(plan.with_seed(seed * 61 + 7));
                let (outcome, dump) =
                    run_scenario_with_dump("armed-health-soak", &workload, &scenario, cfg);
                assert!(
                    outcome.is_ok(),
                    "plan {plan:?} seed {seed}: {outcome:?} (dump: {dump:?})"
                );
            }
        }
    }

    #[test]
    fn all_armed_interaction_is_conformant_and_lossless() {
        // Tenants x credits x bounded pools x breakers x ctrl and payload
        // faults x proxy crash, in one run: every payload lands intact,
        // queue depths stay within the cap, every invariant holds.
        let workload = all_armed_workload();
        let cfg = ConformanceConfig {
            queue_cap: ALL_ARMED_QUEUE_CAP,
            ..ConformanceConfig::default()
        };
        let scenarios = || {
            (0..3u64).flat_map(|seed| {
                [1usize, 2].map(|proxies| {
                    Scenario::baseline(seed)
                        .with_proxies(proxies)
                        .with_fault(ALL_ARMED_PLAN.with_seed(seed * 89 + proxies as u64))
                })
            })
        };
        for scenario in scenarios() {
            let (outcome, dump) = run_scenario_with_dump("all-armed", &workload, &scenario, cfg);
            assert!(
                outcome.is_ok(),
                "{scenario:?}: {outcome:?} (dump: {dump:?})"
            );
        }
        // The same runs, counted: each armed branch actually fired.
        let metrics = Metrics::new();
        for scenario in scenarios() {
            workload(&scenario, metrics.sink()).expect("all-armed run");
        }
        let report = metrics.report();
        let fired = [
            ("credit deferrals", report.credit_deferrals),
            ("queue-full nacks", report.queue_full_nacks),
            ("drr grants", report.drr_grants),
            ("staging fallbacks", report.fallback_staging),
            ("staging reclaims", report.staging_reclaimed),
            ("breaker trips", report.health.breaker_trips),
            ("journal truncations", report.journal_truncations),
            ("ctrl retransmits", report.ctrl_retransmits),
            ("proxy restarts", report.proxy_restarts),
            ("payloads healed", report.payload_recovered),
        ];
        for (what, n) in fired {
            assert!(n > 0, "no {what} across the all-armed runs: {report:?}");
        }
        assert_eq!(report.req_failures, 0, "the armed policies lose nothing");
    }

    #[test]
    fn health_invariants_catch_synthesized_violations() {
        // The checker side of the health tentpole, against a
        // hand-synthesized stream: each of the new invariants must fire
        // on its canonical violation and stay quiet on the legal
        // sequences in between.
        use offload::{HealthPath, ProtoEvent};
        use simnet::{Emitted, Pid, SimTime};
        let checker = Conformance::new(ConformanceConfig::default());
        let path = HealthPath::CrossGvmi;
        let fb = |msg_id: u64| ProtoEvent::FallbackToStaging {
            src_rank: 1,
            dst_rank: 0,
            tag: 0,
            msg_id,
        };
        let events = [
            // Fast-path citing a breaker that is not open.
            ProtoEvent::BreakerFastPath {
                peer: 1,
                path,
                msg_id: 1,
            },
            // Probe without a half-open transition.
            ProtoEvent::BreakerProbe {
                peer: 1,
                path,
                msg_id: 2,
            },
            // Trip: the tripping post's own fallback is exempt (grace),
            // the next one over the still-open breaker is the violation.
            ProtoEvent::BreakerTripped { peer: 1, path },
            fb(3), // grace: legal
            fb(4), // post-over-open-breaker
            // Legal fast-path while open, then half-open admitting two
            // probes.
            ProtoEvent::BreakerFastPath {
                peer: 1,
                path,
                msg_id: 5,
            },
            ProtoEvent::BreakerHalfOpen { peer: 1, path },
            ProtoEvent::BreakerProbe {
                peer: 1,
                path,
                msg_id: 6,
            },
            ProtoEvent::BreakerProbe {
                peer: 1,
                path,
                msg_id: 7,
            },
            // A budget shed that never surfaces as a ReqFailed.
            ProtoEvent::RetryBudgetExhausted {
                rank: 0,
                msg_id: 8,
                path: HealthPath::Ctrl,
            },
        ];
        let batch: Vec<Emitted<'_>> = events
            .iter()
            .map(|ev| Emitted {
                at: SimTime::ZERO,
                pid: Pid::from_index(0),
                event: ev,
            })
            .collect();
        checker.sink()(&batch);
        let vs = checker.finish();
        let count = |name: &str| vs.iter().filter(|v| v.invariant == name).count();
        assert_eq!(count("fastpath-without-open-breaker"), 1, "{vs:?}");
        assert_eq!(count("probe-without-half-open"), 1, "{vs:?}");
        assert_eq!(count("post-over-open-breaker"), 1, "{vs:?}");
        assert_eq!(count("half-open-multi-probe"), 1, "{vs:?}");
        assert_eq!(count("budget-shed-unsurfaced"), 1, "{vs:?}");
    }

    #[test]
    fn lossy_runs_record_retransmissions_and_crashes_record_restarts() {
        let run_with = |crash_at_step| {
            let metrics = Metrics::new();
            let checker = Conformance::new(ConformanceConfig::default());
            let mut run = workloads::CheckRun::baseline(9);
            run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
            run.cfg = run.cfg.clone().with_fault(FaultPlan {
                drop_pm: 150,
                crash_at_step,
                seed: 3,
                ..FaultPlan::none()
            });
            workloads::drive_stencil(&run, 1024, 2).expect("recovered run");
            assert!(
                checker.finish().is_empty(),
                "recovery must not break invariants"
            );
            metrics.report()
        };
        let report = run_with(12);
        assert!(
            report.ctrl_retransmits > 0,
            "a 15% drop rate must force retransmissions"
        );
        assert!(
            report.proxy_restarts > 0,
            "crash_at_step must restart at least one proxy"
        );
        assert!(
            report.reqs_replayed > 0,
            "hosts must replay in-flight work into the restarted proxy"
        );
        // Only the planned crash restarts a proxy: loss alone never does.
        let report = run_with(0);
        assert!(report.ctrl_retransmits > 0);
        assert_eq!(report.proxy_restarts, 0, "no crash planned, no restart");
    }

    #[test]
    fn xreg_failure_falls_back_to_staging_and_completes() {
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(21);
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run.cfg.clone().with_fault(FaultPlan {
            xreg_fail_pm: 400,
            seed: 7,
            ..FaultPlan::none()
        });
        workloads::drive_stencil(&run, 1024, 2).expect("fallback run");
        assert!(checker.finish().is_empty(), "fallback is not a violation");
        let report = metrics.report();
        assert!(
            report.fallback_staging > 0,
            "a 40% registration-failure rate must trigger the staging fallback"
        );
        assert_eq!(report.ctrl_retransmits, 0, "fallback alone arms no retx");
    }

    #[test]
    fn payload_faults_recover_byte_correct() {
        // Corrupted, torn or silently dropped payloads must be caught by
        // the end-to-end CRC at FIN time and healed by bounded data-path
        // retransmission: every run completes with the receiver-side
        // byte verification of drive_verified_stencil passing and every
        // conformance invariant (including fin-after-corrupt) intact.
        let workload = verified_stencil_workload();
        let cfg = ConformanceConfig::default();
        for plan in payload_plans(false) {
            for seed in 0..3u64 {
                for proxies in [1usize, 2] {
                    let scenario = Scenario::baseline(seed)
                        .with_proxies(proxies)
                        .with_fault(plan.with_seed(seed * 131 + proxies as u64));
                    let (outcome, dump) =
                        run_scenario_with_dump("payload-soak", &workload, &scenario, cfg);
                    assert!(
                        outcome.is_ok(),
                        "plan {plan:?} seed {seed} proxies {proxies}: {outcome:?} (dump: {dump:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn payload_faults_are_detected_and_healed_with_bounded_retx() {
        // A high flip rate must actually exercise the machinery: corrupt
        // detections, successful recoveries, zero budget exhaustions —
        // and the observability counters must record all of it.
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = workloads::CheckRun::baseline(33);
        run.move_bytes = true;
        run.sink = Some(workloads::fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run.cfg.clone().with_fault(FaultPlan {
            flip_pm: 250,
            seed: 5,
            ..FaultPlan::none()
        });
        workloads::drive_verified_stencil(&run, 2048, 3).expect("healed run");
        assert!(
            checker.finish().is_empty(),
            "integrity recovery must not break invariants"
        );
        let report = metrics.report();
        assert!(
            report.payload_corrupt > 0,
            "a 25% flip rate must corrupt at least one payload"
        );
        assert!(
            report.payload_recovered > 0,
            "corrupt payloads must be healed by retransmission"
        );
        assert_eq!(
            report.data_integrity_failures, 0,
            "the retransmission budget is ample for a 25% flip rate"
        );
    }

    #[test]
    fn credit_starvation_completes_without_unbounded_queues() {
        // A burst far past the admission cap must finish through credit
        // deferral and QueueFull nack-retry, with proxy queue depths
        // bounded by the cap the whole way (invariant 12).
        let workload = starved_flood_workload();
        let cfg = ConformanceConfig {
            queue_cap: STARVED_QUEUE_CAP,
            ..ConformanceConfig::default()
        };
        for seed in 0..3u64 {
            for proxies in [1usize, 2] {
                let scenario = Scenario::baseline(seed).with_proxies(proxies);
                let (outcome, dump) =
                    run_scenario_with_dump("credit-starved", &workload, &scenario, cfg);
                assert!(
                    outcome.is_ok(),
                    "seed {seed} proxies {proxies}: {outcome:?} (dump: {dump:?})"
                );
            }
        }
    }

    #[test]
    fn credit_starvation_exercises_deferral_and_reclaim() {
        let metrics = Metrics::new();
        let mut run = workloads::CheckRun::baseline(41);
        run.sink = Some(metrics.sink());
        run.cfg = run
            .cfg
            .clone()
            .with_queue_cap(STARVED_QUEUE_CAP)
            .with_staging_cap(4)
            .with_journal_cap(8);
        workloads::drive_flood(&run, 1024, FLOOD_BURST).expect("starved run completes");
        let report = metrics.report();
        assert!(
            report.credit_deferrals > 0,
            "a {FLOOD_BURST}-deep burst against a {STARVED_QUEUE_CAP}-credit window must defer"
        );
        assert!(
            report.journal_truncations > 0,
            "an 8-entry journal cap must truncate under {FLOOD_BURST} transfers per rank"
        );
        assert!(
            report.journal_hwm < 2 * (report.fin_send + report.fin_recv),
            "journal high-water mark must stay far below total FIN volume"
        );
    }

    #[test]
    fn doomed_group_surfaces_typed_error_not_a_stall() {
        // Satellite of the CtrlAbandoned fix: when every GroupPacket
        // transmit is dropped, Group_Wait must return
        // OffloadError::GroupFailed (the driver asserts the variant) and
        // the abandonment must surface as a GroupFailed event — the
        // run classifies Ok, not TimeLimit/Deadlock.
        let workload = doomed_group_workload();
        let plan = FaultPlan {
            drop_group_packets: true,
            ..FaultPlan::none()
        };
        for seed in 0..3u64 {
            let scenario = Scenario::baseline(seed).with_fault(plan.with_seed(seed));
            let (outcome, dump) = run_scenario_with_dump(
                "doomed-group",
                &workload,
                &scenario,
                ConformanceConfig::default(),
            );
            assert!(outcome.is_ok(), "seed {seed}: {outcome:?} (dump: {dump:?})");
        }
        // Counter plumbing for the same run shape.
        let metrics = Metrics::new();
        let mut run = workloads::CheckRun::baseline(2);
        run.sink = Some(metrics.sink());
        run.cfg = run.cfg.clone().with_fault(plan.with_seed(9));
        workloads::drive_group_abandon(&run, 1024).expect("typed failure, clean exit");
        let report = metrics.report();
        assert!(report.ctrl_abandoned > 0, "group packets must be abandoned");
        assert!(
            report.group_failures > 0,
            "abandonment must surface as GroupFailed"
        );
    }

    #[test]
    fn unsurfaced_group_abandonment_is_a_violation() {
        // The checker side of the same satellite: a synthesized stream
        // where a host abandons a GroupPacket and no GroupFailed ever
        // follows must trip group-abandon-unsurfaced at end of run.
        use offload::CtrlKind;
        use simnet::{Emitted, Pid, SimTime};
        let checker = Conformance::new(ConformanceConfig::default());
        checker.sink()(&[Emitted {
            at: SimTime::ZERO,
            pid: Pid::from_index(0),
            event: &offload::ProtoEvent::CtrlAbandoned {
                at_proxy: false,
                kind: CtrlKind::GroupPacket,
                msg_id: 0,
            },
        }]);
        let violations = checker.finish();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "group-abandon-unsurfaced"),
            "expected group-abandon-unsurfaced, got {violations:?}"
        );
    }

    #[test]
    fn deadlines_and_cancellation_surface_typed_errors() {
        // Orphan transfers expire or cancel with typed errors (asserted
        // inside drive_deadline); the proxy reaps their descriptors and
        // the matched exchange on the same ranks is untouched.
        let workload = deadline_workload();
        for seed in 0..3u64 {
            let scenario = Scenario::baseline(seed);
            let (outcome, dump) = run_scenario_with_dump(
                "deadline-cancel",
                &workload,
                &scenario,
                ConformanceConfig::default(),
            );
            assert!(outcome.is_ok(), "seed {seed}: {outcome:?} (dump: {dump:?})");
        }
        let metrics = Metrics::new();
        let mut run = workloads::CheckRun::baseline(3);
        run.sink = Some(metrics.sink());
        workloads::drive_deadline(&run, 1024).expect("deadline run completes");
        let report = metrics.report();
        assert_eq!(
            report.reqs_cancelled, 2,
            "one deadline expiry plus one explicit cancel"
        );
        assert!(
            report.reqs_reaped >= 1,
            "the proxy must reap at least one orphaned descriptor"
        );
    }

    #[test]
    fn noisy_neighbor_keeps_victim_p99_within_bound() {
        // The tenant-isolation acceptance gate: at 2 and 4 proxies per
        // DPU, a flooding tenant must not inflate the victim tenant's
        // p99 group-window latency beyond the committed bound factor of
        // its solo-run p99 — measured from the per-tenant lifecycle
        // histograms, with every conformance invariant intact in both
        // runs.
        for proxies in [2usize, 4] {
            let scenario = Scenario::baseline(1).with_proxies(proxies);
            let (solo_p99, solo) = noisy_victim_p99(&scenario, 0);
            assert!(solo.is_ok(), "proxies {proxies} solo: {solo:?}");
            assert!(solo_p99 > 0, "solo run must close victim windows");
            let (noisy_p99, noisy) = noisy_victim_p99(&scenario, NOISY_FLOOD_BURST);
            assert!(noisy.is_ok(), "proxies {proxies} noisy: {noisy:?}");
            assert!(noisy_p99 > 0, "noisy run must close victim windows");
            assert!(
                noisy_p99 <= NOISY_P99_BOUND_FACTOR * solo_p99,
                "proxies {proxies}: noisy victim p99 {noisy_p99}ps breaches \
                 {NOISY_P99_BOUND_FACTOR}x solo p99 {solo_p99}ps"
            );
        }
    }

    #[test]
    fn noisy_neighbor_arms_the_per_tenant_machinery() {
        // The flood must actually hit the per-tenant admission path —
        // deferrals and DRR grants — and the folded report must carry a
        // per-tenant section attributing the aggressor's deferrals to
        // tenant 1, not the victim.
        use offload::TenantSpec;
        let cfg = offload::OffloadConfig::proposed()
            .with_queue_cap(NOISY_QUEUE_CAP)
            .with_tenants(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
        let metrics = Metrics::new();
        metrics.set_tenant_map((0..4).map(|r| (r, cfg.tenant_of(r))).collect());
        let mut run = workloads::CheckRun::baseline(23);
        run.sink = Some(metrics.sink());
        run.cfg = cfg;
        workloads::drive_noisy_neighbor(&run, 4096, 3, 1024, NOISY_FLOOD_BURST)
            .expect("noisy run completes");
        let report = metrics.report();
        assert!(report.credit_deferrals > 0, "the burst must defer");
        assert!(report.drr_grants > 0, "deferred posts must drain via DRR");
        assert_eq!(report.quota_sheds, 0, "no hard quota is armed");
        assert_eq!(report.tenants.len(), 2, "two tenant rows");
        let aggressor = &report.tenants[1];
        assert!(
            aggressor.credit_deferrals > 0,
            "deferrals attribute to the flooding tenant"
        );
        assert_eq!(
            report.tenants[0].credit_deferrals, 0,
            "the victim's window traffic never defers"
        );
    }

    #[test]
    fn quota_exceeded_sheds_then_retries_to_success() {
        // Satellite of the tenant tentpole: the hard-quota boundary is
        // exact (drive_quota_retry admits exactly `hard` posts, sheds
        // the next), the shed surfaces as a typed QuotaExceeded, and
        // the retry completes — on a clean link and under a lossy plan
        // whose retransmissions must not double-count quota slots.
        let workload = quota_retry_workload();
        let lossy = FaultPlan {
            drop_pm: 100,
            ..FaultPlan::none()
        };
        for (what, fault) in [("clean", FaultPlan::none()), ("lossy", lossy)] {
            for seed in 0..3u64 {
                let scenario = Scenario::baseline(seed).with_fault(fault.with_seed(seed + 5));
                let (outcome, dump) = run_scenario_with_dump(
                    "quota-retry",
                    &workload,
                    &scenario,
                    ConformanceConfig::default(),
                );
                assert!(
                    outcome.is_ok(),
                    "{what} seed {seed}: {outcome:?} (dump: {dump:?})"
                );
            }
        }
        // Counter plumbing for the same shape: exactly one shed on the
        // sender, attributed to tenant 1, surfaced nowhere else.
        use offload::TenantSpec;
        let cfg = offload::OffloadConfig::proposed().with_tenants(vec![
            TenantSpec::inherit(),
            TenantSpec::inherit().with_hard_quota(QUOTA_RETRY_HARD),
        ]);
        let metrics = Metrics::new();
        metrics.set_tenant_map((0..4).map(|r| (r, cfg.tenant_of(r))).collect());
        let mut run = workloads::CheckRun::baseline(29);
        run.sink = Some(metrics.sink());
        run.cfg = cfg;
        workloads::drive_quota_retry(&run, 1024).expect("shed-then-retry run");
        let report = metrics.report();
        assert_eq!(report.quota_sheds, 1, "exactly one over-quota post");
        assert_eq!(report.req_failures, 1, "the shed is the only failure");
        assert_eq!(report.tenants[1].quota_sheds, 1, "shed lands on tenant 1");
        assert_eq!(report.tenants[0].quota_sheds, 0, "tenant 0 never sheds");
    }

    #[test]
    fn zero_quota_specs_inherit_the_global_cap() {
        // A roster of all-inherit specs must take its soft quota from
        // the global cap (quota 0 = inherit) and shed nothing (hard
        // quota 0 = never shed): the starved flood still completes
        // through deferral, exactly like the single-tenant engine.
        use offload::TenantSpec;
        let drive = |tenants: Vec<TenantSpec>| {
            let metrics = Metrics::new();
            let mut run = workloads::CheckRun::baseline(31);
            run.sink = Some(metrics.sink());
            run.cfg = run
                .cfg
                .clone()
                .with_queue_cap(STARVED_QUEUE_CAP)
                .with_tenants(tenants);
            workloads::drive_flood(&run, 1024, FLOOD_BURST).expect("flood completes");
            metrics.report()
        };
        let single = drive(vec![]);
        let inherit = drive(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
        assert_eq!(single.quota_sheds, 0);
        assert_eq!(inherit.quota_sheds, 0, "inherit specs never shed");
        assert!(
            inherit.credit_deferrals > 0,
            "the inherited global cap still defers the burst"
        );
        assert_eq!(single.req_failures, 0);
        assert_eq!(inherit.req_failures, 0);
    }

    #[test]
    fn skipped_crossreg_is_caught_and_shrunk() {
        let workload = stencil_workload();
        let cfg = ConformanceConfig::default();
        let failures = explore(&workload, sweep(17..21, FaultPlan::skip_cross_reg()), cfg);
        assert_eq!(failures.len(), 4, "every faulty scenario must fail");
        let (first, _) = failures[0].clone();
        let (min, outcome) = shrink(&workload, first, cfg);
        assert_eq!(min.seed, 0, "fault fires on every seed, so 0 is minimal");
        assert_eq!(min.jitter_ns, 0);
        assert_eq!(min.proxies_per_dpu, 1);
        match outcome {
            Outcome::Violations(vs) => {
                assert!(
                    vs.iter().any(|v| v.invariant == "mkey2-before-crossreg"),
                    "expected mkey2-before-crossreg, got {vs:?}"
                );
            }
            other => panic!("expected violations, got {other:?}"),
        }
    }
}
