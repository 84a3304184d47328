//! The engine self-benchmark: one fixed alltoall spec, timed.
//!
//! Wall time and simulated events/sec go into the `"engine"` section of
//! the artifact, which bench-diff holds to the wall tolerance band
//! (exact counters stay exact). With `BENCH_PROFILE=1` the spec reruns
//! with the span profiler and the telemetry bus attached; the profiled
//! run must equal the plain one, and `BENCH_PROFILE_GATE_PCT` bounds its
//! wall-time overhead.
//!
//! Scales: `--quick` 64 ranks (the committed CI baseline), default
//! 1024 ranks, `--full` 4096 ranks.

use workloads::{scale_alltoall, scale_alltoall_with, ScaleObs, ScaleRun, ScaleSpec};

/// Interleaved best-of-N timing for the profiling-overhead gate: wall
/// noise on shared CI machines dwarfs a 5% bound on single samples
/// (the --quick spec runs for about a millisecond), so both sides are
/// measured `reps` times, alternating, and the minima compared.
const OVERHEAD_REPS: usize = 5;

/// Outputs of the `BENCH_PROFILE=1` leg.
struct ProfiledLeg {
    run: ScaleRun,
    report: offload::ProfileReport,
    snapshots: Vec<obs::TelemetrySnapshot>,
    best_plain_ms: f64,
    best_prof_ms: f64,
}

/// Re-run the spec with the full self-profiling stack attached,
/// interleaving unprofiled and profiled repetitions for the overhead
/// ratio. The profiled `ScaleRun` must equal the unprofiled one —
/// profiling is observation, never perturbation.
fn run_profiled(spec: &ScaleSpec) -> ProfiledLeg {
    let mut best_plain_ms = f64::INFINITY;
    let mut best_prof_ms = f64::INFINITY;
    let mut outputs = None;
    for _ in 0..OVERHEAD_REPS {
        offload::profile::set_enabled(false);
        let stop = bench_harness::wall_timer();
        let plain = scale_alltoall(spec);
        best_plain_ms = best_plain_ms.min(stop());

        offload::profile::set_enabled(true);
        let bus = obs::TelemetryBus::new(bench_harness::telemetry_interval_ps());
        let stop = bench_harness::wall_timer();
        let prof = scale_alltoall_with(
            spec,
            ScaleObs {
                sink: Some(bus.sink()),
            },
        );
        best_prof_ms = best_prof_ms.min(stop());
        offload::profile::set_enabled(false);
        let report = offload::profile::take_report();
        assert_eq!(
            plain, prof,
            "profiling perturbed the run — BENCH_PROFILE must be observation only"
        );
        let (_, snapshots) = bus.finish();
        outputs = Some((prof, report, snapshots));
    }
    let (run, report, snapshots) = outputs.expect("at least one overhead rep");
    ProfiledLeg {
        run,
        report,
        snapshots,
        best_plain_ms,
        best_prof_ms,
    }
}

fn main() {
    let args = bench_harness::Args::parse();
    let nodes = args.nodes.unwrap_or(if args.full {
        64
    } else if args.quick {
        8
    } else {
        32
    });
    let spec = ScaleSpec {
        nodes,
        ppn: args.pick_ppn(64, 32, 8),
        iters: args.pick_iters(1, 1),
        seed: 42,
        threads: 1,
    };

    let stop = bench_harness::wall_timer();
    let run = scale_alltoall(&spec);
    let wall_ms = stop();
    bench_harness::print_table(
        &format!("engine self-benchmark: {}-rank alltoall", spec.ranks()),
        &["events", "wall", "events/sec"],
        &[vec![
            run.events.to_string(),
            bench_harness::us(wall_ms * 1e3),
            bench_harness::fmt_f64(run.events as f64 / (wall_ms / 1e3).max(1e-9)),
        ]],
    );

    let (section, mut keys) = bench_harness::engine_section(&run, wall_ms);
    keys.insert(1, ("virtual_ns".into(), run.virtual_ns.to_string()));
    let name = bench_harness::scale_artifact_name("engine_speed", &args, spec.ranks());
    let mut sections = vec![bench_harness::scale_section(&spec, &run), (section, keys)];

    let mut gate_failure = None;
    if bench_harness::profile_enabled() {
        let leg = run_profiled(&spec);
        assert_eq!(run, leg.run, "profiled run diverged from the timed run");
        let overhead_pct =
            ((leg.best_prof_ms - leg.best_plain_ms) / leg.best_plain_ms.max(1e-9) * 100.0).max(0.0);

        let mut profile_keys = vec![
            ("snapshots".into(), leg.snapshots.len().to_string()),
            ("scopes".into(), leg.report.scopes.len().to_string()),
        ];
        if bench_harness::wall_enabled() {
            profile_keys.push((
                "baseline_wall_ms".into(),
                bench_harness::fmt_f64(leg.best_plain_ms),
            ));
            profile_keys.push((
                "profiled_wall_ms".into(),
                bench_harness::fmt_f64(leg.best_prof_ms),
            ));
            profile_keys.push(("overhead_pct".into(), bench_harness::fmt_f64(overhead_pct)));
        }
        sections.push(("profile", profile_keys));

        let doc = obs::render_profile(&obs::ProfileDoc {
            bench: &name,
            report: &leg.report,
            snapshots: &leg.snapshots,
            wall: bench_harness::wall_enabled(),
        });
        bench_harness::write_profile(&name, &doc, &leg.report.collapsed_stack());

        println!(
            "\nprofiling overhead: {} -> {} ({}%, best of {OVERHEAD_REPS})",
            bench_harness::fmt_f64(leg.best_plain_ms),
            bench_harness::fmt_f64(leg.best_prof_ms),
            bench_harness::fmt_f64(overhead_pct),
        );
        if let Some(gate) = std::env::var("BENCH_PROFILE_GATE_PCT")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
        {
            if overhead_pct > gate {
                gate_failure = Some(format!(
                    "profiling overhead {overhead_pct:.3}% exceeds the {gate}% gate"
                ));
            }
        }
    }

    bench_harness::write_metrics_with(&name, &offload::MetricsReport::default(), &sections);

    if let Some(msg) = gate_failure {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
