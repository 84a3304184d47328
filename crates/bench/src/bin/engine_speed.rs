//! The engine self-benchmark: one fixed alltoall spec, timed.
//!
//! Wall time and simulated events/sec go into the `"engine"` section of
//! the artifact, which bench-diff holds to the wall tolerance band
//! (exact counters stay exact).
//!
//! Scales: `--quick` 64 ranks (the committed CI baseline), default
//! 1024 ranks, `--full` 4096 ranks.

use workloads::{scale_alltoall, ScaleSpec};

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
    let name = args.artifact_name("engine_speed", Some(spec.ranks()));
    bench_harness::write_metrics_with(
        &name,
        &offload::MetricsReport::default(),
        &[bench_harness::scale_section(&spec, &run), (section, keys)],
    );
}
