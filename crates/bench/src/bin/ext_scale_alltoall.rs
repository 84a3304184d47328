//! Extension: dense alltoall at 1k–4k ranks, each rank a future
//! process on the engine's one loop.
//!
//! Not a paper figure — an engine-scale demonstration and the engine's
//! self-benchmark: every rank sends to every other rank each round
//! (~1M deliveries per round at 1k ranks), with one jitter RNG stream
//! per node. The artifact holds only the run's deterministic
//! observables (spec, fingerprint, virtual time, events, cross-node
//! deliveries), so `ci.sh` compares it with the committed baseline byte
//! for byte; the wall time and simulated events/sec go to stdout only.
//!
//! Scales: `--quick` 8x8 (64 ranks, the committed CI baseline),
//! default 32x32 (1024 ranks, also committed), `--full` 64x64 (4096
//! ranks). The artifact name carries the rank count outside `--quick`.

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
        "ext: alltoall scale",
        &["ranks", "nodes", "events", "virt", "xnode", "fingerprint"],
        &[vec![
            spec.ranks().to_string(),
            spec.nodes.to_string(),
            run.events.to_string(),
            bench_harness::us(run.virtual_ns as f64 / 1e3),
            run.xshard_events.to_string(),
            format!("{:#x}", run.fingerprint),
        ]],
    );
    println!(
        "wall: {} ({} simulated events/sec)",
        bench_harness::us(wall_ms * 1e3),
        bench_harness::fmt_f64(run.events as f64 / (wall_ms / 1e3).max(1e-9)),
    );

    let name = args.artifact_name("ext_scale_alltoall", Some(spec.ranks()));
    bench_harness::write_metrics_with(
        &name,
        &offload::MetricsReport::default(),
        &[
            bench_harness::scale_section(&spec, &run),
            bench_harness::engine_section(&run),
        ],
    );
}
