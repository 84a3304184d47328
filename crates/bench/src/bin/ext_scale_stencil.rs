//! Extension: 3-D halo-exchange stencil at 1k–4k ranks, each rank a
//! future process on the engine's one loop.
//!
//! The low-message-density complement to `ext_scale_alltoall`: six
//! neighbour exchanges plus a compute phase per iteration, so the run
//! spends its events on many instants with little work each.
//!
//! Scales: `--quick` 8x8 (64 ranks, the committed CI baseline),
//! default 32x32 (1024 ranks), `--full` 64x64 (4096 ranks).

use workloads::{scale_stencil, ScaleSpec};

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
        iters: args.pick_iters(4, 2),
        seed: 42,
        threads: 1,
    };
    let stop = bench_harness::wall_timer();
    let run = scale_stencil(&spec);
    let wall_ms = stop();

    bench_harness::print_table(
        "ext: stencil scale",
        &["ranks", "nodes", "iters", "events", "virt", "fingerprint"],
        &[vec![
            spec.ranks().to_string(),
            spec.nodes.to_string(),
            spec.iters.to_string(),
            run.events.to_string(),
            bench_harness::us(run.virtual_ns as f64 / 1e3),
            format!("{:#x}", run.fingerprint),
        ]],
    );
    println!(
        "wall: {} ({} simulated events/sec)",
        bench_harness::us(wall_ms * 1e3),
        bench_harness::fmt_f64(run.events as f64 / (wall_ms / 1e3).max(1e-9)),
    );

    let name = args.artifact_name("ext_scale_stencil", Some(spec.ranks()));
    bench_harness::write_metrics_with(
        &name,
        &offload::MetricsReport::default(),
        &[
            bench_harness::scale_section(&spec, &run),
            bench_harness::engine_section(&run),
        ],
    );
}
