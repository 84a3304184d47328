//! Paper Fig. 4 — Communication latency of a non-blocking ping-pong
//! (concurrent two-way isend/irecv) using Host-based MPI vs the staging
//! offload design, plus the proposed GVMI path for reference.

use bench_harness::{bytes, print_table, us, Args};
use offload::OffloadConfig;
use workloads::{nonblocking_pingpong_us, Runtime};

fn run(args: Args) {
    let iters = args.pick_iters(20, 3);
    let warmup = if args.quick { 1 } else { 5 };
    let sizes: Vec<u64> = (12..=20).map(|p| 1u64 << p).collect(); // 4 KiB .. 1 MiB
    let mut rows = Vec::new();
    for &size in &sizes {
        let at = |rt| nonblocking_pingpong_us(size, iters, warmup, rt);
        let host = at(Runtime::Intel);
        let staging = at(Runtime::Proposed(OffloadConfig::staging()));
        let gvmi = at(Runtime::proposed());
        rows.push(vec![
            bytes(size),
            us(host),
            us(staging),
            us(gvmi),
            format!("{:.2}x", staging / host),
        ]);
    }
    print_table(
        "Fig. 4 — Non-blocking ping-pong latency: Host vs Staging (GVMI for reference)",
        &["size", "host", "staging", "gvmi", "staging/host"],
        &rows,
    );
    println!("\nPaper shape: staging degraded vs direct host-host transfers at every size.");
}

fn main() {
    bench_harness::run_with_observability(
        "fig04_pingpong_staging",
        Args::parse_except(&["--nodes", "--ppn"]),
        run,
    );
}
