//! Ablation 5 from DESIGN.md: proxies per DPU. The paper maps host ranks
//! to workers with `host_rank % num_proxies_per_dpu`; more workers spread
//! the ARM-side protocol handling but contend for the same DPU port.

use bench_harness::{print_table, us, Args};
use rdma::ClusterSpec;
use workloads::{ialltoall_overlap_on, Runtime};

fn run(args: Args) {
    let nodes = args.nodes.unwrap_or(if args.quick { 2 } else { 8 });
    let ppn = args.pick_ppn(32, 16, 4);
    let iters = args.pick_iters(2, 1);
    let size = 64 * 1024u64;
    let mut rows = Vec::new();
    for proxies in [1usize, 2, 4, 8] {
        if proxies > ppn {
            continue;
        }
        let spec = ClusterSpec::new(nodes, ppn)
            .with_proxies(proxies)
            .without_byte_movement();
        let r = ialltoall_overlap_on(spec, size, iters, 4, Runtime::proposed());
        rows.push(vec![
            proxies.to_string(),
            us(r.pure_us),
            us(r.overall_us),
            format!("{:.1}%", r.overlap_pct()),
        ]);
    }
    print_table(
        &format!("Ablation — proxies per DPU, Ialltoall 64KiB, {nodes} nodes x {ppn} ppn"),
        &["proxies/DPU", "pure comm", "overall", "overlap"],
        &rows,
    );
    println!("\nExpectation: one proxy serializes all ranks' queue handling on one ARM\ntimeline; a few proxies recover most of the loss, after which the DPU\nport, not the cores, is the limit.");
}

fn main() {
    bench_harness::run_with_observability("ext_proxy_count", Args::parse(), run);
}
