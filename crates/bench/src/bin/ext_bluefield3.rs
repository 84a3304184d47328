//! Extension study (the paper's stated future work): how the proposed
//! framework and the baselines shift on a BlueField-3 / NDR-class testbed
//! — ~2× faster DPU cores, 400 Gb/s ports, PCIe Gen5, DDR5 DPU memory.

use bench_harness::{bytes, print_table, us, Args};
use rdma::{ClusterSpec, NicModel};
use workloads::{ialltoall_overlap_on, Runtime};

fn run(args: Args) {
    let nodes = args.nodes.unwrap_or(if args.quick { 2 } else { 8 });
    let ppn = args.pick_ppn(32, 16, 2);
    let iters = args.pick_iters(2, 1);
    let sizes: Vec<u64> = if args.quick {
        vec![64 * 1024]
    } else {
        vec![16 * 1024, 64 * 1024, 256 * 1024]
    };
    let mut rows = Vec::new();
    for &size in &sizes {
        let mut cells = vec![bytes(size)];
        for model in [NicModel::bluefield2(), NicModel::bluefield3()] {
            for rt in [Runtime::Blues, Runtime::proposed()] {
                let spec = ClusterSpec::new(nodes, ppn)
                    .with_model(model.clone())
                    .without_byte_movement();
                let r = ialltoall_overlap_on(spec, size, iters, 4, rt);
                cells.push(us(r.overall_us));
            }
        }
        rows.push(cells);
    }
    print_table(
        &format!("Extension — Ialltoall overall time on BF-2 vs BF-3 class hardware, {nodes} nodes x {ppn} ppn"),
        &["msg", "BF2 Blues", "BF2 Proposed", "BF3 Blues", "BF3 Proposed"],
        &rows,
    );
    println!("\nExpectation: faster ARM cores and DPU DRAM narrow the staging penalty,\nbut the cross-GVMI path keeps its lead (it rides the host-rate path on\nboth generations). This is the experiment the paper defers to future work.");
}

fn main() {
    bench_harness::run_with_observability("ext_bluefield3", Args::parse(), run);
}
