//! Extension study — `MPI_Iallgather` overlap across the three runtimes.
//! The BluesMPI authors' HiPC'21 follow-up (reference \[9\] in the paper) offloaded
//! exactly this collective with staging; the ring algorithm's dependent
//! steps make it the sharpest showcase of host-progress stalls.

use bench_harness::{bytes, pct, print_table, us, Args};
use workloads::{iallgather_overlap, Runtime};

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
        let intel = iallgather_overlap(nodes, ppn, size, iters, 4, Runtime::Intel);
        let blues = iallgather_overlap(nodes, ppn, size, iters, 4, Runtime::Blues);
        let prop = iallgather_overlap(nodes, ppn, size, iters, 4, Runtime::proposed());
        rows.push(vec![
            bytes(size),
            us(intel.overall_us),
            us(blues.overall_us),
            us(prop.overall_us),
            pct(intel.overlap_pct()),
            pct(blues.overlap_pct()),
            pct(prop.overlap_pct()),
        ]);
    }
    print_table(
        &format!("Extension — Iallgather overall time and overlap, {nodes} nodes x {ppn} ppn"),
        &[
            "msg",
            "Intel",
            "Blues",
            "Proposed",
            "Intel ovl",
            "Blues ovl",
            "Proposed ovl",
        ],
        &rows,
    );
    println!("\nThe ring's dependent steps need CPU intervention under host MPI; both\noffloads progress them on the DPU, and the GVMI path avoids the staging\nhops' DPU-DRAM bound.");
}

fn main() {
    bench_harness::run_with_observability("ext_allgather", Args::parse(), run);
}
