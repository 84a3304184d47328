//! Paper Fig. 14 — Overlap percentage for `MPI_Ialltoall` with BluesMPI,
//! Proposed and IntelMPI on 4, 8 and 16 nodes.

use bench_harness::{bytes, pct, print_table, Args};
use workloads::{ialltoall_overlap, Runtime};

fn run(args: Args) {
    let ppn = args.pick_ppn(32, 16, 2);
    let iters = args.pick_iters(2, 1);
    let node_counts: Vec<usize> = if args.quick { vec![2] } else { vec![4, 8, 16] };
    let sizes: Vec<u64> = if args.quick {
        vec![16 * 1024]
    } else {
        vec![16 * 1024, 64 * 1024, 256 * 1024]
    };
    for &nodes in &node_counts {
        let mut rows = Vec::new();
        for &size in &sizes {
            let blues = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::Blues, 43);
            let prop = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::proposed(), 43);
            let intel = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::Intel, 43);
            rows.push(vec![
                bytes(size),
                pct(blues.overlap_pct()),
                pct(prop.overlap_pct()),
                pct(intel.overlap_pct()),
            ]);
        }
        print_table(
            &format!("Fig. 14 — Ialltoall overlap %, {nodes} nodes x {ppn} ppn"),
            &["msg", "BluesMPI", "Proposed", "IntelMPI"],
            &rows,
        );
    }
    println!("\nPaper shape: both DPU offloads overlap near-fully; IntelMPI does not\n(host progress stalls the scatter-destination schedule during compute).");
}

fn main() {
    let args = Args::parse();
    bench_harness::run_with_observability("fig14_ialltoall_overlap", || run(args));
}
