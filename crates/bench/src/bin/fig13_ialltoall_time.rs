//! Paper Fig. 13 — Overall time (communication + overlapped compute) for
//! `MPI_Ialltoall` with BluesMPI, Proposed and IntelMPI on 4, 8 and 16
//! nodes.

use bench_harness::{bytes, print_table, us, Args};
use workloads::{ialltoall_overlap, Runtime};

fn run(args: Args) {
    // Paper: 32 PPN. Default 16 PPN keeps the 16-node sweep to minutes.
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
            let blues = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::Blues, 41);
            let prop = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::proposed(), 41);
            let intel = ialltoall_overlap(nodes, ppn, size, iters, 4, Runtime::Intel, 41);
            rows.push(vec![
                bytes(size),
                us(blues.overall_us),
                us(prop.overall_us),
                us(intel.overall_us),
                format!("{:.1}%", 100.0 * (1.0 - prop.overall_us / blues.overall_us)),
                format!("{:.1}%", 100.0 * (1.0 - prop.overall_us / intel.overall_us)),
            ]);
        }
        print_table(
            &format!("Fig. 13 — Ialltoall overall time, {nodes} nodes x {ppn} ppn"),
            &[
                "msg", "BluesMPI", "Proposed", "IntelMPI", "vs Blues", "vs Intel",
            ],
            &rows,
        );
    }
    println!("\nPaper shape: Proposed beats BluesMPI (25-47%) and IntelMPI (35-58%),\nimproving with scale.");
}

fn main() {
    let args = Args::parse();
    bench_harness::run_with_observability("fig13_ialltoall_time", || run(args));
}
