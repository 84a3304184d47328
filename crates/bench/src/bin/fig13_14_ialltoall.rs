//! Paper Figs. 13 and 14 — `MPI_Ialltoall` with BluesMPI, Proposed and
//! IntelMPI on 4, 8 and 16 nodes (or the one count `--nodes` names): the
//! overall time (communication + overlapped compute) and the overlap
//! percentage. Both tables read one sweep: Fig. 14 puts Fig. 13's
//! overall and pure-communication times through the OMB overlap formula.

use bench_harness::{bytes, pct, print_table, us, Args};
use workloads::{ialltoall_overlap, Runtime};

fn run(args: Args) {
    // Paper: 32 PPN. Default 16 PPN keeps the 16-node sweep to minutes.
    let ppn = args.pick_ppn(32, 16, 2);
    let iters = args.pick_iters(2, 1);
    let node_counts: Vec<usize> = match args.nodes {
        Some(n) => vec![n],
        None if args.quick => vec![2],
        None => vec![4, 8, 16],
    };
    let sizes: Vec<u64> = if args.quick {
        vec![16 * 1024]
    } else {
        vec![16 * 1024, 64 * 1024, 256 * 1024]
    };
    let sweep: Vec<(usize, Vec<_>)> = node_counts
        .iter()
        .map(|&nodes| {
            let points = sizes
                .iter()
                .map(|&size| {
                    let at = |rt| ialltoall_overlap(nodes, ppn, size, iters, 4, rt);
                    let blues = at(Runtime::Blues);
                    let prop = at(Runtime::proposed());
                    let intel = at(Runtime::Intel);
                    (bytes(size), blues, prop, intel)
                })
                .collect();
            (nodes, points)
        })
        .collect();

    for (nodes, points) in &sweep {
        let rows: Vec<_> = points
            .iter()
            .map(|(size, blues, prop, intel)| {
                vec![
                    size.clone(),
                    us(blues.overall_us),
                    us(prop.overall_us),
                    us(intel.overall_us),
                    format!("{:.1}%", 100.0 * (1.0 - prop.overall_us / blues.overall_us)),
                    format!("{:.1}%", 100.0 * (1.0 - prop.overall_us / intel.overall_us)),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 13 — Ialltoall overall time, {nodes} nodes x {ppn} ppn"),
            &[
                "msg", "BluesMPI", "Proposed", "IntelMPI", "vs Blues", "vs Intel",
            ],
            &rows,
        );
    }
    println!("\nPaper shape: Proposed beats BluesMPI (25-47%) and IntelMPI (35-58%),\nimproving with scale.");

    for (nodes, points) in &sweep {
        let rows: Vec<_> = points
            .iter()
            .map(|(size, blues, prop, intel)| {
                vec![
                    size.clone(),
                    pct(blues.overlap_pct()),
                    pct(prop.overlap_pct()),
                    pct(intel.overlap_pct()),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 14 — Ialltoall overlap %, {nodes} nodes x {ppn} ppn"),
            &["msg", "BluesMPI", "Proposed", "IntelMPI"],
            &rows,
        );
    }
    println!("\nPaper shape: both DPU offloads overlap near-fully; IntelMPI does not\n(host progress stalls the scatter-destination schedule during compute).");
}

fn main() {
    bench_harness::run_with_observability("fig13_14_ialltoall", Args::parse(), run);
}
