//! Paper Figs. 11 and 12 — 3DStencil, Proposed (GVMI point-to-point
//! offload) vs IntelMPI, on 16 nodes: the normalized overall time
//! (compute + halo exchange overlapped; lower is better, normalized to
//! IntelMPI) and the overlap percentage of communication and compute.
//! Both tables read one sweep: Fig. 12 puts Fig. 11's overall and
//! pure-communication times through the OMB overlap formula.

use bench_harness::{pct, print_table, us, Args};
use workloads::{stencil3d, Runtime};

fn run(args: Args) {
    let nodes = args.nodes.unwrap_or(if args.quick { 2 } else { 16 });
    let ppn = args.pick_ppn(32, 32, 4);
    let iters = args.pick_iters(3, 1);
    let grids: Vec<u64> = if args.quick {
        vec![128, 256]
    } else {
        vec![512, 1024, 2048]
    };
    let runs: Vec<_> = grids
        .iter()
        .map(|&n| {
            let intel = stencil3d(nodes, ppn, n, iters, 1, Runtime::Intel);
            let prop = stencil3d(nodes, ppn, n, iters, 1, Runtime::proposed());
            (format!("{n}^3"), intel, prop)
        })
        .collect();

    let rows: Vec<_> = runs
        .iter()
        .map(|(grid, intel, prop)| {
            vec![
                grid.clone(),
                us(intel.overall_us),
                us(prop.overall_us),
                format!("{:.3}", prop.overall_us / intel.overall_us),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 11 — 3DStencil overall time, {nodes} nodes x {ppn} ppn (normalized to IntelMPI)"
        ),
        &["grid", "IntelMPI", "Proposed", "Proposed/Intel"],
        &rows,
    );
    println!("\nPaper shape: Proposed >20% faster overall, widening at the largest grid\n(IntelMPI loses overlap once halos go rendezvous).");

    let rows: Vec<_> = runs
        .iter()
        .map(|(grid, intel, prop)| {
            vec![
                grid.clone(),
                pct(intel.overlap_pct()),
                pct(prop.overlap_pct()),
                us(intel.pure_us),
                us(prop.pure_us),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 12 — 3DStencil overlap %, {nodes} nodes x {ppn} ppn"),
        &[
            "grid",
            "IntelMPI overlap",
            "Proposed overlap",
            "Intel pure comm",
            "Proposed pure comm",
        ],
        &rows,
    );
    println!("\nPaper shape: Proposed holds roughly constant high overlap (~78%; intra-node\ntransfers are not offloaded), IntelMPI's overlap collapses at the largest grid.");
}

fn main() {
    bench_harness::run_with_observability("fig11_12_stencil", Args::parse(), run);
}
