//! Paper Fig. 17 — HPL total runtime for problem sizes occupying 5–75 %
//! of system memory, normalized to IntelMPI-HPL-1ring (lower is better).

use bench_harness::{print_table, Args};
use workloads::{hpl_runtime_us, matrix_order, HplAlgo};

fn run(args: Args) {
    let nodes = args.nodes.unwrap_or(if args.quick { 2 } else { 16 });
    let ppn = args.pick_ppn(32, 16, 4);
    let fractions: Vec<f64> = if args.quick {
        vec![0.05, 0.10]
    } else {
        vec![0.05, 0.10, 0.25, 0.50, 0.75]
    };
    let algos = [
        HplAlgo::Ring1,
        HplAlgo::IntelIbcast,
        HplAlgo::Blues,
        HplAlgo::Proposed,
    ];
    let mut rows = Vec::new();
    for &frac in &fractions {
        let n = matrix_order(nodes, frac);
        let times: Vec<f64> = algos
            .iter()
            .map(|&a| hpl_runtime_us(nodes, ppn, frac, a))
            .collect();
        let base = times[0];
        rows.push(vec![
            format!("{:.0}%", frac * 100.0),
            format!("N={n}"),
            format!("{:.3}", times[0] / base),
            format!("{:.3}", times[1] / base),
            format!("{:.3}", times[2] / base),
            format!("{:.3}", times[3] / base),
        ]);
    }
    print_table(
        &format!(
            "Fig. 17 — HPL runtime normalized to IntelMPI-HPL-1ring, {nodes} nodes x {ppn} ppn"
        ),
        &[
            "memory",
            "order",
            "1ring",
            "Intel-Ibcast",
            "BluesMPI",
            "Proposed",
        ],
        &rows,
    );
    println!("\nPaper shape: Proposed lowest everywhere (15-18% at 5-10% memory), but its\nadvantage shrinks toward ~8.5% at 50-75% (large-transfer GVMI registration\noverheads); BluesMPI tracks 1ring.");
}

fn main() {
    bench_harness::run_with_observability("fig17_hpl", Args::parse(), run);
}
