//! Paper Fig. 16 — P3DFFT application runtime, normalized to IntelMPI
//! (lower is better), plus the single forward-phase profile (16c) showing
//! where BluesMPI's unwarmed cold start hurts.

use bench_harness::{print_table, us, Args};
use workloads::{p3dfft, Runtime};

fn run_set(nodes: usize, ppn: usize, xy: u64, zs: &[u64], iters: u32, tag: &str) {
    let mut rows = Vec::new();
    let mut profile_rows = Vec::new();
    for &z in zs {
        let intel = p3dfft(nodes, ppn, (xy, xy, z), iters, Runtime::Intel);
        let blues = p3dfft(nodes, ppn, (xy, xy, z), iters, Runtime::Blues);
        let prop = p3dfft(nodes, ppn, (xy, xy, z), iters, Runtime::proposed());
        rows.push(vec![
            format!("{xy}x{xy}x{z}"),
            format!("{:.3}", 1.0),
            format!("{:.3}", blues.total_us / intel.total_us),
            format!("{:.3}", prop.total_us / intel.total_us),
        ]);
        profile_rows.push(vec![
            format!("{xy}x{xy}x{z}"),
            us(intel.phase_compute_us),
            us(intel.phase_mpi_us),
            us(blues.phase_mpi_us),
            us(prop.phase_mpi_us),
        ]);
    }
    print_table(
        &format!("Fig. 16{tag} — P3DFFT runtime normalized to IntelMPI, {nodes} nodes x {ppn} ppn"),
        &["grid", "IntelMPI", "BluesMPI", "Proposed"],
        &rows,
    );
    print_table(
        &format!("Fig. 16c-style profile (first forward phase), {nodes} nodes x {ppn} ppn"),
        &[
            "grid",
            "compute",
            "Intel MPI time",
            "Blues MPI time",
            "Proposed MPI time",
        ],
        &profile_rows,
    );
}

fn run(args: Args) {
    let iters = args.pick_iters(1, 1);
    if args.quick {
        run_set(
            2,
            args.pick_ppn(32, 16, 2),
            64,
            &[128, 256],
            iters,
            "(quick)",
        );
        return;
    }
    let ppn = args.pick_ppn(32, 16, 2);
    // Fig. 16a: 8 nodes, X=Y=256, Z in 512..2048.
    run_set(8, ppn, 256, &[512, 1024, 2048], iters, "a");
    // Fig. 16b: 16 nodes, X=Y=512, Z in 1024..4096 (the largest grid is
    // hours of simulated alltoall traffic; default trims it to keep the
    // sweep in minutes — pass --full for the paper's full set).
    let z16: &[u64] = if args.full {
        &[1024, 2048, 4096]
    } else {
        &[1024, 2048]
    };
    run_set(16, ppn, 512, z16, iters, "b");
    println!("\nPaper shape: Proposed fastest (up to 16-20% vs IntelMPI, 55-60% vs BluesMPI);\nBluesMPI slowest at app level because its first unwarmed iterations degrade —\nvisible as the large BluesMPI 'time in MPI' in the phase profile.");
}

fn main() {
    bench_harness::run_with_observability("fig16_p3dfft", Args::parse_except(&["--nodes"]), run);
}
