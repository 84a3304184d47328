//! 3-D stencil halo exchange with offloaded point-to-point (the paper's
//! §VIII-A benchmark), comparing IntelMPI against the proposed framework
//! on a small cluster.
//!
//! ```bash
//! cargo run --release --example stencil_overlap
//! ```

use bluefield_offload::apps::{stencil3d, Runtime};

fn main() {
    let (nodes, ppn, grid) = (4, 8, 256u64);
    println!("3DStencil: {grid}^3 grid on {nodes} nodes x {ppn} ppn\n");
    for rt in [Runtime::Intel, Runtime::proposed()] {
        let label = rt.label();
        let r = stencil3d(nodes, ppn, grid, 3, 1, rt);
        println!(
            "{label:>9}: pure comm {:>8.1}us | compute {:>8.1}us | overall {:>8.1}us | overlap {:>5.1}%",
            r.pure_us,
            r.compute_us,
            r.overall_us,
            r.overlap_pct()
        );
    }
    println!("\nThe proposed runtime offloads inter-node halos to the DPU proxies;");
    println!("intra-node faces stay on host MPI, which is why overlap tops out");
    println!("below 100% (the paper reports ~78%).");
}
