//! Scatter-destination `MPI_Ialltoall` under all three runtimes — the
//! micro-benchmark behind paper Figs. 13–14 — on a small cluster.
//!
//! ```bash
//! cargo run --release --example alltoall_offload
//! ```

use bluefield_offload::apps::{ialltoall_overlap, Runtime};

fn main() {
    let (nodes, ppn, block) = (4, 8, 64 * 1024u64);
    println!(
        "Ialltoall overlap: {nodes} nodes x {ppn} ppn, {}KiB blocks\n",
        block >> 10
    );
    println!(
        "{:>9} {:>12} {:>12} {:>9}",
        "runtime", "pure comm", "overall", "overlap"
    );
    for rt in [Runtime::Intel, Runtime::Blues, Runtime::proposed()] {
        let label = rt.label();
        let r = ialltoall_overlap(nodes, ppn, block, 2, 4, rt);
        println!(
            "{label:>9} {:>10.1}us {:>10.1}us {:>8.1}%",
            r.pure_us,
            r.overall_us,
            r.overlap_pct()
        );
    }
    println!("\nBoth DPU offloads hide the exchange behind compute; the proposed");
    println!("GVMI path also has the lower pure latency (no staging hop), which");
    println!("is exactly the Fig. 13/14 result.");
}
