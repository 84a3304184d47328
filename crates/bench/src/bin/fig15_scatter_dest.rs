//! Paper Fig. 15 — Impact of the group design (single gathered packet +
//! metadata cache) versus Simple/Basic primitives (four control messages
//! per transfer) for a scatter-destination personalized exchange on 8
//! nodes.

use bench_harness::{bytes, print_table, us, Args};
use workloads::{scatter_dest_time, ScatterImpl};

fn run(args: Args) {
    let nodes = args.nodes.unwrap_or(if args.quick { 2 } else { 8 });
    let ppn = args.pick_ppn(32, 16, 2);
    let iters = args.pick_iters(2, 1);
    let sizes: Vec<u64> = if args.quick {
        vec![8 * 1024]
    } else {
        vec![4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
    };
    let mut rows = Vec::new();
    for &size in &sizes {
        let (simple_us, simple_msgs) =
            scatter_dest_time(nodes, ppn, size, iters, 1, ScatterImpl::Simple);
        let (group_us, group_msgs) =
            scatter_dest_time(nodes, ppn, size, iters, 1, ScatterImpl::Group);
        rows.push(vec![
            bytes(size),
            us(simple_us),
            us(group_us),
            format!("{:.1}%", 100.0 * (1.0 - group_us / simple_us)),
            simple_msgs.to_string(),
            group_msgs.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Fig. 15 — Scatter-destination: Simple vs Group primitives, {nodes} nodes x {ppn} ppn"
        ),
        &[
            "msg",
            "Simple",
            "Group",
            "improvement",
            "ctrl msgs (simple)",
            "ctrl msgs (group)",
        ],
        &rows,
    );
    println!("\nPaper shape: Group up to ~40% faster; the cache cuts host-DPU control\nmessages from four per transfer to a handful per collective call.");
}

fn main() {
    bench_harness::run_with_observability("fig15_scatter_dest", Args::parse(), run);
}
