//! Paper Fig. 5 — The two memory registrations a DPU process needs before
//! it can move data with cross-GVMI: the host-side GVMI registration
//! (producing the mkey) and the DPU-side cross-registration (producing
//! mkey2), as a function of buffer size.

use bench_harness::{bytes, print_table, us, Args};
use rdma::{ClusterSpec, DeviceClass, Fabric};
use simnet::Simulation;
use std::sync::Arc;

#[allow(
    clippy::disallowed_types,
    reason = "a future process body must be Send; the lock only carries its result out of run()"
)]
fn reg_costs_us(size: u64) -> (f64, f64) {
    let mut sim = Simulation::new(5);
    let fabric = Fabric::new(&mut sim, ClusterSpec::new(1, 1));
    let out = Arc::new(std::sync::Mutex::new((0.0f64, 0.0f64)));
    let out2 = Arc::clone(&out);
    let fab = fabric.clone();
    sim.spawn_future("driver", async move |ctx| {
        let host = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
        let dpu = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Dpu);
        let gvmi = fab.gvmi_of(dpu).unwrap();
        let buf = fab.alloc(host, size);
        let mkey = fab.reg_mr_gvmi(&ctx, host, buf, size, gvmi).unwrap();
        let host_cost = (fab.cpu_available(host) - ctx.now()).as_us_f64();
        fab.cross_reg(&ctx, dpu, buf, size, mkey, gvmi).unwrap();
        let cross_cost = (fab.cpu_available(dpu) - ctx.now()).as_us_f64();
        *out2.lock().unwrap() = (host_cost, cross_cost);
    });
    sim.run().unwrap();
    let v = *out.lock().unwrap();
    v
}

fn run(_args: Args) {
    let sizes: Vec<u64> = (12..=24).step_by(2).map(|p| 1u64 << p).collect(); // 4 KiB .. 16 MiB
    let mut rows = Vec::new();
    for &size in &sizes {
        let (host, cross) = reg_costs_us(size);
        rows.push(vec![bytes(size), us(host), us(cross), us(host + cross)]);
    }
    print_table(
        "Fig. 5 — Registration overheads for a cross-GVMI transfer",
        &[
            "size",
            "host GVMI reg (mkey)",
            "DPU cross-reg (mkey2)",
            "total",
        ],
        &rows,
    );
    println!("\nPaper shape: both registrations grow with buffer size; the sum is what an\nuncached transfer pays — the motivation for the two-sided registration caches.");
}

fn main() {
    bench_harness::run_with_observability(
        "fig05_registration",
        Args::parse_except(&["--nodes", "--ppn", "--iters"]),
        run,
    );
}
