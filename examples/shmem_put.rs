//! One-sided SHMEM-style communication over the offload framework —
//! demonstrating the paper's claim that the primitives are
//! programming-model agnostic (OpenSHMEM is its second named model).
//!
//! Every PE puts a slice of its symmetric heap into its right neighbour
//! and gets one from its left neighbour, all executed by the DPU proxies
//! with zero target-side CPU involvement.
//!
//! ```bash
//! cargo run --release --example shmem_put
//! ```

use bluefield_offload::dpu::{OffloadConfig, Shmem};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::SimDelta;

fn main() {
    let spec = ClusterSpec::new(2, 2);
    let report = ClusterBuilder::new(spec, 21)
        .run_async(
            async |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let shm = Shmem::init(
                    rank,
                    ctx,
                    cluster,
                    &inbox,
                    OffloadConfig::proposed(),
                    1 << 20,
                )
                .await;
                let fab = shm.offload().cluster().fabric().clone();
                let n = shm.n_pes();
                let me = shm.rank();

                // Symmetric allocations happen in the same order on every PE.
                let outbox = shm.sym_alloc(64 * 1024);
                let inbox_slot = shm.sym_alloc(64 * 1024);
                let pulled = shm.sym_alloc(64 * 1024);

                fab.fill_pattern(shm.endpoint(), shm.local_addr(outbox), 64 * 1024, me as u64)
                    .unwrap();

                // One-sided put to the right neighbour; it never calls in.
                shm.put((me + 1) % n, inbox_slot, outbox, 64 * 1024);
                shm.quiet().await;

                // Give every PE's put time to land, then pull the left
                // neighbour's outbox with a one-sided get.
                shm.offload()
                    .ctx()
                    .compute_async(SimDelta::from_us(200))
                    .await;
                let left = (me + n - 1) % n;
                let r = shm.get(left, pulled, outbox, 64 * 1024);
                shm.wait(r).await;

                assert!(fab
                    .verify_pattern(
                        shm.endpoint(),
                        shm.local_addr(inbox_slot),
                        64 * 1024,
                        left as u64
                    )
                    .unwrap());
                assert!(fab
                    .verify_pattern(
                        shm.endpoint(),
                        shm.local_addr(pulled),
                        64 * 1024,
                        left as u64
                    )
                    .unwrap());
                println!("PE {me}: put+get verified (neighbour {left}'s pattern received twice)");
                shm.finalize().await;
            },
            Some(bluefield_offload::dpu::proxy_fn(OffloadConfig::proposed())),
        )
        .unwrap();
    println!(
        "\nproxy puts: {}, proxy gets: {}, simulated time {:.1}us",
        report.stats.counter("offload.proxy.puts"),
        report.stats.counter("offload.proxy.gets"),
        report.end_time.as_us_f64()
    );
}
