//! OMB-style `MPI_Ialltoall` overlap benchmark (paper Figs. 13–14), its
//! `MPI_Iallgather` twin (an extension), and the scatter-destination
//! Simple-vs-Group comparison (paper Fig. 15).

use std::sync::Arc;

use rdma::ClusterSpec;
use simnet::SimDelta;

use crate::harness::{
    collect, collector, run_workload, take, Collective, Engine, Persistent, Runtime,
};
use crate::overlap::OverlapResult;

/// Fig. 13/14 data point: pure latency, overall time with overlapped
/// compute, and the OMB overlap percentage for one `(runtime, scale,
/// message size)` combination.
pub fn ialltoall_overlap(
    nodes: usize,
    ppn: usize,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
) -> OverlapResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    ialltoall_overlap_on(spec, block, iters, warmup, runtime)
}

/// As [`ialltoall_overlap`], on a caller-prepared [`ClusterSpec`] — used
/// for hardware-generation and proxy-count studies.
pub fn ialltoall_overlap_on(
    spec: ClusterSpec,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
) -> OverlapResult {
    omb_overlap(spec, Collective::Alltoall, block, iters, warmup, runtime)
}

/// Extension data point: `MPI_Iallgather` overlap under the three
/// runtimes (the second collective BluesMPI's authors offloaded, in their
/// HiPC'21 follow-up, reference \[9\]). Layout: one buffer of `size()`
/// blocks of `block` bytes, own block pre-filled.
pub fn iallgather_overlap(
    nodes: usize,
    ppn: usize,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
) -> OverlapResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    omb_overlap(spec, Collective::Allgather, block, iters, warmup, runtime)
}

/// The OMB non-blocking-collective measurement of `op`: `warmup`
/// untimed calls, `iters` timed calls alone (pure latency), then `iters`
/// timed calls with compute equal to the pure latency between start and
/// wait (overall time).
fn omb_overlap(
    spec: ClusterSpec,
    op: Collective,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
) -> OverlapResult {
    let out = collector::<OverlapResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, runtime, async move |h| {
        let coll = Persistent::new(h, op, block);
        for _ in 0..warmup {
            h.wait(coll.start(h).await).await;
        }
        // Pure communication latency.
        let mut pure_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier().await;
            let t0 = h.ctx().now();
            h.wait(coll.start(h).await).await;
            pure_us += h.elapsed_max_us(t0).await;
        }
        pure_us /= iters as f64;
        // Overall with compute ≈ pure latency injected (OMB method).
        let compute = SimDelta::from_us_f64(pure_us);
        let mut overall_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier().await;
            let t0 = h.ctx().now();
            let r = coll.start(h).await;
            h.ctx().compute_async(compute).await;
            h.wait(r).await;
            overall_us += h.elapsed_max_us(t0).await;
        }
        overall_us /= iters as f64;
        if h.rank == 0 {
            collect(
                &out2,
                OverlapResult {
                    pure_us,
                    overall_us,
                    compute_us: pure_us,
                },
            );
        }
    });
    take(&out)
}

/// Which implementation of the personalized scatter-destination exchange
/// (paper Fig. 15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScatterImpl {
    /// Basic primitives: one RTS/RTR/FIN×2 exchange per transfer.
    Simple,
    /// Group primitives: one gathered packet per call, metadata cached.
    Group,
}

impl ScatterImpl {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ScatterImpl::Simple => "Simple",
            ScatterImpl::Group => "Group",
        }
    }
}

/// Fig. 15 data point: average per-iteration completion time (µs) of the
/// scatter-destination pattern under the proposed framework, implemented
/// with Simple or Group primitives. Also returns the host↔DPU control
/// message count.
pub fn scatter_dest_time(
    nodes: usize,
    ppn: usize,
    block: u64,
    iters: u32,
    warmup: u32,
    which: ScatterImpl,
) -> (f64, u64) {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<f64>();
    let out2 = Arc::clone(&out);
    let report = run_workload(spec, Runtime::proposed(), async move |h| {
        let Engine::Proposed(off) = &h.engine else {
            panic!("scatter_dest_time runs the proposed runtime")
        };
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let p = h.size();
        let me = h.rank;
        let sendbuf = fab.alloc(ep, block * p as u64);
        let recvbuf = fab.alloc(ep, block * p as u64);
        let group = match which {
            ScatterImpl::Group => Some(off.record_alltoall(sendbuf, recvbuf, block)),
            ScatterImpl::Simple => None,
        };
        let one_round = async || match group {
            Some(g) => {
                off.group_call(g).await;
                off.group_wait(g).await.expect("group offload failed");
            }
            None => {
                let mut reqs = Vec::with_capacity(2 * (p - 1));
                for k in 1..p {
                    let dst = (me + k) % p;
                    let src = (me + p - k) % p;
                    reqs.push(off.send_offload(
                        sendbuf.offset(dst as u64 * block),
                        block,
                        dst,
                        dst as u64,
                    ));
                    reqs.push(off.recv_offload(
                        recvbuf.offset(src as u64 * block),
                        block,
                        src,
                        me as u64,
                    ));
                }
                off.wait_all(&reqs).await;
            }
        };
        for _ in 0..warmup {
            one_round().await;
        }
        let mut total = 0.0;
        for _ in 0..iters {
            h.mpi.barrier().await;
            let t0 = h.ctx().now();
            one_round().await;
            total += h.elapsed_max_us(t0).await;
        }
        if h.rank == 0 {
            collect(&out2, total / iters as f64);
        }
    });
    (take(&out), report.stats.counter("offload.ctrl.host_dpu"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_beats_blues_on_latency_and_both_overlap() {
        let blues = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::Blues);
        let prop = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::proposed());
        let intel = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::Intel);
        // Paper Fig. 13: proposed < BluesMPI on overall time; Fig. 14:
        // both offloads overlap nearly fully, Intel does not.
        assert!(
            prop.pure_us < blues.pure_us,
            "proposed ({}) should beat BluesMPI ({}) latency",
            prop.pure_us,
            blues.pure_us
        );
        assert!(
            prop.overlap_pct() > 90.0,
            "proposed overlap {}",
            prop.overlap_pct()
        );
        assert!(
            blues.overlap_pct() > 90.0,
            "blues overlap {}",
            blues.overlap_pct()
        );
        assert!(
            intel.overlap_pct() < prop.overlap_pct(),
            "intel {} vs proposed {}",
            intel.overlap_pct(),
            prop.overlap_pct()
        );
    }

    #[test]
    fn group_beats_simple_for_dense_patterns() {
        let (simple_us, simple_msgs) =
            scatter_dest_time(2, 4, 16 * 1024, 2, 2, ScatterImpl::Simple);
        let (group_us, group_msgs) = scatter_dest_time(2, 4, 16 * 1024, 2, 2, ScatterImpl::Group);
        assert!(
            group_us < simple_us,
            "group ({group_us}us) should beat simple ({simple_us}us) — paper Fig. 15"
        );
        assert!(
            group_msgs < simple_msgs / 2,
            "group sends far fewer host-DPU control messages ({group_msgs} vs {simple_msgs})"
        );
    }
}

#[cfg(test)]
mod allgather_tests {
    use super::*;

    #[test]
    fn allgather_offloads_overlap_where_host_mpi_cannot() {
        // The ring allgather is the worst case for host progress: every
        // step depends on the previous one.
        // Warm-up count exceeds BluesMPI's cold-start call count.
        let intel = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::Intel);
        let prop = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::proposed());
        let blues = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::Blues);
        assert!(prop.overlap_pct() > 90.0, "proposed {}", prop.overlap_pct());
        assert!(blues.overlap_pct() > 90.0, "blues {}", blues.overlap_pct());
        assert!(
            intel.overlap_pct() < 50.0,
            "host-progressed dependent ring cannot overlap: {}",
            intel.overlap_pct()
        );
    }
}
