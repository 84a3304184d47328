//! OMB-style `MPI_Ialltoall` overlap benchmark (paper Figs. 13–14) and the
//! scatter-destination Simple-vs-Group comparison (paper Fig. 15).

use std::sync::Arc;

use rdma::{ClusterSpec, VAddr};
use simnet::SimDelta;

use crate::harness::{collect, collector, run_workload, take, Harness, Runtime};
use crate::overlap::OverlapResult;

/// A started non-blocking all-to-all under any runtime.
enum A2aReq {
    Intel(minimpi::Req),
    Blues(baselines::BluesReq),
    Proposed(offload::GroupRequest),
}

/// Per-rank all-to-all driver that hides the runtime differences.
struct A2aDriver<'a> {
    h: &'a Harness,
    sendbuf: VAddr,
    recvbuf: VAddr,
    block: u64,
    group: Option<offload::GroupRequest>,
}

impl<'a> A2aDriver<'a> {
    fn new(h: &'a Harness, block: u64) -> Self {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let p = h.size() as u64;
        let sendbuf = fab.alloc(ep, block * p);
        let recvbuf = fab.alloc(ep, block * p);
        // Record the scatter-destination pattern once; later calls hit
        // the metadata caches (paper §VII-D).
        let group = h
            .off
            .as_ref()
            .map(|off| off.record_alltoall(sendbuf, recvbuf, block));
        A2aDriver {
            h,
            sendbuf,
            recvbuf,
            block,
            group,
        }
    }

    fn start(&self) -> A2aReq {
        if let Some(off) = &self.h.off {
            let g = self.group.expect("group recorded");
            off.ctx().block_on(off.group_call(g));
            A2aReq::Proposed(g)
        } else if let Some(blues) = &self.h.blues {
            A2aReq::Blues(blues.ialltoall(self.sendbuf, self.recvbuf, self.block))
        } else {
            A2aReq::Intel(self.h.mpi.ialltoall(self.sendbuf, self.recvbuf, self.block))
        }
    }

    fn wait(&self, r: A2aReq) {
        match r {
            A2aReq::Intel(r) => self.h.mpi.wait(r),
            A2aReq::Blues(r) => self.h.blues.as_ref().expect("blues").wait(r),
            A2aReq::Proposed(g) => {
                let off = self.h.off.as_ref().expect("off");
                off.ctx()
                    .block_on(off.group_wait(g))
                    .expect("group offload failed")
            }
        }
    }
}

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
    seed: u64,
) -> OverlapResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    ialltoall_overlap_on(spec, block, iters, warmup, runtime, seed)
}

/// As [`ialltoall_overlap`], on a caller-prepared [`ClusterSpec`] — used
/// for hardware-generation and proxy-count studies.
pub fn ialltoall_overlap_on(
    spec: ClusterSpec,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
    seed: u64,
) -> OverlapResult {
    let out = collector::<OverlapResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, seed, runtime, move |h| {
        let driver = A2aDriver::new(h, block);
        for _ in 0..warmup {
            driver.wait(driver.start());
        }
        // Pure communication latency.
        let mut pure_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier();
            let t0 = h.ctx().now();
            driver.wait(driver.start());
            pure_us += h.elapsed_max_us(t0);
        }
        pure_us /= iters as f64;
        // Overall with compute ≈ pure latency injected (OMB method).
        let compute = SimDelta::from_us_f64(pure_us);
        let mut overall_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier();
            let t0 = h.ctx().now();
            let r = driver.start();
            h.ctx().compute(compute);
            driver.wait(r);
            overall_us += h.elapsed_max_us(t0);
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
    seed: u64,
) -> (f64, u64) {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<f64>();
    let out2 = Arc::clone(&out);
    let report = run_workload(spec, seed, Runtime::proposed(), move |h| {
        let off = h.off.as_ref().expect("proposed runtime");
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
        let one_round = || match group {
            Some(g) => {
                off.ctx().block_on(off.group_call(g));
                off.ctx()
                    .block_on(off.group_wait(g))
                    .expect("group offload failed");
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
                off.ctx().block_on(off.wait_all(&reqs));
            }
        };
        for _ in 0..warmup {
            one_round();
        }
        let mut total = 0.0;
        for _ in 0..iters {
            h.mpi.barrier();
            let t0 = h.ctx().now();
            one_round();
            total += h.elapsed_max_us(t0);
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
        let blues = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::blues(), 7);
        let prop = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::proposed(), 7);
        let intel = ialltoall_overlap(2, 4, 32 * 1024, 2, 2, Runtime::Intel, 7);
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
            scatter_dest_time(2, 4, 16 * 1024, 2, 2, ScatterImpl::Simple, 9);
        let (group_us, group_msgs) =
            scatter_dest_time(2, 4, 16 * 1024, 2, 2, ScatterImpl::Group, 9);
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

/// Extension data point: `MPI_Iallgather` overlap under the three
/// runtimes (the second collective BluesMPI's authors offloaded, in their
/// HiPC'21 follow-up, reference \[9\]). Layout: `buf` holds `size()` blocks of `block`
/// bytes, own block pre-filled.
pub fn iallgather_overlap(
    nodes: usize,
    ppn: usize,
    block: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
    seed: u64,
) -> OverlapResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<OverlapResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, seed, runtime, move |h| {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let p = h.size() as u64;
        let buf = fab.alloc(ep, block * p);
        let group = h
            .off
            .as_ref()
            .map(|off| off.record_allgather_ring(buf, block));
        let run_once = |h: &Harness| {
            if let Some(g) = group {
                let off = h.off.as_ref().expect("proposed");
                off.ctx().block_on(off.group_call(g));
                off.ctx()
                    .block_on(off.group_wait(g))
                    .expect("group offload failed");
            } else if let Some(blues) = &h.blues {
                let r = blues.iallgather(buf, block);
                blues.wait(r);
            } else {
                let r = h.mpi.iallgather(buf, block);
                h.mpi.wait(r);
            }
        };
        for _ in 0..warmup {
            run_once(h);
        }
        let mut pure_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier();
            let t0 = h.ctx().now();
            run_once(h);
            pure_us += h.elapsed_max_us(t0);
        }
        pure_us /= iters as f64;
        let compute = SimDelta::from_us_f64(pure_us);
        let mut overall_us = 0.0;
        for _ in 0..iters {
            h.mpi.barrier();
            let t0 = h.ctx().now();
            if let Some(g) = group {
                let off = h.off.as_ref().expect("proposed");
                off.ctx().block_on(off.group_call(g));
                h.ctx().compute(compute);
                off.ctx()
                    .block_on(off.group_wait(g))
                    .expect("group offload failed");
            } else if let Some(blues) = &h.blues {
                let r = blues.iallgather(buf, block);
                h.ctx().compute(compute);
                blues.wait(r);
            } else {
                let r = h.mpi.iallgather(buf, block);
                h.ctx().compute(compute);
                h.mpi.wait(r);
            }
            overall_us += h.elapsed_max_us(t0);
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

#[cfg(test)]
mod allgather_tests {
    use super::*;

    #[test]
    fn allgather_offloads_overlap_where_host_mpi_cannot() {
        // The ring allgather is the worst case for host progress: every
        // step depends on the previous one.
        // Warm-up count exceeds BluesMPI's cold-start call count.
        let intel = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::Intel, 3);
        let prop = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::proposed(), 3);
        let blues = iallgather_overlap(2, 2, 64 * 1024, 1, 4, Runtime::blues(), 3);
        assert!(prop.overlap_pct() > 90.0, "proposed {}", prop.overlap_pct());
        assert!(blues.overlap_pct() > 90.0, "blues {}", blues.overlap_pct());
        assert!(
            intel.overlap_pct() < 50.0,
            "host-progressed dependent ring cannot overlap: {}",
            intel.overlap_pct()
        );
    }
}
