//! 3-D stencil halo-exchange benchmark (paper §VIII-A, Figs. 11–12).
//!
//! Each rank owns a block of an `n³` grid under a near-cubic 3-D
//! decomposition and exchanges ghost faces with up to six neighbours every
//! iteration, overlapping a dummy compute proportional to its cell count.
//! Under the proposed runtime, **inter-node** faces ride the Basic offload
//! primitives while **intra-node** faces keep using host MPI — the paper
//! notes its intra-node transfers are not offloaded, which caps overlap
//! around ~78 %.

use std::sync::Arc;

use rdma::ClusterSpec;
use simnet::{SimDelta, StatKey};

use crate::harness::{collect, collector, run_workload, take, Harness, Runtime};
use crate::overlap::OverlapResult;

/// Near-cubic factorization of `p` into three factors, largest spread
/// minimized (the usual MPI_Dims_create heuristic, brute force).
pub fn dims3(p: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, p);
    let mut best_score = usize::MAX;
    for a in 1..=p {
        if !p.is_multiple_of(a) {
            continue;
        }
        let q = p / a;
        for b in 1..=q {
            if !q.is_multiple_of(b) {
                continue;
            }
            let c = q / b;
            let score = a.max(b).max(c) - a.min(b).min(c);
            if score < best_score {
                best_score = score;
                best = (a, b, c);
            }
        }
    }
    best
}

/// Modelled per-cell compute time for the dummy stencil update.
pub const NS_PER_CELL: u64 = 2;

struct Neighbors {
    /// `(peer rank, face bytes, direction tag)` for each existing face.
    faces: Vec<(usize, u64, u64)>,
}

fn neighbors(rank: usize, p: usize, n: u64) -> (Neighbors, u64) {
    let (px, py, pz) = dims3(p);
    let (lx, ly, lz) = (
        n.div_ceil(px as u64),
        n.div_ceil(py as u64),
        n.div_ceil(pz as u64),
    );
    let coords = (rank % px, (rank / px) % py, rank / (px * py));
    let at = |x: usize, y: usize, z: usize| x + y * px + z * px * py;
    let elem = 8u64;
    let mut faces = Vec::new();
    let mut dir = 0u64;
    let mut add = |cond: bool, peer: (usize, usize, usize), bytes: u64| {
        if cond {
            faces.push((at(peer.0, peer.1, peer.2), bytes, dir));
        }
        dir += 1;
    };
    let (cx, cy, cz) = coords;
    add(cx > 0, (cx.wrapping_sub(1), cy, cz), ly * lz * elem);
    add(cx + 1 < px, (cx + 1, cy, cz), ly * lz * elem);
    add(cy > 0, (cx, cy.wrapping_sub(1), cz), lx * lz * elem);
    add(cy + 1 < py, (cx, cy + 1, cz), lx * lz * elem);
    add(cz > 0, (cx, cy, cz.wrapping_sub(1)), lx * ly * elem);
    add(cz + 1 < pz, (cx, cy, cz + 1), lx * ly * elem);
    (Neighbors { faces }, lx * ly * lz)
}

/// Opposite direction of a face tag (0↔1, 2↔3, 4↔5).
fn opposite(dir: u64) -> u64 {
    dir ^ 1
}

enum FaceReq {
    Mpi(minimpi::Req),
    Off(offload::OffloadReq),
}

fn exchange(
    h: &Harness,
    nb: &Neighbors,
    bufs: &[(rdma::VAddr, rdma::VAddr)],
    round: u64,
) -> Vec<FaceReq> {
    let my_node = h.cluster().spec().node_of_rank(h.rank);
    let mut reqs = Vec::with_capacity(nb.faces.len() * 2);
    for (i, &(peer, bytes, dir)) in nb.faces.iter().enumerate() {
        let (sbuf, rbuf) = bufs[i];
        let peer_node = h.cluster().spec().node_of_rank(peer);
        // Proposed runtime: offload inter-node faces; intra-node stays on
        // host MPI (paper §VIII-A).
        let use_off = h.off.is_some() && peer_node != my_node;
        let stag = round * 16 + dir;
        let rtag = round * 16 + opposite(dir);
        if use_off {
            let off = h.off.as_ref().expect("checked");
            reqs.push(FaceReq::Off(off.send_offload(sbuf, bytes, peer, stag)));
            reqs.push(FaceReq::Off(off.recv_offload(rbuf, bytes, peer, rtag)));
        } else {
            reqs.push(FaceReq::Mpi(h.mpi.isend(sbuf, bytes, peer, stag)));
            reqs.push(FaceReq::Mpi(h.mpi.irecv(rbuf, bytes, peer, rtag)));
        }
    }
    reqs
}

async fn wait_faces(h: &Harness, reqs: Vec<FaceReq>) {
    for r in reqs {
        let t0 = h.ctx().now();
        match r {
            FaceReq::Mpi(r) => {
                h.mpi.wait(r).await;
                static WAIT_MPI: StatKey = StatKey::new("stencil.wait.mpi");
                h.ctx().stat_time(&WAIT_MPI, h.ctx().now() - t0);
            }
            FaceReq::Off(r) => {
                let off = h.off.as_ref().expect("offload req");
                off.wait(r).await;
                static WAIT_OFF: StatKey = StatKey::new("stencil.wait.off");
                h.ctx().stat_time(&WAIT_OFF, h.ctx().now() - t0);
            }
        }
    }
}

/// Run the 3-D stencil benchmark: `n³` grid on `nodes × ppn` ranks for
/// `iters` measured iterations. Returns the averaged overlap measurement
/// (paper Figs. 11 and 12 plot `overall_us` and `overlap_pct`).
pub fn stencil3d(
    nodes: usize,
    ppn: usize,
    n: u64,
    iters: u32,
    warmup: u32,
    runtime: Runtime,
) -> OverlapResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<OverlapResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, runtime, async move |h| {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let (nb, cells) = neighbors(h.rank, h.size(), n);
        let bufs: Vec<_> = nb
            .faces
            .iter()
            .map(|&(_, bytes, _)| (fab.alloc(ep, bytes), fab.alloc(ep, bytes)))
            .collect();
        let compute = SimDelta::from_ns(cells * NS_PER_CELL);
        let mut round = 0u64;
        let mut run_iter = async |with_compute: bool, h: &Harness| -> f64 {
            h.mpi.barrier().await;
            let t0 = h.ctx().now();
            let reqs = exchange(h, &nb, &bufs, round);
            round += 1;
            if with_compute {
                h.ctx().compute_async(compute).await;
            }
            wait_faces(h, reqs).await;
            h.elapsed_max_us(t0).await
        };
        for _ in 0..warmup {
            run_iter(true, h).await;
        }
        let mut pure_us = 0.0;
        for _ in 0..iters {
            pure_us += run_iter(false, h).await;
        }
        pure_us /= iters as f64;
        let mut overall_us = 0.0;
        for _ in 0..iters {
            overall_us += run_iter(true, h).await;
        }
        overall_us /= iters as f64;
        if h.rank == 0 {
            collect(
                &out2,
                OverlapResult {
                    pure_us,
                    overall_us,
                    compute_us: compute.as_us_f64(),
                },
            );
        }
    });
    take(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims3_factorizations() {
        assert_eq!(dims3(8), (2, 2, 2));
        assert_eq!(dims3(64), (4, 4, 4));
        let (a, b, c) = dims3(12);
        assert_eq!(a * b * c, 12);
        let (a, b, c) = dims3(7);
        assert_eq!(a * b * c, 7);
    }

    #[test]
    fn neighbor_faces_are_symmetric() {
        // If rank r lists (peer, bytes, dir), peer lists (r, bytes, opp).
        let p = 8;
        let n = 64;
        for r in 0..p {
            let (nb, _) = neighbors(r, p, n);
            for &(peer, bytes, dir) in &nb.faces {
                let (pnb, _) = neighbors(peer, p, n);
                assert!(
                    pnb.faces
                        .iter()
                        .any(|&(q, b, d)| q == r && b == bytes && d == opposite(dir)),
                    "rank {peer} must mirror rank {r}'s face {dir}"
                );
            }
        }
    }

    #[test]
    fn proposed_overlaps_better_than_intel() {
        let intel = stencil3d(2, 4, 128, 2, 1, Runtime::Intel);
        let prop = stencil3d(2, 4, 128, 2, 1, Runtime::proposed());
        assert!(
            prop.overlap_pct() > intel.overlap_pct(),
            "proposed {} <= intel {}",
            prop.overlap_pct(),
            intel.overlap_pct()
        );
        assert!(
            prop.overall_us < intel.overall_us * 1.05,
            "proposed overall {} vs intel {}",
            prop.overall_us,
            intel.overall_us
        );
    }
}
