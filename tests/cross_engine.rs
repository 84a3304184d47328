//! Cross-engine integrity: the same communication pattern, executed by
//! host MPI, the staging offload and the GVMI offload, must deliver
//! byte-identical results.

use bluefield_offload::dpu::{Offload, OffloadConfig};
use bluefield_offload::mpi::{Mpi, MpiConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};

/// Engines under test.
#[derive(Clone, Copy, Debug)]
enum Engine {
    HostMpi,
    Staging,
    Gvmi,
}

/// A shift-exchange pattern: every rank sends a distinct pattern to
/// `(rank + k) % p` for several shifts `k`, then verifies everything it
/// received. Returns total simulated microseconds.
fn run_shift_exchange(engine: Engine, nodes: usize, ppn: usize, len: u64) -> f64 {
    let spec = ClusterSpec::new(nodes, ppn);
    let builder = ClusterBuilder::new(spec, 77);
    let body = move |rank: usize, ctx: simnet::ProcessCtx, cluster: rdma::ClusterCtx| {
        let inbox = Inbox::new();
        let fab = cluster.fabric().clone();
        let ep = cluster.host_ep(rank);
        let p = cluster.world_size();
        // Valid non-self shifts for this world size.
        let shifts: Vec<usize> = (1..=3).filter(|k| k % p != 0).collect();
        let sbufs: Vec<_> = shifts.iter().map(|_| fab.alloc(ep, len)).collect();
        let rbufs: Vec<_> = shifts.iter().map(|_| fab.alloc(ep, len)).collect();
        for (i, &k) in shifts.iter().enumerate() {
            let dst = (rank + k % p) % p;
            fab.fill_pattern(ep, sbufs[i], len, (rank * 100 + dst) as u64)
                .unwrap();
        }
        match engine {
            Engine::HostMpi => {
                let mpi = Mpi::attach(rank, ctx, cluster.clone(), &inbox, MpiConfig::default());
                let mut reqs = Vec::new();
                for (i, &k) in shifts.iter().enumerate() {
                    let dst = (rank + k % p) % p;
                    let src = (rank + p - k % p) % p;
                    reqs.push(mpi.isend(sbufs[i], len, dst, k as u64));
                    reqs.push(mpi.irecv(rbufs[i], len, src, k as u64));
                }
                mpi.wait_all(&reqs);
            }
            Engine::Staging | Engine::Gvmi => {
                let cfg = match engine {
                    Engine::Staging => OffloadConfig::staging(),
                    _ => OffloadConfig::proposed(),
                };
                let off = Offload::init(rank, ctx, cluster.clone(), &inbox, cfg);
                let mut reqs = Vec::new();
                for (i, &k) in shifts.iter().enumerate() {
                    let dst = (rank + k % p) % p;
                    let src = (rank + p - k % p) % p;
                    reqs.push(off.send_offload(sbufs[i], len, dst, k as u64));
                    reqs.push(off.recv_offload(rbufs[i], len, src, k as u64));
                }
                off.ctx().block_on(off.wait_all(&reqs));
                off.ctx().block_on(off.finalize());
            }
        }
        for (i, &k) in shifts.iter().enumerate() {
            let src = (rank + p - k % p) % p;
            assert!(
                fab.verify_pattern(ep, rbufs[i], len, (src * 100 + rank) as u64)
                    .unwrap(),
                "{engine:?}: rank {rank} shift {k} payload from {src}"
            );
        }
    };
    let report = match engine {
        Engine::HostMpi => builder.run_hosts(body),
        Engine::Staging => builder.run(body, Some(offload::proxy_fn(OffloadConfig::staging()))),
        Engine::Gvmi => builder.run(body, Some(offload::proxy_fn(OffloadConfig::proposed()))),
    }
    .expect("run completes");
    report.end_time.as_us_f64()
}

#[test]
fn all_engines_deliver_identical_data_small() {
    for engine in [Engine::HostMpi, Engine::Staging, Engine::Gvmi] {
        run_shift_exchange(engine, 2, 2, 4 * 1024);
    }
}

#[test]
fn all_engines_deliver_identical_data_large() {
    for engine in [Engine::HostMpi, Engine::Staging, Engine::Gvmi] {
        run_shift_exchange(engine, 3, 2, 256 * 1024);
    }
}

#[test]
fn staging_is_slower_than_gvmi_end_to_end() {
    let staging = run_shift_exchange(Engine::Staging, 2, 1, 512 * 1024);
    let gvmi = run_shift_exchange(Engine::Gvmi, 2, 1, 512 * 1024);
    assert!(
        staging > gvmi,
        "staging end-to-end ({staging}us) must exceed GVMI ({gvmi}us)"
    );
}

#[test]
fn group_and_basic_primitives_agree() {
    // The same alltoall pattern through Basic and Group primitives must
    // produce the same bytes.
    for use_group in [false, true] {
        let spec = ClusterSpec::new(2, 2);
        ClusterBuilder::new(spec, 3)
            .run(
                move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(
                        rank,
                        ctx,
                        cluster.clone(),
                        &inbox,
                        OffloadConfig::proposed(),
                    );
                    let fab = cluster.fabric().clone();
                    let ep = cluster.host_ep(rank);
                    let p = cluster.world_size();
                    let block = 8 * 1024u64;
                    let sendbuf = fab.alloc(ep, block * p as u64);
                    let recvbuf = fab.alloc(ep, block * p as u64);
                    for d in 0..p {
                        fab.fill_pattern(
                            ep,
                            sendbuf.offset(d as u64 * block),
                            block,
                            (rank * 7 + d) as u64,
                        )
                        .unwrap();
                    }
                    if use_group {
                        let g = off.group_start();
                        for k in 1..p {
                            let dst = (rank + k) % p;
                            let src = (rank + p - k) % p;
                            off.group_send(
                                g,
                                sendbuf.offset(dst as u64 * block),
                                block,
                                dst,
                                dst as u64,
                            );
                            off.group_recv(
                                g,
                                recvbuf.offset(src as u64 * block),
                                block,
                                src,
                                rank as u64,
                            );
                        }
                        off.group_end(g);
                        off.ctx().block_on(off.group_call(g));
                        off.ctx()
                            .block_on(off.group_wait(g))
                            .expect("group offload failed");
                    } else {
                        let mut reqs = Vec::new();
                        for k in 1..p {
                            let dst = (rank + k) % p;
                            let src = (rank + p - k) % p;
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
                                rank as u64,
                            ));
                        }
                        off.ctx().block_on(off.wait_all(&reqs));
                    }
                    for s in 0..p {
                        if s == rank {
                            continue;
                        }
                        assert!(
                            fab.verify_pattern(
                                ep,
                                recvbuf.offset(s as u64 * block),
                                block,
                                (s * 7 + rank) as u64
                            )
                            .unwrap(),
                            "group={use_group} rank {rank} from {s}"
                        );
                    }
                    off.ctx().block_on(off.finalize());
                },
                Some(offload::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
    }
}
