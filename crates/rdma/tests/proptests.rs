//! Property-based tests of the RDMA layer: the address space against a
//! model map, the byte kernels through the public accessors (the
//! comparisons against their reference implementations are unit tests in
//! `mem.rs`, where the references live), registration/key invariants, and
//! transfer-timing sanity.

use proptest::prelude::*;
use rdma::{AddressSpace, ClusterSpec, DeviceClass, Fabric, MemError, NetMsg, VAddr};
use simnet::Simulation;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Random operations against an `AddressSpace`, mirrored in a plain map.
#[derive(Clone, Debug)]
enum MemOp {
    Alloc { len: u64 },
    Write { buf: usize, off: u64, data: Vec<u8> },
    Read { buf: usize, off: u64, len: u64 },
}

fn memops() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..4096).prop_map(|len| MemOp::Alloc { len }),
            (
                0usize..8,
                0u64..4096,
                prop::collection::vec(any::<u8>(), 1..64)
            )
                .prop_map(|(buf, off, data)| MemOp::Write { buf, off, data }),
            (0usize..8, 0u64..4096, 1u64..128).prop_map(|(buf, off, len)| MemOp::Read {
                buf,
                off,
                len
            }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn address_space_matches_model(ops in memops()) {
        let mut asp = AddressSpace::new();
        let mut bufs: Vec<(VAddr, u64)> = Vec::new();
        let mut model: HashMap<(usize, u64), u8> = HashMap::new();
        for op in ops {
            match op {
                MemOp::Alloc { len } => {
                    let a = asp.alloc(len);
                    bufs.push((a, len));
                }
                MemOp::Write { buf, off, data } => {
                    if bufs.is_empty() { continue; }
                    let (base, len) = bufs[buf % bufs.len()];
                    let idx = buf % bufs.len();
                    if off + data.len() as u64 <= len {
                        asp.write(base.offset(off), &data).unwrap();
                        for (k, b) in data.iter().enumerate() {
                            model.insert((idx, off + k as u64), *b);
                        }
                    } else {
                        // Out-of-bounds writes must fail and change nothing.
                        prop_assert!(asp.write(base.offset(off), &data).is_err());
                    }
                }
                MemOp::Read { buf, off, len } => {
                    if bufs.is_empty() { continue; }
                    let idx = buf % bufs.len();
                    let (base, blen) = bufs[idx];
                    if off + len <= blen {
                        let got = asp.read(base.offset(off), len).unwrap();
                        for (k, g) in got.iter().enumerate() {
                            let expect = model.get(&(idx, off + k as u64)).copied().unwrap_or(0);
                            prop_assert_eq!(*g, expect, "byte {} of buf {}", off + k as u64, idx);
                        }
                    } else {
                        let e = asp.read(base.offset(off), len).unwrap_err();
                        let is_bounds_err =
                            matches!(e, MemError::OutOfBounds { .. } | MemError::Unmapped { .. });
                        prop_assert!(is_bounds_err);
                    }
                }
            }
        }
    }

    #[test]
    fn region_crc_is_the_crc_of_its_bytes(
        len in 0u64..70_000,
        off in 0u64..64,
        seed in any::<u64>(),
    ) {
        // In place at any alignment == over a copy; one flipped bit shows.
        let mut asp = AddressSpace::new();
        let a = asp.alloc(off + len);
        asp.fill_pattern(a, off + len, seed).unwrap();
        let at = a.offset(off);
        let mut bytes = asp.read(at, len).unwrap();
        let crc = asp.crc32(at, len).unwrap();
        prop_assert_eq!(crc, rdma::crc32(&bytes));
        if len > 0 {
            let i = (seed % len) as usize;
            bytes[i] ^= 1 << (seed % 8);
            prop_assert_ne!(crc, rdma::crc32(&bytes));
        }
    }

    #[test]
    fn pattern_stream_does_not_depend_on_the_length_asked_for(
        short in 0u64..5_000,
        extra in 0u64..40_000,
        seed in any::<u64>(),
    ) {
        // Short fills take the serial loop, long ones the lanes: the
        // same stream either way, so one is a prefix of the other.
        let mut asp = AddressSpace::new();
        let (a, b) = (asp.alloc(short), asp.alloc(short + extra));
        asp.fill_pattern(a, short, seed).unwrap();
        asp.fill_pattern(b, short + extra, seed).unwrap();
        prop_assert!(asp.read(a, short).unwrap() == asp.read(b, short).unwrap());
        prop_assert!(asp.verify_pattern(b, short, seed).unwrap());
    }

    #[test]
    fn verify_pattern_accepts_its_fill_and_nothing_else(
        len in 1u64..40_000,
        seed in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(len);
        asp.fill_pattern(a, len, seed).unwrap();
        prop_assert!(asp.verify_pattern(a, len, seed).unwrap());
        // (A one-byte run of another stream can match by chance.)
        prop_assert!(len < 8 || !asp.verify_pattern(a, len, seed ^ 2).unwrap());
        let hit = a.offset(at % len);
        let byte = asp.read(hit, 1).unwrap()[0];
        asp.write(hit, &[byte ^ (1 << bit)]).unwrap();
        prop_assert!(!asp.verify_pattern(a, len, seed).unwrap());
    }

    #[test]
    fn registration_subranges_always_transfer(
        buf_len in 4096u64..65536,
        off_frac in 0.0f64..0.9,
        len_frac in 0.01f64..1.0,
    ) {
        // Any sub-range of a registered buffer is transferable; anything
        // crossing the registered end is rejected.
        let off = (buf_len as f64 * off_frac) as u64;
        let len = ((buf_len as f64 * len_frac) as u64).max(1);
        let spec = ClusterSpec::new(2, 1);
        let mut sim = Simulation::new(1);
        let fabric = Fabric::new(&mut sim, spec);
        let fab = fabric.clone();
        let ok = Arc::new(Mutex::new(true));
        let ok2 = Arc::clone(&ok);
        sim.spawn_future("driver", async move |ctx| {
            let a = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            let b = fab.add_endpoint(ctx.pid(), 1, DeviceClass::Host);
            let src = fab.alloc(a, buf_len);
            let dst = fab.alloc(b, buf_len);
            let lkey = fab.reg_mr(&ctx, a, src, buf_len).unwrap();
            let rkey = fab.reg_mr(&ctx, b, dst, buf_len).unwrap();
            let res = fab.rdma_write(
                &ctx, a,
                (a, src.offset(off), lkey),
                (b, dst.offset(off), rkey),
                len, Some(1), None,
            );
            let fits = off + len <= buf_len;
            *ok2.lock().unwrap() = res.is_ok() == fits;
            if fits {
                let msg = ctx.recv_async().await.downcast::<NetMsg>().unwrap();
                assert!(matches!(*msg, NetMsg::Cqe(_)));
            }
        });
        sim.run().unwrap();
        prop_assert!(*ok.lock().unwrap());
    }

    #[test]
    fn transfer_time_is_monotone_in_size(
        s1 in 64u64..1_000_000,
        s2 in 64u64..1_000_000,
    ) {
        // Larger payloads never deliver faster on an idle fabric.
        let (small, large) = (s1.min(s2), s1.max(s2));
        let spec = ClusterSpec::new(2, 1);
        let mut sim = Simulation::new(1);
        let fabric = Fabric::new(&mut sim, spec);
        let fab = fabric.clone();
        let out = Arc::new(Mutex::new((0u64, 0u64)));
        let out2 = Arc::clone(&out);
        sim.spawn_future("driver", async move |ctx| {
            let a = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            let b = fab.add_endpoint(ctx.pid(), 1, DeviceClass::Host);
            let src = fab.alloc(a, large);
            let dst = fab.alloc(b, large);
            let lkey = fab.reg_mr(&ctx, a, src, large).unwrap();
            let rkey = fab.reg_mr(&ctx, b, dst, large).unwrap();
            // Let the registration work drain off the CPU timelines so
            // both measurements start from a quiet fabric.
            ctx.sleep_async(simnet::SimDelta::from_ms(100)).await;
            let t0 = ctx.now();
            let d_small = fab
                .rdma_write(&ctx, a, (a, src, lkey), (b, dst, rkey), small, None, None)
                .unwrap();
            // Fresh sim state per size would be cleaner, but the fabric is
            // idle again far in the future; measure from a quiet point.
            ctx.sleep_async(simnet::SimDelta::from_ms(100)).await;
            let t1 = ctx.now();
            let d_large = fab
                .rdma_write(&ctx, a, (a, src, lkey), (b, dst, rkey), large, None, None)
                .unwrap();
            *out2.lock().unwrap() = ((d_small - t0).as_ps(), (d_large - t1).as_ps());
        });
        sim.run().unwrap();
        let (ds, dl) = *out.lock().unwrap();
        prop_assert!(dl >= ds, "large {dl}ps vs small {ds}ps");
    }

    #[test]
    fn cross_reg_only_validates_within_mkey_range(
        reg_len in 1024u64..32768,
        sub_off in 0u64..32768,
        sub_len in 1u64..32768,
    ) {
        let spec = ClusterSpec::new(1, 1);
        let mut sim = Simulation::new(3);
        let fabric = Fabric::new(&mut sim, spec);
        let fab = fabric.clone();
        let ok = Arc::new(Mutex::new(true));
        let ok2 = Arc::clone(&ok);
        sim.spawn_future("driver", async move |ctx| {
            let host = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            let dpu = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Dpu);
            let gvmi = fab.gvmi_of(dpu).unwrap();
            let buf = fab.alloc(host, reg_len);
            let mkey = fab.reg_mr_gvmi(&ctx, host, buf, reg_len, gvmi).unwrap();
            let res = fab.cross_reg(&ctx, dpu, buf.offset(sub_off), sub_len, mkey, gvmi);
            let fits = sub_off + sub_len <= reg_len;
            *ok2.lock().unwrap() = res.is_ok() == fits;
        });
        sim.run().unwrap();
        prop_assert!(*ok.lock().unwrap());
    }
}
