//! The fabric: endpoints, registration tables, routing and transfer timing.
//!
//! [`Fabric`] is a cheap-to-clone handle shared by every simulated process.
//! All operations that consume CPU time (posting, registering) must be
//! called by the process that owns the acting endpoint. Those costs are
//! charged to a per-endpoint *CPU timeline* (a busy-until reservation, not
//! a thread sleep): successive operations of one endpoint chain after each
//! other, and a transfer's wire activity starts only when its posting work
//! ends on that timeline. This keeps the timing model exact while letting
//! the simulation avoid a scheduler round-trip per posted operation, and it
//! never pollutes the `compute()` accounting used by overlap metrics.
//!
//! Byte movement happens eagerly at post time (the source is snapshotted),
//! while *observability* is event-driven: completions and delivery
//! notifications arrive as [`NetMsg`] mailbox messages at the modelled
//! times. This matches how the upper layers use RDMA (nothing reads a
//! destination buffer before a completion/counter says it is there).

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Payload, Pid, ProcessCtx, ResourceId, SimDelta, SimTime, Simulation, StatKey};

use crate::mem::{AddressSpace, VAddr};
use crate::model::{ClusterSpec, DeviceClass};
use crate::types::{Cqe, EpId, GvmiId, MrKey, NetMsg, Packet, RdmaError};

struct Endpoint {
    pid: Pid,
    node: usize,
    class: DeviceClass,
    mem: AddressSpace,
    gvmi: Option<GvmiId>,
    /// End of the last CPU-charged operation on this endpoint (posting,
    /// registration, protocol handling). New charges chain after it.
    cpu_busy: SimTime,
    /// Latest packet delivery from this endpoint, indexed by destination
    /// endpoint; grown on the first send to a destination. Two-sided
    /// packets between one pair share a QP and must never overtake each
    /// other, even when the control-lane/bulk-lane split would allow it.
    pair_order: Vec<SimTime>,
}

enum MrKind {
    /// Plain `ibv_reg_mr`: lkey for the owner, rkey for remotes.
    Ib,
    /// Host-side registration against a proxy's GVMI-ID (an `mkey`).
    Gvmi { gvmi: GvmiId },
    /// DPU-side cross-registration (an `mkey2`): lets `owner_dpu` post
    /// transfers whose source bytes live in `host_ep`'s memory.
    Cross { owner_dpu: EpId, host_ep: EpId },
}

struct MrEntry {
    ep: EpId,
    addr: VAddr,
    len: u64,
    kind: MrKind,
    valid: bool,
}

/// `World::mrs` slot of `key`; none for key 0.
fn mr_slot(key: MrKey) -> Option<usize> {
    usize::try_from(key.0).ok()?.checked_sub(1)
}

struct NodeRes {
    host_tx: ResourceId,
    host_rx: ResourceId,
    /// Control lane of the host port: small messages arbitrate here
    /// (per-message handling only), never behind bulk serialization.
    host_rx_ctrl: ResourceId,
    dpu_tx: ResourceId,
    dpu_rx: ResourceId,
    /// Control lane of the DPU port — the ARM per-message handling rate
    /// that halves small-message bandwidth into the DPU (paper Fig. 3).
    dpu_rx_ctrl: ResourceId,
    pcie_h2d: ResourceId,
    pcie_d2h: ResourceId,
}

struct World {
    spec: ClusterSpec,
    eps: Vec<Endpoint>,
    nodes: Vec<NodeRes>,
    /// Every key ever issued, key `k` at slot `k - 1`: keys are handed
    /// out densely from 1 and never removed (`dereg` only clears
    /// `valid`).
    mrs: Vec<MrEntry>,
    next_gvmi: u32,
    /// Extra per-transfer delivery delay, drawn uniformly from
    /// `[0, delivery_jitter]`. Used by the schedule explorer to perturb
    /// event interleavings; the same-QP FIFO clamp in `send_packet` runs
    /// *after* jitter, so packet reorderings stay protocol-legal.
    delivery_jitter: SimDelta,
    /// Data-plane fault injection (bit flips, torn writes, payload drops).
    payload: PayloadFaults,
}

/// The armed payload-fault plan and its stream: a field of its own so a
/// transfer can roll it while both endpoints' memory is borrowed.
struct PayloadFaults {
    plan: PayloadFaultPlan,
    /// Dedicated splitmix64 stream for payload faults; advanced only when
    /// the plan is armed, so clean runs never consume randomness.
    rng: u64,
}

/// Data-plane fault plan: corruptions applied to the payload of RDMA
/// WRITE/READ operations as the bytes move between address spaces. All
/// rates are permille per transfer; faults fire only in byte-moving runs
/// (`ClusterSpec::move_bytes`) — timing-only runs carry no payloads to
/// corrupt. The upper layers arm this from their `FaultPlan` and pair it
/// with end-to-end CRC verification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadFaultPlan {
    /// Permille of transfers with one byte flipped at a random offset.
    pub flip_pm: u16,
    /// Permille of transfers landing torn: only a random prefix of the
    /// payload is written, the tail keeps the destination's old bytes.
    pub torn_pm: u16,
    /// Permille of transfers whose payload is dropped entirely on the
    /// wire (the operation still "completes" — silent data loss).
    pub drop_pm: u16,
    /// Seed of the fault stream.
    pub seed: u64,
}

impl PayloadFaultPlan {
    /// True when any payload fault can fire.
    pub fn armed(&self) -> bool {
        self.flip_pm > 0 || self.torn_pm > 0 || self.drop_pm > 0
    }
}

/// What the fault roll decided for one transfer.
enum PayloadFault {
    None,
    Drop,
    /// Write only the first `n` bytes.
    Torn(u64),
    /// Flip one bit in the byte at this offset.
    Flip(u64),
}

/// Handle to the simulated RDMA fabric. Clone freely; all clones share one
/// world. **Do not** hold other locks while calling into the fabric.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Mutex<World>>,
}

/// Messages up to this size use the port's *control lane*: InfiniBand
/// interleaves at MTU granularity (with virtual-lane arbitration), so a
/// small control packet never waits behind megabytes of queued bulk data.
/// Its serialization time applies as pure latency, while the receiver's
/// per-message handling still rate-limits the lane — which is what caps
/// small-message throughput into the DPU's ARM cores (paper Fig. 3).
const SMALL_MSG_BYPASS: u64 = 8192;

/// How a transfer is routed, decided from the poster, the buffer owner and
/// the destination.
struct PathPlan {
    /// Pure latency (wire, PCIe, shared memory) ahead of delivery.
    latency: SimDelta,
    /// Serialization time of the payload on the narrowest link.
    serialize: SimDelta,
    /// Transmit-side FIFO to reserve, if any.
    tx: Option<ResourceId>,
    /// Receive-side FIFO to reserve, if any.
    rx: Option<ResourceId>,
    /// Per-message receive handling added to the rx reservation.
    rx_overhead: SimDelta,
    /// Control lane for a small message (per-message handling reserved
    /// there instead of the bulk FIFOs); `None` for bulk transfers or
    /// resource-free paths.
    ctrl_lane: Option<ResourceId>,
    /// Small message: interleaves with bulk traffic instead of queueing
    /// in the port FIFOs.
    small: bool,
}

impl Fabric {
    /// Create the fabric and its per-node resources.
    pub fn new(sim: &mut Simulation, spec: ClusterSpec) -> Fabric {
        let mut nodes = Vec::with_capacity(spec.nodes);
        for n in 0..spec.nodes {
            nodes.push(NodeRes {
                host_tx: sim.create_resource(format!("node{n}.host_nic.tx")),
                host_rx: sim.create_resource(format!("node{n}.host_nic.rx")),
                host_rx_ctrl: sim.create_resource(format!("node{n}.host_nic.rx_ctrl")),
                dpu_tx: sim.create_resource(format!("node{n}.dpu_nic.tx")),
                dpu_rx: sim.create_resource(format!("node{n}.dpu_nic.rx")),
                dpu_rx_ctrl: sim.create_resource(format!("node{n}.dpu_nic.rx_ctrl")),
                pcie_h2d: sim.create_resource(format!("node{n}.pcie.h2d")),
                pcie_d2h: sim.create_resource(format!("node{n}.pcie.d2h")),
            });
        }
        Fabric {
            inner: Arc::new(Mutex::new(World {
                spec,
                eps: Vec::new(),
                nodes,
                mrs: Vec::new(),
                next_gvmi: 1,
                delivery_jitter: SimDelta::ZERO,
                payload: PayloadFaults::new(PayloadFaultPlan::default()),
            })),
        }
    }

    /// Attach an endpoint for `pid` on `node`. DPU endpoints are assigned a
    /// GVMI-ID at creation (the paper generates it once per protection
    /// domain inside `Init_Offload`).
    pub fn add_endpoint(&self, pid: Pid, node: usize, class: DeviceClass) -> EpId {
        let mut w = self.inner.lock();
        assert!(node < w.spec.nodes, "node out of range");
        let gvmi = match class {
            DeviceClass::Dpu => {
                let id = GvmiId(w.next_gvmi);
                w.next_gvmi += 1;
                Some(id)
            }
            DeviceClass::Host => None,
        };
        let id = EpId(w.eps.len() as u32);
        w.eps.push(Endpoint {
            pid,
            node,
            class,
            mem: AddressSpace::new(),
            gvmi,
            cpu_busy: SimTime::ZERO,
            pair_order: Vec::new(),
        });
        id
    }

    /// Enable delivery-delay jitter: every transfer is delayed by an extra
    /// uniform amount in `[0, jitter]` drawn from the simulation RNG. Zero
    /// (the default) disables it. This perturbs schedules without breaking
    /// same-QP FIFO ordering — see the schedule explorer in `checker`.
    pub fn set_delivery_jitter(&self, jitter: SimDelta) {
        self.inner.lock().delivery_jitter = jitter;
    }

    /// Arm data-plane payload faults. Set-once: the first armed plan wins,
    /// so every rank's `Init_Offload` can install the run's plan without
    /// resetting the fault stream mid-run. An unarmed plan is a no-op.
    pub fn set_payload_faults(&self, plan: PayloadFaultPlan) {
        if !plan.armed() {
            return;
        }
        let mut w = self.inner.lock();
        if w.payload.plan.armed() {
            return;
        }
        w.payload = PayloadFaults::new(plan);
    }

    /// The cluster spec this fabric was built with.
    pub fn spec(&self) -> ClusterSpec {
        self.inner.lock().spec.clone()
    }

    /// Whether transfers move real bytes (see `ClusterSpec::move_bytes`).
    pub fn moves_bytes(&self) -> bool {
        self.inner.lock().spec.move_bytes
    }

    /// Process driving `ep`.
    pub fn pid_of(&self, ep: EpId) -> Pid {
        self.inner.lock().eps[ep.index()].pid
    }

    /// GVMI-ID of a DPU endpoint.
    pub fn gvmi_of(&self, ep: EpId) -> Option<GvmiId> {
        self.inner.lock().eps[ep.index()].gvmi
    }

    // ---- memory management (no modelled cost: test/benchmark setup) ----

    /// Allocate `len` zeroed bytes in `ep`'s address space.
    ///
    /// In timing-only runs (`move_bytes == false`), allocations above
    /// 64 KiB become *virtual* regions: bounds-checked but not backed by
    /// bytes, so huge application buffers cost no host RAM. Small buffers
    /// stay real because eager messages and scalar reductions carry data
    /// even in timing-only runs.
    pub fn alloc(&self, ep: EpId, len: u64) -> VAddr {
        let mut w = self.inner.lock();
        if !w.spec.move_bytes && len > 64 * 1024 {
            w.eps[ep.index()].mem.alloc_virtual(len)
        } else {
            w.eps[ep.index()].mem.alloc(len)
        }
    }

    /// Raw write into `ep`'s memory.
    pub fn write_bytes(&self, ep: EpId, addr: VAddr, data: &[u8]) -> Result<(), RdmaError> {
        Ok(self.inner.lock().eps[ep.index()].mem.write(addr, data)?)
    }

    /// Raw read from `ep`'s memory.
    pub fn read_bytes(&self, ep: EpId, addr: VAddr, len: u64) -> Result<Vec<u8>, RdmaError> {
        Ok(self.inner.lock().eps[ep.index()].mem.read(addr, len)?)
    }

    /// Fill with a deterministic pattern (data-integrity tests).
    pub fn fill_pattern(
        &self,
        ep: EpId,
        addr: VAddr,
        len: u64,
        seed: u64,
    ) -> Result<(), RdmaError> {
        Ok(self.inner.lock().eps[ep.index()]
            .mem
            .fill_pattern(addr, len, seed)?)
    }

    /// Verify a deterministic pattern (data-integrity tests).
    pub fn verify_pattern(
        &self,
        ep: EpId,
        addr: VAddr,
        len: u64,
        seed: u64,
    ) -> Result<bool, RdmaError> {
        Ok(self.inner.lock().eps[ep.index()]
            .mem
            .verify_pattern(addr, len, seed)?)
    }

    /// CRC32 of `[addr, addr+len)` in `ep`'s memory (end-to-end payload
    /// integrity). Virtual regions hash their zero-fill.
    pub fn crc32(&self, ep: EpId, addr: VAddr, len: u64) -> Result<u32, RdmaError> {
        Ok(self.inner.lock().eps[ep.index()].mem.crc32(addr, len)?)
    }

    /// Read a little-endian u64 (counters).
    pub fn read_u64(&self, ep: EpId, addr: VAddr) -> Result<u64, RdmaError> {
        Ok(self.inner.lock().eps[ep.index()].mem.read_u64(addr)?)
    }

    /// Write a little-endian u64 (counters).
    pub fn write_u64(&self, ep: EpId, addr: VAddr, v: u64) -> Result<(), RdmaError> {
        Ok(self.inner.lock().eps[ep.index()].mem.write_u64(addr, v)?)
    }

    // ---- registration ----

    /// Plain IB registration of `ep`'s own buffer. Returns a key usable as
    /// this endpoint's lkey and as a remote rkey. Charges the modelled
    /// registration cost to the calling process.
    pub fn reg_mr(
        &self,
        ctx: &ProcessCtx,
        ep: EpId,
        addr: VAddr,
        len: u64,
    ) -> Result<MrKey, RdmaError> {
        let (key, cost) = {
            let mut w = self.inner.lock();
            let e = &w.eps[ep.index()];
            if e.pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(ep));
            }
            e.mem.check_range(addr, len)?;
            let cost = w.spec.model.reg_cost(addr, len);
            let key = w.insert_mr(ep, addr, len, MrKind::Ib);
            w.charge_cpu(ep, ctx.now(), cost);
            (key, cost)
        };
        static REG_IB: StatKey = StatKey::new("rdma.reg.ib");
        static REG_TIME: StatKey = StatKey::new("rdma.reg.time");
        ctx.stat_incr(&REG_IB, 1);
        ctx.stat_time(&REG_TIME, cost);
        Ok(key)
    }

    /// Host-side GVMI registration: expose `ep`'s buffer to the proxy that
    /// owns `gvmi`. Returns the `mkey` that must be shipped to that proxy.
    pub fn reg_mr_gvmi(
        &self,
        ctx: &ProcessCtx,
        ep: EpId,
        addr: VAddr,
        len: u64,
        gvmi: GvmiId,
    ) -> Result<MrKey, RdmaError> {
        let (key, cost) = {
            let mut w = self.inner.lock();
            let e = &w.eps[ep.index()];
            if e.pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(ep));
            }
            e.mem.check_range(addr, len)?;
            if !w.eps.iter().any(|e| e.gvmi == Some(gvmi)) {
                return Err(RdmaError::WrongGvmi {
                    expected: gvmi,
                    got: gvmi,
                });
            }
            let cost = w.spec.model.reg_cost(addr, len);
            let key = w.insert_mr(ep, addr, len, MrKind::Gvmi { gvmi });
            w.charge_cpu(ep, ctx.now(), cost);
            (key, cost)
        };
        static REG_GVMI: StatKey = StatKey::new("rdma.reg.gvmi");
        static GVMI_TIME: StatKey = StatKey::new("rdma.reg.gvmi.time");
        ctx.stat_incr(&REG_GVMI, 1);
        ctx.stat_time(&GVMI_TIME, cost);
        Ok(key)
    }

    /// DPU-side cross-registration: the proxy turns a host `mkey` into an
    /// `mkey2` it can use as a local key for transfers out of host memory.
    /// Must be called by the DPU endpoint owning `gvmi`.
    pub fn cross_reg(
        &self,
        ctx: &ProcessCtx,
        dpu_ep: EpId,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
        gvmi: GvmiId,
    ) -> Result<MrKey, RdmaError> {
        let (key, cost) = {
            let mut w = self.inner.lock();
            let e = &w.eps[dpu_ep.index()];
            if e.pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(dpu_ep));
            }
            if e.class != DeviceClass::Dpu {
                return Err(RdmaError::NotDpu(dpu_ep));
            }
            if e.gvmi != Some(gvmi) {
                return Err(RdmaError::WrongGvmi {
                    expected: e.gvmi.expect("dpu endpoints always have a gvmi"),
                    got: gvmi,
                });
            }
            let entry = w.mr(mkey)?;
            let MrKind::Gvmi { gvmi: key_gvmi } = entry.kind else {
                return Err(RdmaError::NotGvmiKey(mkey));
            };
            if key_gvmi != gvmi {
                return Err(RdmaError::WrongGvmi {
                    expected: key_gvmi,
                    got: gvmi,
                });
            }
            if addr.0 < entry.addr.0 || addr.0 + len > entry.addr.0 + entry.len {
                return Err(RdmaError::KeyRangeMismatch(mkey));
            }
            let host_ep = entry.ep;
            let cost = w.spec.model.cross_reg_cost(addr, len);
            let key = w.insert_mr(
                host_ep,
                addr,
                len,
                MrKind::Cross {
                    owner_dpu: dpu_ep,
                    host_ep,
                },
            );
            w.charge_cpu(dpu_ep, ctx.now(), cost);
            (key, cost)
        };
        static REG_CROSS: StatKey = StatKey::new("rdma.reg.cross");
        static CROSS_TIME: StatKey = StatKey::new("rdma.reg.cross.time");
        ctx.stat_incr(&REG_CROSS, 1);
        ctx.stat_time(&CROSS_TIME, cost);
        Ok(key)
    }

    /// Invalidate a key.
    pub fn dereg(&self, key: MrKey) -> Result<(), RdmaError> {
        let mut w = self.inner.lock();
        let entry = mr_slot(key)
            .and_then(|i| w.mrs.get_mut(i))
            .filter(|m| m.valid)
            .ok_or(RdmaError::BadKey(key))?;
        entry.valid = false;
        Ok(())
    }

    // ---- data movement ----

    /// One-sided RDMA Write of `len` bytes.
    ///
    /// * `poster` — endpoint whose CPU posts the work request (charged the
    ///   class-specific posting overhead).
    /// * `local` — `(endpoint owning the source bytes, address, key)`. The
    ///   key must be the poster's own lkey, or an `mkey2` the poster
    ///   cross-registered over that host buffer (the GVMI data path).
    /// * `remote` — destination `(endpoint, address, rkey)`.
    /// * `signal` — if `Some(wrid)`, a [`NetMsg::Cqe`] is delivered to the
    ///   poster once the write completes (delivery + ack latency).
    /// * `notify` — optional `(pid, payload)` delivered as
    ///   [`NetMsg::Notify`] at data-arrival time; models the remote side
    ///   observing the written flag/counter.
    ///
    /// Returns the modelled delivery time.
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_write(
        &self,
        ctx: &ProcessCtx,
        poster: EpId,
        local: (EpId, VAddr, MrKey),
        remote: (EpId, VAddr, MrKey),
        len: u64,
        signal: Option<u64>,
        notify: Option<(Pid, Payload)>,
    ) -> Result<SimTime, RdmaError> {
        let (local_ep, local_addr, lkey) = local;
        let (remote_ep, remote_addr, rkey) = remote;
        let (plan, post_end, poster_pid, ack, jitter, faulted) = {
            let mut w = self.inner.lock();
            if w.eps[poster.index()].pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(poster));
            }
            w.check_local_key(poster, local_ep, local_addr, lkey, len)?;
            w.check_remote_key(remote_ep, remote_addr, rkey, len)?;
            // Move the bytes now; they become observable at delivery time.
            let faulted = if w.spec.move_bytes {
                w.move_payload((local_ep, local_addr), (remote_ep, remote_addr), len)?
            } else {
                w.eps[local_ep.index()].mem.check_range(local_addr, len)?;
                w.eps[remote_ep.index()].mem.check_range(remote_addr, len)?;
                false
            };
            let plan = w.plan_path(poster, local_ep, remote_ep, len);
            let post = w.spec.model.post_overhead(w.eps[poster.index()].class);
            let post_end = w.charge_cpu(poster, ctx.now(), post);
            (
                plan,
                post_end,
                w.eps[poster.index()].pid,
                w.spec.model.ack_latency,
                w.delivery_jitter,
                faulted,
            )
        };
        if faulted {
            static PAYLOAD_FAULTS: StatKey = StatKey::new("rdma.fault.payload");
            ctx.stat_incr(&PAYLOAD_FAULTS, 1);
        }
        static WRITE_COUNT: StatKey = StatKey::new("rdma.write.count");
        static WRITE_BYTES: StatKey = StatKey::new("rdma.write.bytes");
        ctx.stat_incr(&WRITE_COUNT, 1);
        ctx.stat_incr(&WRITE_BYTES, len);
        let deliver = execute_plan(ctx, &plan, post_end, jitter);
        if let Some((pid, payload)) = notify {
            ctx.deliver_at(pid, deliver, Box::new(NetMsg::Notify(payload)));
        }
        if let Some(wrid) = signal {
            ctx.deliver_at(
                poster_pid,
                deliver + ack,
                Box::new(NetMsg::Cqe(Cqe { wrid })),
            );
        }
        Ok(deliver)
    }

    /// One-sided RDMA Read of `len` bytes from `remote` into `local`.
    /// `local` must be the poster's own registered buffer. The CQE (if
    /// `signal`) arrives when the data lands locally.
    pub fn rdma_read(
        &self,
        ctx: &ProcessCtx,
        poster: EpId,
        local: (EpId, VAddr, MrKey),
        remote: (EpId, VAddr, MrKey),
        len: u64,
        signal: Option<u64>,
    ) -> Result<SimTime, RdmaError> {
        let (local_ep, local_addr, lkey) = local;
        let (remote_ep, remote_addr, rkey) = remote;
        let (plan, start, poster_pid, jitter, faulted) = {
            let mut w = self.inner.lock();
            if w.eps[poster.index()].pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(poster));
            }
            w.check_local_key(poster, local_ep, local_addr, lkey, len)?;
            w.check_remote_key(remote_ep, remote_addr, rkey, len)?;
            let faulted = if w.spec.move_bytes {
                w.move_payload((remote_ep, remote_addr), (local_ep, local_addr), len)?
            } else {
                w.eps[remote_ep.index()].mem.check_range(remote_addr, len)?;
                w.eps[local_ep.index()].mem.check_range(local_addr, len)?;
                false
            };
            // Data flows remote -> local: plan with roles swapped. The read
            // request itself costs one extra wire traversal before the
            // remote NIC can start streaming data back.
            let plan = w.plan_path(remote_ep, remote_ep, local_ep, len);
            let post = w.spec.model.post_overhead(w.eps[poster.index()].class);
            let post_end = w.charge_cpu(poster, ctx.now(), post);
            let start = post_end + plan.latency;
            let pid = w.eps[poster.index()].pid;
            (plan, start, pid, w.delivery_jitter, faulted)
        };
        if faulted {
            static PAYLOAD_FAULTS: StatKey = StatKey::new("rdma.fault.payload");
            ctx.stat_incr(&PAYLOAD_FAULTS, 1);
        }
        static READ_COUNT: StatKey = StatKey::new("rdma.read.count");
        static READ_BYTES: StatKey = StatKey::new("rdma.read.bytes");
        ctx.stat_incr(&READ_COUNT, 1);
        ctx.stat_incr(&READ_BYTES, len);
        let deliver = execute_plan(ctx, &plan, start, jitter);
        if let Some(wrid) = signal {
            ctx.deliver_at(poster_pid, deliver, Box::new(NetMsg::Cqe(Cqe { wrid })));
        }
        Ok(deliver)
    }

    /// Two-sided packet: `body` is delivered as [`NetMsg::Packet`] to the
    /// process driving `to` after the modelled traversal of `bytes`.
    /// This is the control-message and eager-data primitive.
    pub fn send_packet(
        &self,
        ctx: &ProcessCtx,
        from: EpId,
        to: EpId,
        bytes: u64,
        body: Payload,
    ) -> Result<SimTime, RdmaError> {
        let (deliver, to_pid) = {
            let mut w = self.inner.lock();
            if w.eps[from.index()].pid != ctx.pid() {
                return Err(RdmaError::WrongProcess(from));
            }
            let plan = w.plan_path(from, from, to, bytes);
            let post = w.spec.model.post_overhead(w.eps[from.index()].class);
            let post_end = w.charge_cpu(from, ctx.now(), post);
            let mut deliver = execute_plan(ctx, &plan, post_end, w.delivery_jitter);
            // Same-QP FIFO: a later packet between the same endpoints can
            // never arrive before an earlier one.
            let order = &mut w.eps[from.index()].pair_order;
            if order.len() <= to.index() {
                order.resize(to.index() + 1, SimTime::ZERO);
            }
            let last = &mut order[to.index()];
            if deliver <= *last {
                deliver = *last + SimDelta::from_ps(1);
            }
            *last = deliver;
            (deliver, w.eps[to.index()].pid)
        };
        static PACKET_COUNT: StatKey = StatKey::new("rdma.packet.count");
        static PACKET_BYTES: StatKey = StatKey::new("rdma.packet.bytes");
        ctx.stat_incr(&PACKET_COUNT, 1);
        ctx.stat_incr(&PACKET_BYTES, bytes);
        ctx.deliver_at(
            to_pid,
            deliver,
            Box::new(NetMsg::Packet(Packet {
                src: from,
                bytes,
                body,
            })),
        );
        Ok(deliver)
    }

    /// Charge protocol-handling CPU time to `ep`'s timeline (e.g. the ARM
    /// cost of interpreting one proxy queue entry). Subsequent posts of
    /// this endpoint start after the charged work. Returns the end instant.
    pub fn charge_cpu(
        &self,
        ctx: &ProcessCtx,
        ep: EpId,
        dur: SimDelta,
    ) -> Result<SimTime, RdmaError> {
        let mut w = self.inner.lock();
        if w.eps[ep.index()].pid != ctx.pid() {
            return Err(RdmaError::WrongProcess(ep));
        }
        Ok(w.charge_cpu(ep, ctx.now(), dur))
    }

    /// The instant `ep`'s CPU timeline becomes free (diagnostics/tests).
    pub fn cpu_available(&self, ep: EpId) -> SimTime {
        self.inner.lock().eps[ep.index()].cpu_busy
    }
}

/// Reserve the planned resources, starting no earlier than `earliest`
/// (the end of the poster's CPU work), and return the delivery time.
/// Small messages skip the FIFOs (see [`SMALL_MSG_BYPASS`]). `jitter` is
/// the fabric's delivery jitter, read under the caller's `World` guard.
fn execute_plan(ctx: &ProcessCtx, plan: &PathPlan, earliest: SimTime, jitter: SimDelta) -> SimTime {
    let earliest = if jitter > SimDelta::ZERO {
        earliest + SimDelta::from_ps(ctx.gen_range(jitter.as_ps() + 1))
    } else {
        earliest
    };
    if plan.small {
        // Small messages arbitrate on the control lane: they pay their
        // own serialization and per-message handling there (so a
        // stream of them is still wire/handler rate-limited) but never
        // wait behind bulk transfers.
        let arrive = earliest + plan.latency;
        return match plan.ctrl_lane {
            Some(lane) => {
                ctx.reserve_from(lane, arrive, plan.serialize + plan.rx_overhead)
                    .1
            }
            None => arrive + plan.serialize + plan.rx_overhead,
        };
    }
    let tx_start = match plan.tx {
        Some(tx) => ctx.reserve_from(tx, earliest, plan.serialize).0,
        None => earliest,
    };
    let arrive = tx_start + plan.latency;
    match plan.rx {
        Some(rx) => {
            let (_, rx_end) = ctx.reserve_from(rx, arrive, plan.serialize + plan.rx_overhead);
            rx_end
        }
        None => arrive + plan.serialize + plan.rx_overhead,
    }
}

impl PayloadFaults {
    fn new(plan: PayloadFaultPlan) -> PayloadFaults {
        PayloadFaults {
            plan,
            // splitmix64 init, offset so seed 0 still produces a live stream.
            rng: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next draw of the payload-fault stream (splitmix64).
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roll a permille chance; a rate of 0 consumes no randomness (so
    /// arming one fault class leaves the others' streams untouched).
    fn chance(&mut self, pm: u16) -> bool {
        pm > 0 && self.next() % 1000 < pm as u64
    }

    /// Decide the fault (if any) for one payload of `len` bytes.
    fn roll(&mut self, len: u64) -> PayloadFault {
        if !self.plan.armed() || len == 0 {
            return PayloadFault::None;
        }
        let plan = self.plan;
        if self.chance(plan.drop_pm) {
            PayloadFault::Drop
        } else if self.chance(plan.torn_pm) {
            PayloadFault::Torn(self.next() % len)
        } else if self.chance(plan.flip_pm) {
            PayloadFault::Flip(self.next() % len)
        } else {
            PayloadFault::None
        }
    }
}

impl World {
    /// Move one payload from `src` to `dst`, applying the rolled fault.
    /// Returns true when a fault fired (for stats). Both ranges are
    /// validated even on the faulted paths, so a drop never masks a
    /// protocol-level addressing bug. The bytes go region to region; a
    /// virtual source reads as zeros, a virtual destination takes nothing.
    fn move_payload(
        &mut self,
        src: (EpId, VAddr),
        dst: (EpId, VAddr),
        len: u64,
    ) -> Result<bool, crate::mem::MemError> {
        let (si, di) = (src.0.index(), dst.0.index());
        // One address space cannot lend a source and a destination at
        // once: a move within an endpoint copies its source out first.
        let staged;
        let (from, to) = if si == di {
            let mem = &mut self.eps[si].mem;
            staged = mem.span(src.1, len)?.map(<[u8]>::to_vec);
            (staged.as_deref(), mem.span_mut(dst.1, len)?)
        } else {
            let [s, d] = self
                .eps
                .get_disjoint_mut([si, di])
                .expect("two endpoints of this fabric");
            (s.mem.span(src.1, len)?, d.mem.span_mut(dst.1, len)?)
        };
        let fault = self.payload.roll(len);
        let landed = match fault {
            PayloadFault::None | PayloadFault::Flip(_) => len,
            PayloadFault::Torn(prefix) => prefix,
            PayloadFault::Drop => 0,
        } as usize;
        if let Some(to) = to {
            match from {
                Some(from) => to[..landed].copy_from_slice(&from[..landed]),
                None => to[..landed].fill(0),
            }
            if let PayloadFault::Flip(off) = fault {
                to[off as usize] ^= 0x40;
            }
        }
        Ok(!matches!(fault, PayloadFault::None))
    }

    /// Charge `dur` of CPU time to `ep`, chaining after any prior charge.
    /// Returns the instant the work finishes.
    fn charge_cpu(&mut self, ep: EpId, now: SimTime, dur: SimDelta) -> SimTime {
        let e = &mut self.eps[ep.index()];
        let start = e.cpu_busy.max(now);
        e.cpu_busy = start + dur;
        e.cpu_busy
    }

    fn insert_mr(&mut self, ep: EpId, addr: VAddr, len: u64, kind: MrKind) -> MrKey {
        self.mrs.push(MrEntry {
            ep,
            addr,
            len,
            kind,
            valid: true,
        });
        MrKey(self.mrs.len() as u64)
    }

    /// The registration behind a valid key.
    fn mr(&self, key: MrKey) -> Result<&MrEntry, RdmaError> {
        mr_slot(key)
            .and_then(|i| self.mrs.get(i))
            .filter(|m| m.valid)
            .ok_or(RdmaError::BadKey(key))
    }

    fn check_local_key(
        &self,
        poster: EpId,
        local_ep: EpId,
        addr: VAddr,
        key: MrKey,
        len: u64,
    ) -> Result<(), RdmaError> {
        let entry = self.mr(key)?;
        if entry.ep != local_ep {
            return Err(RdmaError::KeyEndpointMismatch(key));
        }
        if addr.0 < entry.addr.0 || addr.0 + len > entry.addr.0 + entry.len {
            return Err(RdmaError::KeyRangeMismatch(key));
        }
        match entry.kind {
            MrKind::Ib => {
                if poster != local_ep {
                    return Err(RdmaError::PosterCannotUseKey(key));
                }
                Ok(())
            }
            MrKind::Cross { owner_dpu, host_ep } => {
                if poster != owner_dpu || local_ep != host_ep {
                    return Err(RdmaError::PosterCannotUseKey(key));
                }
                Ok(())
            }
            // A raw mkey is only an input to cross-registration; it cannot
            // drive a transfer.
            MrKind::Gvmi { .. } => Err(RdmaError::PosterCannotUseKey(key)),
        }
    }

    fn check_remote_key(
        &self,
        remote_ep: EpId,
        addr: VAddr,
        key: MrKey,
        len: u64,
    ) -> Result<(), RdmaError> {
        let entry = self.mr(key)?;
        if entry.ep != remote_ep {
            return Err(RdmaError::KeyEndpointMismatch(key));
        }
        if !matches!(entry.kind, MrKind::Ib) {
            return Err(RdmaError::PosterCannotUseKey(key));
        }
        if addr.0 < entry.addr.0 || addr.0 + len > entry.addr.0 + entry.len {
            return Err(RdmaError::KeyRangeMismatch(key));
        }
        Ok(())
    }

    /// Decide the route for a payload of `bytes` whose source bytes live at
    /// `src_owner`, posted by `poster`, destined for `dst`.
    fn plan_path(&self, poster: EpId, src_owner: EpId, dst: EpId, bytes: u64) -> PathPlan {
        let m = &self.spec.model;
        let p = &self.eps[poster.index()];
        let s = &self.eps[src_owner.index()];
        let d = &self.eps[dst.index()];
        // The BlueField's DRAM throttles anything staged through DPU
        // memory: payloads read out of, or written into, a DPU endpoint.
        let dpu_mem_cap = |mut bw: u64| {
            if s.class == DeviceClass::Dpu || d.class == DeviceClass::Dpu {
                bw = bw.min(m.dpu_mem_bandwidth);
            }
            bw
        };
        if s.node == d.node {
            // Intra-node.
            if s.class == d.class {
                // Host-host (or dpu-dpu) same node: shared memory copy.
                return PathPlan {
                    latency: m.shm_latency,
                    serialize: SimDelta::for_bytes(bytes, dpu_mem_cap(m.shm_bandwidth)),
                    tx: None,
                    rx: None,
                    rx_overhead: SimDelta::ZERO,
                    ctrl_lane: None,
                    small: bytes <= SMALL_MSG_BYPASS,
                };
            }
            // Host <-> DPU: PCIe hop.
            let res = &self.nodes[s.node];
            let pcie = if s.class == DeviceClass::Host {
                res.pcie_h2d
            } else {
                res.pcie_d2h
            };
            return PathPlan {
                latency: m.pcie_latency,
                serialize: SimDelta::for_bytes(bytes, dpu_mem_cap(m.pcie_bandwidth)),
                tx: Some(pcie),
                rx: None,
                rx_overhead: m.rx_overhead(d.class),
                ctrl_lane: None,
                small: bytes <= SMALL_MSG_BYPASS,
            };
        }
        // Cross-node: transmit on the poster's port, receive on the
        // destination's port.
        let mut latency = m.wire_latency;
        let mut bw = dpu_mem_cap(m.net_bandwidth);
        if s.class != p.class {
            // GVMI path: the DPU port DMAs the payload out of host memory
            // across PCIe while transmitting.
            latency += m.pcie_latency;
            bw = bw.min(m.pcie_bandwidth);
        }
        let tx = match p.class {
            DeviceClass::Host => self.nodes[p.node].host_tx,
            DeviceClass::Dpu => self.nodes[p.node].dpu_tx,
        };
        let rx = match d.class {
            DeviceClass::Host => self.nodes[d.node].host_rx,
            DeviceClass::Dpu => self.nodes[d.node].dpu_rx,
        };
        let ctrl_lane = match d.class {
            DeviceClass::Host => self.nodes[d.node].host_rx_ctrl,
            DeviceClass::Dpu => self.nodes[d.node].dpu_rx_ctrl,
        };
        PathPlan {
            latency,
            serialize: SimDelta::for_bytes(bytes, bw),
            tx: Some(tx),
            rx: Some(rx),
            rx_overhead: m.rx_overhead(d.class),
            ctrl_lane: Some(ctrl_lane),
            small: bytes <= SMALL_MSG_BYPASS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemError;
    use crate::model::NicModel;

    /// Two nodes, 1 rank + 1 proxy each; run `f` as a single driver process
    /// that owns every endpoint (fine for fabric-level unit tests).
    fn with_driver<F>(f: F) -> simnet::Report
    where
        F: AsyncFnOnce(ProcessCtx, Fabric, Vec<EpId>) + Send + 'static,
    {
        let spec = ClusterSpec::new(2, 1);
        let mut sim = Simulation::new(1);
        let fabric = Fabric::new(&mut sim, spec);
        let f2 = fabric.clone();
        sim.spawn_future("driver", async move |ctx| {
            let h0 = f2.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            let h1 = f2.add_endpoint(ctx.pid(), 1, DeviceClass::Host);
            let d0 = f2.add_endpoint(ctx.pid(), 0, DeviceClass::Dpu);
            let d1 = f2.add_endpoint(ctx.pid(), 1, DeviceClass::Dpu);
            f(ctx, f2, vec![h0, h1, d0, d1]).await;
        });
        sim.run().unwrap()
    }

    #[test]
    fn rdma_write_moves_bytes_and_completes() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 1024);
            let dst = fab.alloc(h1, 1024);
            fab.fill_pattern(h0, src, 1024, 7).unwrap();
            let lkey = fab.reg_mr(&ctx, h0, src, 1024).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 1024).unwrap();
            let t0 = ctx.now();
            fab.rdma_write(
                &ctx,
                h0,
                (h0, src, lkey),
                (h1, dst, rkey),
                1024,
                Some(99),
                None,
            )
            .unwrap();
            let msg = ctx.recv_async().await;
            let net = msg.downcast::<NetMsg>().unwrap();
            match *net {
                NetMsg::Cqe(Cqe { wrid }) => assert_eq!(wrid, 99),
                other => panic!("expected CQE, got {other:?}"),
            }
            assert!(fab.verify_pattern(h1, dst, 1024, 7).unwrap());
            let elapsed = ctx.now() - t0;
            // post + wire + serialize + rx + ack: on the order of 2-3 us.
            assert!(
                elapsed.as_us_f64() > 1.0 && elapsed.as_us_f64() < 10.0,
                "{elapsed}"
            );
        });
    }

    #[test]
    fn gvmi_cross_registration_data_path() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1, d0) = (eps[0], eps[1], eps[2]);
            let gvmi = fab.gvmi_of(d0).unwrap();
            let src = fab.alloc(h0, 4096);
            let dst = fab.alloc(h1, 4096);
            fab.fill_pattern(h0, src, 4096, 11).unwrap();
            // Host registers against the proxy's GVMI -> mkey.
            let mkey = fab.reg_mr_gvmi(&ctx, h0, src, 4096, gvmi).unwrap();
            // Raw mkey cannot drive a transfer.
            let rkey = fab.reg_mr(&ctx, h1, dst, 4096).unwrap();
            let err = fab
                .rdma_write(&ctx, d0, (h0, src, mkey), (h1, dst, rkey), 4096, None, None)
                .unwrap_err();
            assert!(matches!(err, RdmaError::PosterCannotUseKey(_)), "{err}");
            // Proxy cross-registers -> mkey2, then transfers host memory.
            let mkey2 = fab.cross_reg(&ctx, d0, src, 4096, mkey, gvmi).unwrap();
            fab.rdma_write(
                &ctx,
                d0,
                (h0, src, mkey2),
                (h1, dst, rkey),
                4096,
                Some(1),
                None,
            )
            .unwrap();
            let _ = ctx.recv_async().await;
            assert!(fab.verify_pattern(h1, dst, 4096, 11).unwrap());
        });
    }

    #[test]
    fn cross_reg_validates_gvmi_and_owner() {
        with_driver(async |ctx, fab, eps| {
            let (h0, d0, d1) = (eps[0], eps[2], eps[3]);
            let g0 = fab.gvmi_of(d0).unwrap();
            let g1 = fab.gvmi_of(d1).unwrap();
            let src = fab.alloc(h0, 64);
            let mkey = fab.reg_mr_gvmi(&ctx, h0, src, 64, g0).unwrap();
            // Wrong proxy: d1 does not own g0.
            let err = fab.cross_reg(&ctx, d1, src, 64, mkey, g0).unwrap_err();
            assert!(matches!(err, RdmaError::WrongGvmi { .. }), "{err}");
            // Wrong gvmi for the mkey.
            let err = fab.cross_reg(&ctx, d1, src, 64, mkey, g1).unwrap_err();
            assert!(matches!(err, RdmaError::WrongGvmi { .. }), "{err}");
            // Host endpoints cannot cross-register.
            let err = fab.cross_reg(&ctx, h0, src, 64, mkey, g0).unwrap_err();
            assert!(
                matches!(err, RdmaError::NotDpu(_) | RdmaError::WrongGvmi { .. }),
                "{err}"
            );
        });
    }

    #[test]
    fn lkey_is_owner_only() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let a0 = fab.alloc(h0, 64);
            let a1 = fab.alloc(h1, 64);
            let k0 = fab.reg_mr(&ctx, h0, a0, 64).unwrap();
            let k1 = fab.reg_mr(&ctx, h1, a1, 64).unwrap();
            // h1 posting with h0's buffer as local must fail.
            let err = fab
                .rdma_write(&ctx, h1, (h0, a0, k0), (h1, a1, k1), 64, None, None)
                .unwrap_err();
            assert!(matches!(err, RdmaError::PosterCannotUseKey(_)), "{err}");
        });
    }

    #[test]
    fn key_range_is_enforced() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 128);
            let dst = fab.alloc(h1, 128);
            let lkey = fab.reg_mr(&ctx, h0, src, 64).unwrap(); // only first 64 B
            let rkey = fab.reg_mr(&ctx, h1, dst, 128).unwrap();
            let err = fab
                .rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 128, None, None)
                .unwrap_err();
            assert!(matches!(err, RdmaError::KeyRangeMismatch(_)), "{err}");
        });
    }

    #[test]
    fn dereg_invalidates_key() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 64);
            let dst = fab.alloc(h1, 64);
            let lkey = fab.reg_mr(&ctx, h0, src, 64).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 64).unwrap();
            fab.dereg(lkey).unwrap();
            let err = fab
                .rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 64, None, None)
                .unwrap_err();
            assert!(matches!(err, RdmaError::BadKey(_)), "{err}");
            assert!(matches!(fab.dereg(lkey).unwrap_err(), RdmaError::BadKey(_)));
        });
    }

    #[test]
    fn only_issued_live_keys_resolve() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 64);
            let dst = fab.alloc(h1, 64);
            let lkey = fab.reg_mr(&ctx, h0, src, 64).unwrap();
            let dead = fab.reg_mr(&ctx, h1, dst, 64).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 64).unwrap();
            fab.dereg(dead).unwrap();
            let never = MrKey(rkey.0 + 1);
            for bad in [MrKey::invalid(), never, dead] {
                let local =
                    fab.rdma_write(&ctx, h0, (h0, src, bad), (h1, dst, rkey), 64, None, None);
                let remote =
                    fab.rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, bad), 64, None, None);
                for err in [
                    local.unwrap_err(),
                    remote.unwrap_err(),
                    fab.dereg(bad).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, RdmaError::BadKey(k) if k == bad),
                        "{bad:?}: {err}"
                    );
                }
            }
            // Deregistering a key leaves its neighbours in the table live.
            fab.rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 64, None, None)
                .unwrap();
        });
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "test code: the receiver hands the body out of the run"
    )]
    fn packet_delivery_carries_body() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let spec = ClusterSpec::new(2, 1);
        let mut sim = Simulation::new(3);
        let fabric = Fabric::new(&mut sim, spec);
        let got = Arc::new(AtomicU64::new(0));
        let got2 = Arc::clone(&got);
        let f_rx = fabric.clone();
        let rx_ep_slot = Arc::new(Mutex::new(None));
        let rx_slot2 = Arc::clone(&rx_ep_slot);
        let rx_pid = sim.spawn_future("rx", async move |ctx| {
            let ep = f_rx.add_endpoint(ctx.pid(), 1, DeviceClass::Host);
            *rx_slot2.lock() = Some(ep);
            let msg = ctx.recv_async().await.downcast::<NetMsg>().unwrap();
            match *msg {
                NetMsg::Packet(p) => {
                    assert_eq!(p.bytes, 256);
                    got2.store(*p.body.downcast::<u64>().unwrap(), Ordering::SeqCst);
                }
                other => panic!("unexpected {other:?}"),
            }
        });
        let f_tx = fabric.clone();
        sim.spawn_future("tx", async move |ctx| {
            let ep = f_tx.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            // Let the receiver register its endpoint first.
            ctx.yield_async().await;
            let to = rx_ep_slot.lock().expect("rx registered");
            assert_eq!(f_tx.pid_of(to), rx_pid);
            f_tx.send_packet(&ctx, ep, to, 256, Box::new(4242u64))
                .unwrap();
        });
        sim.run().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 4242);
    }

    #[test]
    fn host_to_dpu_is_slower_than_host_to_host_for_small_messages() {
        // Reproduces the *shape* of paper Fig. 3 at the fabric level.
        fn measure(dst_is_dpu: bool) -> f64 {
            let spec = ClusterSpec::new(2, 1);
            let mut sim = Simulation::new(5);
            let fabric = Fabric::new(&mut sim, spec);
            let f2 = fabric.clone();
            let elapsed = Arc::new(Mutex::new(0.0f64));
            let e2 = Arc::clone(&elapsed);
            sim.spawn_future("driver", async move |ctx| {
                let src = f2.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
                let dst = f2.add_endpoint(
                    ctx.pid(),
                    1,
                    if dst_is_dpu {
                        DeviceClass::Dpu
                    } else {
                        DeviceClass::Host
                    },
                );
                let sa = f2.alloc(src, 4096);
                let da = f2.alloc(dst, 4096);
                let lkey = f2.reg_mr(&ctx, src, sa, 4096).unwrap();
                let rkey = f2.reg_mr(&ctx, dst, da, 4096).unwrap();
                let t0 = ctx.now();
                // Window of 64 back-to-back writes; wait for the last CQE.
                for i in 0..64 {
                    let signal = if i == 63 { Some(i) } else { None };
                    f2.rdma_write(
                        &ctx,
                        src,
                        (src, sa, lkey),
                        (dst, da, rkey),
                        4096,
                        signal,
                        None,
                    )
                    .unwrap();
                }
                loop {
                    let msg = ctx.recv_async().await.downcast::<NetMsg>().unwrap();
                    if matches!(*msg, NetMsg::Cqe(_)) {
                        break;
                    }
                }
                *e2.lock() = (ctx.now() - t0).as_us_f64();
            });
            sim.run().unwrap();
            let v = *elapsed.lock();
            v
        }
        let host = measure(false);
        let dpu = measure(true);
        let ratio = host / dpu; // effective bandwidth ratio dpu/host
        assert!(
            ratio < 0.75,
            "host-to-DPU should reach well under 75% of host-host bandwidth, got {ratio}"
        );
    }

    #[test]
    fn payload_faults_corrupt_writes_and_crc_detects() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            // Drop every payload: destination keeps its old bytes while
            // the operation still "completes" — silent loss by design.
            fab.set_payload_faults(PayloadFaultPlan {
                drop_pm: 1000,
                ..Default::default()
            });
            // Second arm attempt must be ignored (set-once).
            fab.set_payload_faults(PayloadFaultPlan {
                flip_pm: 1000,
                ..Default::default()
            });
            let src = fab.alloc(h0, 512);
            let dst = fab.alloc(h1, 512);
            fab.fill_pattern(h0, src, 512, 7).unwrap();
            let want = fab.crc32(h0, src, 512).unwrap();
            let lkey = fab.reg_mr(&ctx, h0, src, 512).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 512).unwrap();
            fab.rdma_write(
                &ctx,
                h0,
                (h0, src, lkey),
                (h1, dst, rkey),
                512,
                Some(1),
                None,
            )
            .unwrap();
            let _ = ctx.recv_async().await;
            assert!(!fab.verify_pattern(h1, dst, 512, 7).unwrap());
            assert_ne!(fab.crc32(h1, dst, 512).unwrap(), want);
        });
    }

    /// Run `f` on the world under `plan`, with two host endpoints and a
    /// fresh copy of the fault stream to predict the world's rolls from.
    fn with_world<F>(plan: PayloadFaultPlan, f: F)
    where
        F: FnOnce(&mut World, PayloadFaults, EpId, EpId) + Send + 'static,
    {
        with_driver(async move |_ctx, fab, eps| {
            fab.set_payload_faults(plan);
            f(
                &mut fab.inner.lock(),
                PayloadFaults::new(plan),
                eps[0],
                eps[1],
            );
        });
    }

    /// A region of `ep` holding `seed`'s pattern.
    fn patterned(w: &mut World, ep: EpId, len: u64, seed: u64) -> VAddr {
        let mem = &mut w.eps[ep.index()].mem;
        let a = mem.alloc(len);
        mem.fill_pattern(a, len, seed).unwrap();
        a
    }

    fn bytes(w: &World, ep: EpId, addr: VAddr, len: u64) -> Vec<u8> {
        w.eps[ep.index()].mem.read(addr, len).unwrap()
    }

    const LEN: u64 = 3000;

    #[test]
    fn flip_changes_exactly_one_destination_byte() {
        let plan = PayloadFaultPlan {
            flip_pm: 1000,
            seed: 21,
            ..Default::default()
        };
        with_world(plan, |w, mut rolls, a, b| {
            let PayloadFault::Flip(at) = rolls.roll(LEN) else {
                panic!("a certain flip");
            };
            let (src, dst) = (patterned(w, a, LEN, 1), patterned(w, b, LEN, 2));
            assert!(w.move_payload((a, src), (b, dst), LEN).unwrap());
            let mut want = bytes(w, a, src, LEN);
            assert!(w.eps[a.index()].mem.verify_pattern(src, LEN, 1).unwrap());
            want[at as usize] ^= 0x40;
            assert!(bytes(w, b, dst, LEN) == want);
        });
    }

    #[test]
    fn torn_write_lands_a_prefix_and_nothing_else() {
        let plan = PayloadFaultPlan {
            torn_pm: 1000,
            seed: 22,
            ..Default::default()
        };
        with_world(plan, |w, mut rolls, a, b| {
            let PayloadFault::Torn(prefix) = rolls.roll(LEN) else {
                panic!("a certain tear");
            };
            let (src, dst) = (patterned(w, a, LEN, 1), patterned(w, b, LEN, 2));
            let mut want = bytes(w, b, dst, LEN);
            want[..prefix as usize].copy_from_slice(&bytes(w, a, src, prefix));
            assert!(w.move_payload((a, src), (b, dst), LEN).unwrap());
            assert!(bytes(w, b, dst, LEN) == want);
        });
    }

    #[test]
    fn drop_keeps_the_destination_but_not_a_bad_address() {
        let plan = PayloadFaultPlan {
            drop_pm: 1000,
            ..Default::default()
        };
        with_world(plan, |w, _, a, b| {
            let (src, dst) = (patterned(w, a, LEN, 1), patterned(w, b, LEN, 2));
            assert!(w.move_payload((a, src), (b, dst), LEN).unwrap());
            assert!(w.eps[b.index()].mem.verify_pattern(dst, LEN, 2).unwrap());
            let past = dst.offset(1);
            assert_eq!(
                w.move_payload((a, src), (b, past), LEN),
                Err(MemError::OutOfBounds {
                    addr: past,
                    len: LEN
                })
            );
            let nowhere = dst.offset(LEN);
            assert_eq!(
                w.move_payload((a, src), (b, nowhere), LEN),
                Err(MemError::Unmapped { addr: nowhere })
            );
            // The source's error is reported ahead of the destination's.
            let bad_src = src.offset(LEN);
            assert_eq!(
                w.move_payload((a, bad_src), (b, nowhere), LEN),
                Err(MemError::Unmapped { addr: bad_src })
            );
        });
    }

    #[test]
    fn a_move_draws_once_and_only_after_both_range_checks() {
        let plan = PayloadFaultPlan {
            torn_pm: 1000,
            seed: 23,
            ..Default::default()
        };
        with_world(plan, |w, mut rolls, a, b| {
            let (src, dst) = (patterned(w, a, LEN, 1), patterned(w, b, LEN, 2));
            w.move_payload((a, src), (b, dst.offset(1)), LEN)
                .unwrap_err();
            w.move_payload((a, src.offset(1)), (b, dst), LEN)
                .unwrap_err();
            // Empty payloads never roll.
            assert!(!w.move_payload((a, src), (b, dst), 0).unwrap());
            for _ in 0..3 {
                let PayloadFault::Torn(prefix) = rolls.roll(LEN) else {
                    panic!("a certain tear");
                };
                w.eps[b.index()].mem.fill_pattern(dst, LEN, 2).unwrap();
                let mut want = bytes(w, b, dst, LEN);
                want[..prefix as usize].copy_from_slice(&bytes(w, a, src, prefix));
                assert!(w.move_payload((a, src), (b, dst), LEN).unwrap());
                assert!(bytes(w, b, dst, LEN) == want);
            }
        });
    }

    #[test]
    fn moves_within_one_endpoint() {
        with_world(PayloadFaultPlan::default(), |w, _, a, _| {
            // Neighbouring regions of one address space.
            let (src, dst) = (patterned(w, a, LEN, 1), patterned(w, a, LEN, 2));
            assert!(!w.move_payload((a, src), (a, dst), LEN).unwrap());
            let mem = &w.eps[a.index()].mem;
            assert!(mem.verify_pattern(src, LEN, 1).unwrap());
            assert!(mem.verify_pattern(dst, LEN, 1).unwrap());
            // Neighbouring, then overlapping, halves of one region.
            let half = LEN / 2;
            assert!(!w
                .move_payload((a, src), (a, src.offset(half)), half)
                .unwrap());
            assert!(bytes(w, a, src, half) == bytes(w, a, src.offset(half), half));
            let before = bytes(w, a, dst, half);
            assert!(!w.move_payload((a, dst), (a, dst.offset(7)), half).unwrap());
            assert!(bytes(w, a, dst.offset(7), half) == before);
        });
    }

    #[test]
    fn a_virtual_source_lands_as_zeros() {
        let plan = PayloadFaultPlan {
            flip_pm: 1000,
            seed: 24,
            ..Default::default()
        };
        with_world(plan, |w, mut rolls, a, b| {
            let PayloadFault::Flip(at) = rolls.roll(LEN) else {
                panic!("a certain flip");
            };
            let src = w.eps[a.index()].mem.alloc_virtual(LEN);
            let dst = patterned(w, b, LEN, 2);
            assert!(w.move_payload((a, src), (b, dst), LEN).unwrap());
            let mut want = vec![0; LEN as usize];
            want[at as usize] = 0x40;
            assert!(bytes(w, b, dst, LEN) == want);
            // And a virtual destination takes nothing, fault or not.
            assert!(w.move_payload((b, dst), (a, src), LEN).unwrap());
        });
    }

    #[test]
    fn every_faulted_transfer_is_counted_once() {
        let report = with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            fab.set_payload_faults(PayloadFaultPlan {
                drop_pm: 1000,
                ..Default::default()
            });
            let src = fab.alloc(h0, 512);
            let dst = fab.alloc(h1, 512);
            let lkey = fab.reg_mr(&ctx, h0, src, 512).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 512).unwrap();
            for _ in 0..2 {
                fab.rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 512, None, None)
                    .unwrap();
            }
            fab.rdma_read(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 512, None)
                .unwrap();
            // A transfer refused for its addresses is not a payload fault.
            fab.rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 513, None, None)
                .unwrap_err();
        });
        assert_eq!(report.stats.counter("rdma.fault.payload"), 3);
    }

    #[test]
    fn unarmed_payload_plan_is_inert() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            fab.set_payload_faults(PayloadFaultPlan::default());
            let src = fab.alloc(h0, 256);
            let dst = fab.alloc(h1, 256);
            fab.fill_pattern(h0, src, 256, 9).unwrap();
            let lkey = fab.reg_mr(&ctx, h0, src, 256).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 256).unwrap();
            fab.rdma_write(
                &ctx,
                h0,
                (h0, src, lkey),
                (h1, dst, rkey),
                256,
                Some(1),
                None,
            )
            .unwrap();
            let _ = ctx.recv_async().await;
            assert!(fab.verify_pattern(h1, dst, 256, 9).unwrap());
            assert_eq!(
                fab.crc32(h1, dst, 256).unwrap(),
                fab.crc32(h0, src, 256).unwrap()
            );
        });
    }

    #[test]
    fn rdma_read_pulls_bytes() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let remote = fab.alloc(h1, 512);
            let local = fab.alloc(h0, 512);
            fab.fill_pattern(h1, remote, 512, 21).unwrap();
            let lkey = fab.reg_mr(&ctx, h0, local, 512).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, remote, 512).unwrap();
            fab.rdma_read(
                &ctx,
                h0,
                (h0, local, lkey),
                (h1, remote, rkey),
                512,
                Some(5),
            )
            .unwrap();
            let msg = ctx.recv_async().await.downcast::<NetMsg>().unwrap();
            assert!(matches!(*msg, NetMsg::Cqe(Cqe { wrid: 5 })));
            assert!(fab.verify_pattern(h0, local, 512, 21).unwrap());
        });
    }

    #[test]
    fn notify_arrives_at_delivery_time() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 64);
            let dst = fab.alloc(h1, 64);
            let lkey = fab.reg_mr(&ctx, h0, src, 64).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 64).unwrap();
            let me = ctx.pid();
            let deliver = fab
                .rdma_write(
                    &ctx,
                    h0,
                    (h0, src, lkey),
                    (h1, dst, rkey),
                    64,
                    None,
                    Some((me, Box::new("arrived"))),
                )
                .unwrap();
            let msg = ctx.recv_async().await.downcast::<NetMsg>().unwrap();
            match *msg {
                NetMsg::Notify(p) => assert_eq!(*p.downcast::<&str>().unwrap(), "arrived"),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(ctx.now(), deliver);
        });
    }

    #[test]
    fn registration_cost_scales_with_size() {
        // Registration charges the endpoint's CPU timeline; a big buffer
        // occupies it for much longer than a small one.
        with_driver(async |ctx, fab, eps| {
            let h0 = eps[0];
            let small = fab.alloc(h0, 4096);
            let big = fab.alloc(h0, 1 << 20);
            fab.reg_mr(&ctx, h0, small, 4096).unwrap();
            let t_small = fab.cpu_available(h0) - ctx.now();
            fab.reg_mr(&ctx, h0, big, 1 << 20).unwrap();
            let t_total = fab.cpu_available(h0) - ctx.now();
            let t_big = t_total - t_small;
            assert!(t_big > t_small * 2, "big reg {t_big} vs small {t_small}");
        });
    }

    #[test]
    fn cpu_charges_delay_subsequent_transfers() {
        with_driver(async |ctx, fab, eps| {
            let (h0, h1) = (eps[0], eps[1]);
            let src = fab.alloc(h0, 64);
            let dst = fab.alloc(h1, 64);
            let lkey = fab.reg_mr(&ctx, h0, src, 64).unwrap();
            let rkey = fab.reg_mr(&ctx, h1, dst, 64).unwrap();
            // Baseline delivery time.
            let base = fab
                .rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 64, None, None)
                .unwrap();
            // Stack a big CPU charge; the next post must chain after it.
            fab.charge_cpu(&ctx, h0, SimDelta::from_us(500)).unwrap();
            let delayed = fab
                .rdma_write(&ctx, h0, (h0, src, lkey), (h1, dst, rkey), 64, None, None)
                .unwrap();
            assert!(
                delayed - base >= SimDelta::from_us(499),
                "second write should be pushed past the CPU charge: {base} -> {delayed}"
            );
        });
    }

    #[test]
    fn wrong_process_is_rejected() {
        let spec = ClusterSpec::new(1, 2).with_model(NicModel::default());
        let mut sim = Simulation::new(9);
        let fabric = Fabric::new(&mut sim, spec);
        let f1 = fabric.clone();
        let ep_slot = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&ep_slot);
        sim.spawn_future("owner", async move |ctx| {
            let ep = f1.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
            f1.alloc(ep, 64);
            *slot2.lock() = Some(ep);
            ctx.sleep_async(SimDelta::from_us(10)).await;
        });
        let f2 = fabric.clone();
        sim.spawn_future("intruder", async move |ctx| {
            ctx.yield_async().await;
            let ep = ep_slot.lock().expect("owner registered");
            let addr = f2.alloc(ep, 64);
            let err = f2.reg_mr(&ctx, ep, addr, 64).unwrap_err();
            assert!(matches!(err, RdmaError::WrongProcess(_)), "{err}");
        });
        sim.run().unwrap();
    }
}
