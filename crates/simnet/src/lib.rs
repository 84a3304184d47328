//! # simnet — deterministic discrete-event simulation engine
//!
//! `simnet` is the substrate under the whole repository: a sequential,
//! bit-for-bit reproducible discrete-event simulator with a virtual clock
//! in integer picoseconds. A "process" comes in three kinds: an `async`
//! body the scheduler polls on its own thread
//! ([`Simulation::spawn_future`]); an ordinary Rust closure on a dedicated
//! OS thread ([`Simulation::spawn`]), where a per-process baton guarantees
//! that at most one thread executes at a time, so simulated code can use
//! natural blocking control flow; or, for a process that only ever reacts
//! to messages, an inline [`Reactor`] ([`Simulation::spawn_reactor`]): no
//! thread, called by the scheduler once per message.
//!
//! The crates above this one model an HPC cluster: `rdma` adds verbs-style
//! NICs, memory registration and GVMI keys; `minimpi` adds an MPI-like
//! library; the `offload` crate implements the paper's DPU offload
//! framework.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Simulation, SimDelta};
//!
//! let mut sim = Simulation::new(1);
//! let rx = sim.spawn("receiver", |ctx| {
//!     let msg = ctx.recv();
//!     assert_eq!(*msg.downcast::<&str>().unwrap(), "ping");
//! });
//! sim.spawn("sender", move |ctx| {
//!     ctx.compute(SimDelta::from_us(2));
//!     ctx.deliver(rx, SimDelta::from_ns(900), Box::new("ping"));
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time.as_ns_f64(), 2_900.0);
//! ```

#![warn(missing_docs)]

mod emit;
mod event;
mod process;
mod resource;
mod rng;
mod shard;
mod sim;
mod stats;
mod time;
mod trace;

pub use emit::{deliver_batched, Emitted, EventSink, EMIT_BATCH};
pub use process::{BlockReason, Payload, Pid, ProcStatus, Reactor};
pub use resource::ResourceId;
pub use rng::SimRng;
pub use shard::{
    EngineProfile, ShardStats, SCOPE_ENGINE_BARRIER_WAIT, SCOPE_ENGINE_COORDINATOR,
    SCOPE_ENGINE_EMIT_MERGE, SCOPE_ENGINE_EXEC,
};
pub use sim::{
    engine_events, OpenSpan, ProcReport, ProcessCtx, Report, SimError, Simulation,
    SIMNET_THREADS_ENV,
};
pub use stats::{StatKey, Stats};
pub use time::{SimDelta, SimTime};
pub use trace::{SpanRecord, Trace, TraceRecord};
