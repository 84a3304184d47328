//! Per-process message routing.
//!
//! A simulated process has a single simnet mailbox, but may run several
//! protocol engines at once (e.g. the mini-MPI library *and* the offload
//! framework in the same application rank). [`Inbox`] demultiplexes
//! incoming [`NetMsg`]s into per-engine [`Channel`]s using registered
//! predicates, so one engine's wait never swallows another engine's
//! completions.
//!
//! `Inbox` is process-local (it lives with the process body and is not
//! `Send`); create it inside the process closure or future.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::ProcessCtx;

use crate::types::NetMsg;

struct ChannelState {
    pred: Box<dyn Fn(&NetMsg) -> bool>,
    queue: VecDeque<NetMsg>,
}

struct InboxInner {
    channels: Vec<ChannelState>,
    dropped: u64,
}

/// Demultiplexer over the process mailbox.
#[derive(Clone)]
pub struct Inbox {
    inner: Rc<RefCell<InboxInner>>,
}

impl Default for Inbox {
    fn default() -> Self {
        Inbox::new()
    }
}

impl Inbox {
    /// An inbox with no channels.
    pub fn new() -> Self {
        Inbox {
            inner: Rc::new(RefCell::new(InboxInner {
                channels: Vec::new(),
                dropped: 0,
            })),
        }
    }

    /// Register a channel claiming every message for which `pred` is true.
    /// Channels are consulted in registration order.
    pub fn channel(&self, pred: impl Fn(&NetMsg) -> bool + 'static) -> Channel {
        let mut inner = self.inner.borrow_mut();
        inner.channels.push(ChannelState {
            pred: Box::new(pred),
            queue: VecDeque::new(),
        });
        Channel {
            inbox: self.clone(),
            idx: inner.channels.len() - 1,
        }
    }

    /// Route one raw mailbox payload.
    fn route(&self, payload: simnet::Payload) {
        let msg = match payload.downcast::<NetMsg>() {
            Ok(m) => *m,
            Err(_) => {
                self.inner.borrow_mut().dropped += 1;
                return;
            }
        };
        let mut inner = self.inner.borrow_mut();
        for ch in &mut inner.channels {
            if (ch.pred)(&msg) {
                ch.queue.push_back(msg);
                return;
            }
        }
        inner.dropped += 1;
    }

    /// Drain everything currently in the process mailbox into channels.
    pub fn pump(&self, ctx: &ProcessCtx) {
        while let Some(p) = ctx.try_recv() {
            self.route(p);
        }
    }

    /// Messages that matched no channel (should stay zero in correct code).
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }
}

/// One engine's view of the inbox.
#[derive(Clone)]
pub struct Channel {
    inbox: Inbox,
    idx: usize,
}

impl Channel {
    /// Non-blocking: next message claimed by this channel, if any.
    pub fn try_next(&self, ctx: &ProcessCtx) -> Option<NetMsg> {
        self.inbox.pump(ctx);
        self.inbox.inner.borrow_mut().channels[self.idx]
            .queue
            .pop_front()
    }

    /// Wait until this channel has a message. Messages for other
    /// channels arriving in the meantime are queued for them, not lost.
    pub async fn next(&self, ctx: &ProcessCtx) -> NetMsg {
        loop {
            if let Some(m) = self.try_next(ctx) {
                return m;
            }
            // Wait for one raw message and route it; it may be ours.
            let p = ctx.recv_async().await;
            self.inbox.route(p);
        }
    }

    /// Number of messages queued for this channel (after a pump).
    pub fn len(&self, ctx: &ProcessCtx) -> usize {
        self.inbox.pump(ctx);
        self.inbox.inner.borrow().channels[self.idx].queue.len()
    }

    /// Whether the channel is empty (after a pump).
    pub fn is_empty(&self, ctx: &ProcessCtx) -> bool {
        self.len(ctx) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cqe, NetMsg};
    use simnet::{SimDelta, Simulation};
    use std::sync::Arc;

    fn cqe(wrid: u64) -> Box<NetMsg> {
        Box::new(NetMsg::Cqe(Cqe { wrid }))
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "test code: the receiver reports what it saw out of the run"
    )]
    fn messages_route_to_matching_channel() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut sim = Simulation::new(0);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let rx = sim.spawn_future("rx", async move |ctx| {
            let inbox = Inbox::new();
            let low = inbox.channel(|m| matches!(m, NetMsg::Cqe(c) if c.wrid < 100));
            let high = inbox.channel(|m| matches!(m, NetMsg::Cqe(c) if c.wrid >= 100));
            // Wait on `high` even though a `low` message arrives first.
            let m = high.next(&ctx).await;
            assert!(matches!(m, NetMsg::Cqe(Cqe { wrid: 150 })));
            // The low message was preserved.
            let m = low.try_next(&ctx).expect("low message kept");
            assert!(matches!(m, NetMsg::Cqe(Cqe { wrid: 1 })));
            seen2.store(1, Ordering::SeqCst);
        });
        sim.spawn_future("tx", async move |ctx| {
            ctx.deliver(rx, SimDelta::from_ns(10), cqe(1));
            ctx.deliver(rx, SimDelta::from_ns(20), cqe(150));
        });
        sim.run().unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unmatched_messages_are_counted() {
        let mut sim = Simulation::new(0);
        let rx = sim.spawn_future("rx", async move |ctx| {
            let inbox = Inbox::new();
            let ch = inbox.channel(|_| false); // claims nothing
            ctx.sleep_async(SimDelta::from_ns(100)).await;
            assert!(ch.try_next(&ctx).is_none());
            assert_eq!(inbox.dropped(), 1);
        });
        sim.spawn_future("tx", async move |ctx| {
            ctx.deliver(rx, SimDelta::from_ns(10), cqe(7));
        });
        sim.run().unwrap();
    }

    #[test]
    fn first_matching_channel_wins() {
        let mut sim = Simulation::new(0);
        let rx = sim.spawn_future("rx", async move |ctx| {
            let inbox = Inbox::new();
            let a = inbox.channel(|_| true);
            let b = inbox.channel(|_| true);
            ctx.sleep_async(SimDelta::from_ns(100)).await;
            assert!(a.try_next(&ctx).is_some());
            assert!(b.try_next(&ctx).is_none());
        });
        sim.spawn_future("tx", async move |ctx| {
            ctx.deliver(rx, SimDelta::from_ns(10), cqe(7));
        });
        sim.run().unwrap();
    }
}
