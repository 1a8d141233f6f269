//! The [`Node`] trait and the context handed to node callbacks.

use crate::engine::EngineCore;
use crate::event::TimerHandle;
use extmem_types::{NodeId, PortId, Rate, Time, TimeDelta};
use extmem_wire::Packet;
use rand::rngs::StdRng;
use std::any::Any;

/// Anything attached to the simulated topology.
///
/// A node owns its ports' queues: the engine serializes at most one packet
/// per `(node, port)` at a time and calls [`Node::on_tx_done`] when the wire
/// is free again, if the node asked to hear about it. This "one in flight,
/// you manage the queue" contract is what
/// lets the switch model expose true egress-queue depth to the paper's
/// packet-buffer primitive.
///
/// Implementations must be deterministic: any randomness must come from
/// [`NodeCtx::rng`].
///
/// `Send` because the parallel scheduler backend moves each partition's
/// nodes onto a worker thread; a node is still only ever called from one
/// thread at a time.
pub trait Node: Any + Send {
    /// A packet finished arriving on `port`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet);

    /// A timer scheduled via [`NodeCtx::schedule`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// The packet last started on `port` has fully serialized; the port
    /// can transmit again. Fires for every [`NodeCtx::start_tx`]; for a
    /// [`NodeCtx::start_tx_unwatched`] see there. An unwatched completion
    /// frees the port without a callback (and without an event).
    fn on_tx_done(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId) {}

    /// The node lost power (scheduled via `Simulator::schedule_crash`).
    /// Implementations drop volatile state here — queues, in-flight work,
    /// DRAM contents. While crashed the engine discards the node's
    /// deliveries and timers, so a non-restarted node is simply dark.
    fn on_crash(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// The node powered back up (scheduled via
    /// `Simulator::schedule_restart`). State is whatever `on_crash` left;
    /// implementations re-arm whatever a cold boot would.
    fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Human-readable name for traces and panics.
    fn name(&self) -> &str;
}

/// The engine-backed context available during node callbacks.
///
/// All interaction with the outside world — sending, timers, randomness —
/// goes through this handle, which keeps nodes testable and the simulation
/// deterministic.
pub struct NodeCtx<'a> {
    pub(crate) core: &'a mut EngineCore,
    pub(crate) node: NodeId,
}

impl NodeCtx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Begin serializing `packet` out of `port`; [`Node::on_tx_done`] fires
    /// when the port is free again.
    ///
    /// # Panics
    ///
    /// Panics if the port is not connected or is already transmitting —
    /// both are programming errors in the calling node; use [`crate::TxQueue`]
    /// to queue behind an in-flight packet.
    pub fn start_tx(&mut self, port: PortId, packet: Packet) {
        self.core.start_tx(self.node, port, packet, true);
    }

    /// [`NodeCtx::start_tx`] for a node with nothing to do when the port
    /// frees up. [`Node::on_tx_done`] fires only if
    /// [`NodeCtx::watch_tx_done`] asks for it before then, or if the
    /// completion is keyed before an event already dispatched (a
    /// zero-length frame started by a later-keyed event at the same
    /// instant), which makes it an event regardless. The
    /// port reads busy and idle at exactly the same points in the event
    /// order either way; only the completion's own event is saved.
    ///
    /// # Panics
    ///
    /// As [`NodeCtx::start_tx`].
    pub fn start_tx_unwatched(&mut self, port: PortId, packet: Packet) {
        self.core.start_tx(self.node, port, packet, false);
    }

    /// Make the transmit in flight on `port` fire [`Node::on_tx_done`] when
    /// it completes, at the same point in the event order as if it had been
    /// started with [`NodeCtx::start_tx`]. Call it when something starts
    /// waiting for the port. A no-op on an idle port or a completion that
    /// already fires.
    pub fn watch_tx_done(&mut self, port: PortId) {
        self.core.watch_tx_done(self.node, port);
    }

    /// Whether `port` is currently serializing a packet.
    pub fn tx_busy(&self, port: PortId) -> bool {
        self.core.tx_busy(self.node, port)
    }

    /// Whether `port` is connected to a link.
    pub fn port_connected(&self, port: PortId) -> bool {
        self.core.port_link(self.node, port).is_some()
    }

    /// The line rate of the link attached to `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not connected.
    pub fn link_rate(&self, port: PortId) -> Rate {
        self.core.link_rate(self.node, port)
    }

    /// Schedule [`Node::on_timer`] to fire after `delay` with `token`.
    pub fn schedule(&mut self, delay: TimeDelta, token: u64) {
        self.core.schedule_timer(self.node, delay, token);
    }

    /// Like [`NodeCtx::schedule`], but returns a handle the node can pass
    /// to [`NodeCtx::cancel_timer`] if the timer becomes moot.
    pub fn schedule_cancellable(&mut self, delay: TimeDelta, token: u64) -> TimerHandle {
        self.core
            .schedule_timer_cancellable(self.node, delay, token)
    }

    /// Cancel a timer scheduled with [`NodeCtx::schedule_cancellable`].
    /// Returns `false` if it already fired or was already cancelled.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.core.cancel_timer(handle)
    }

    /// This node's RNG stream. Per-node (derived from the simulation seed),
    /// so a node's draws depend only on its own callback sequence — the
    /// same on every scheduler backend, parallel included.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.node_rng[self.node.raw() as usize]
    }
}
