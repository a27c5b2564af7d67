//! Zero-cost audit observation for the slot engine.
//!
//! The invariant audit ([`crate::audit`]) probes the run at every
//! injection, transmission, loss and delivery. Routing those probes
//! through a trait with a const `ENABLED` flag lets the engine
//! monomorphize two copies of the run loop: the audited copy runs with
//! the [`crate::audit::Audit`] itself as the observer, and the release
//! copy ([`NullObserver`]) compiles every probe down to nothing. Both
//! copies run the one TX body and the one deliver body.
//!
//! **Observation order:** probes fire where their events happen — at the
//! epoch boundary, then every arrival probe (deliveries, evictions,
//! blackholes, dropped counterfeits) in due order during the receive
//! pass, then the TX-side probes in (node, uplink) order during the
//! transmit pass.

use crate::audit::LossCause;
use sirius_core::cell::{Cell, FlowId};
use sirius_core::node::SiriusNode;
use sirius_core::topology::NodeId;

/// Observation points of the engine; [`crate::audit::Audit`]'s
/// implementation documents each probe's semantics.
pub(crate) trait SlotObserver {
    /// `true` only for observers that do work. The engine consults this
    /// to skip *computing probe inputs* (e.g. the in-flight sum fed to
    /// `epoch_check`, the sender of each launched cell); the probe calls
    /// themselves need no guard — the null impls inline to nothing.
    const ENABLED: bool;

    fn note_data_tx(&mut self, slot: u64, node: NodeId, uplink: u16);
    fn note_injected(&mut self);
    fn note_delivery(&mut self, cell: &Cell, released_cells: u32);
    fn note_evicted(&mut self, flow: FlowId);
    fn note_lost(&mut self, cause: LossCause, node: NodeId, epoch: u64);
    fn note_blackholed(&mut self, node: NodeId, epoch: u64);
    fn note_suspicion(&mut self, epoch: u64, node: NodeId);
    fn note_column_omitted(&mut self, node: NodeId, uplink: u16, omitted: bool);
    fn note_forged_tx(&mut self, node: NodeId, epoch: u64);
    fn note_forged_dropped(&mut self);
    fn epoch_check(&mut self, epoch: u64, nodes: &[SiriusNode], in_flight: u64);
}

/// The release path: every probe is a no-op the optimizer erases.
pub(crate) struct NullObserver;

impl SlotObserver for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn note_data_tx(&mut self, _: u64, _: NodeId, _: u16) {}
    #[inline(always)]
    fn note_injected(&mut self) {}
    #[inline(always)]
    fn note_delivery(&mut self, _: &Cell, _: u32) {}
    #[inline(always)]
    fn note_evicted(&mut self, _: FlowId) {}
    #[inline(always)]
    fn note_lost(&mut self, _: LossCause, _: NodeId, _: u64) {}
    #[inline(always)]
    fn note_blackholed(&mut self, _: NodeId, _: u64) {}
    #[inline(always)]
    fn note_suspicion(&mut self, _: u64, _: NodeId) {}
    #[inline(always)]
    fn note_column_omitted(&mut self, _: NodeId, _: u16, _: bool) {}
    #[inline(always)]
    fn note_forged_tx(&mut self, _: NodeId, _: u64) {}
    #[inline(always)]
    fn note_forged_dropped(&mut self) {}
    #[inline(always)]
    fn epoch_check(&mut self, _: u64, _: &[SiriusNode], _: u64) {}
}
