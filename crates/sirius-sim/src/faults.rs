//! Scriptable fault injection for the Sirius simulator (§4.5).
//!
//! The injector owns the *ground truth* of what is broken and when; the
//! simulator never tells its routing plane about any of it. Detection is
//! emergent: a fault only affects routing once the silence-driven
//! [`sirius_core::fault::FailureDetector`] notices the missing scheduled
//! slots and stages a consistent update (see `sirius_net`).
//!
//! Supported faults:
//!
//! * **Fail-stop crashes** ([`FaultEvent::Crash`]) — the node stops
//!   transmitting (no data, no keepalives) and blackholes arrivals, with
//!   optional scheduled [`FaultEvent::Recover`].
//! * **Grey links** ([`FaultEvent::GreyLink`]) — one TX column erases
//!   cells with a probability fed from the `sirius-optics` BER model
//!   ([`FaultInjector::grey_link_from_ber`]): a degraded transceiver drops
//!   cells on specific paths while the node stays otherwise healthy.
//! * **Mistuned lasers** ([`FaultEvent::Mistune`]) — a stuck/mistuned
//!   tunable laser shifts the node's wavelength by a fixed slot offset, so
//!   its cells land on the *wrong* RX port (corrupting whatever legitimate
//!   cell arrives there) for the duration of the window.
//! * **Control loss** ([`FaultEvent::ControlLoss`]) — request/grant
//!   messages in `CcMode::Protocol` are dropped with a probability; the
//!   protocol's sticky-request re-issue and grant-expiry backstops must
//!   absorb this without losing data.
//! * **Laser-bank failure** ([`FaultEvent::BankFailure`]) — one
//!   `sirius-optics::laser::fixed_bank` SOA chip in a disaggregated
//!   per-(group, uplink) bank dies, silencing a contiguous wavelength
//!   band. The AWGR's cyclic route relation maps each dead channel to
//!   exactly one output port ([`sirius_optics::awgr::Awgr::
//!   dead_outputs_for_chip`]), so the blast radius is a *correlated set
//!   of TX columns*: one column each on several distinct nodes of the
//!   group, all on the same uplink.
//! * **Laser-bank drift** ([`FaultEvent::BankDrift`]) — the slow-failure
//!   sibling of a bank failure: an SOA chip's gain decays over a scripted
//!   window, ramping the receive power (and with it the post-FEC cell
//!   drop probability, via the same BER model as
//!   [`FaultInjector::grey_link_from_ber`]) from healthy to its final
//!   value. The AWGR route relation expands the chip's channel band into
//!   a *correlated set of grey columns whose erasure probability rises
//!   together* — the hard detection case: early in the ramp the columns
//!   still deliver most slots, so silence-based suspicion necessarily
//!   lags the ground-truth onset.
//! * **AWGR grating fault** ([`FaultEvent::GratingFault`]) — a damaged
//!   grating band kills an input-port range of the (group, uplink) AWGR
//!   outright: those nodes' TX columns on that uplink go dark.
//! * **Byzantine data plane** ([`FaultEvent::Byzantine`]) — a compromised
//!   node forges cell headers (wrong src/dst/flow), replays stale grants
//!   and inflates its request counts. Forgery draws come from the node's
//!   own per-node RNG stream; the RX-side filter (see `engine::deliver`) bounds the damage per
//!   epoch, then quarantines the liar.
//!
//! Fault randomness is decoupled from the simulator's protocol RNG
//! (`seed ^ salt`), and erasure draws are made once per *scheduled slot*
//! in a fault window — never per data cell — so a fault script perturbs
//! the protocol's random choices not at all and double runs stay
//! bit-identical. Per-slot grey-erasure draws additionally come from
//! **per-node streams** ([`FaultInjector::node_streams`]): each sender
//! consumes only its own stream, so the draw sequence a node sees is a
//! function of the script, the seed and that node's own slots — the
//! draw order every faulted golden digest pins. Epoch-boundary draws
//! (control loss) stay on the injector's own stream
//! ([`FaultInjector::draw`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius_core::topology::NodeId;
use sirius_optics::awgr::Awgr;
use sirius_optics::ber::{Modulation, Receiver};
use sirius_optics::fec::KP4;

/// One scripted fault. Windows are `[from, until)` in epochs; events are
/// instantaneous at their epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Fail-stop: `node` dies at `epoch`.
    Crash { node: NodeId, epoch: u64 },
    /// `node` reboots at `epoch` (queues survive; detector state does not).
    Recover { node: NodeId, epoch: u64 },
    /// TX column `uplink` of `node` erases each scheduled slot with
    /// probability `drop_prob` during `[from, until)`.
    GreyLink {
        node: NodeId,
        uplink: u16,
        drop_prob: f64,
        from: u64,
        until: u64,
    },
    /// `node`'s laser is stuck `offset` grating ports away from its tuning
    /// target during `[from, until)`: every cell it sends lands on the RX
    /// port scheduled `offset` slots later in the cycle.
    Mistune {
        node: NodeId,
        offset: u16,
        from: u64,
        until: u64,
    },
    /// Request/grant messages are dropped with `drop_prob` during
    /// `[from, until)` (Protocol mode only).
    ControlLoss {
        drop_prob: f64,
        from: u64,
        until: u64,
    },
    /// Correlated domain: SOA chip `chip` (of `chip_capacity` channels,
    /// the `FixedLaserBank::new` layout) of the disaggregated laser bank
    /// feeding `(group, uplink)` dies during `[from, until)`. Every
    /// wavelength on the chip goes dark, and the AWGR route relation
    /// turns the contiguous channel band into a set of dead TX columns —
    /// one column each on distinct nodes of the group, all on `uplink`.
    BankFailure {
        group: u16,
        uplink: u16,
        chip: u16,
        chip_capacity: u16,
        from: u64,
        until: u64,
    },
    /// Correlated domain, slow version: SOA chip `chip` of the bank
    /// feeding `(group, uplink)` *ages* during `[from, until)` — its
    /// receive power ramps linearly from `rx_dbm_from` (healthy) to
    /// `rx_dbm_to` (degraded), and the BER→FEC model turns each epoch's
    /// power into that epoch's per-cell drop probability on every TX
    /// column the chip's channels feed. Unlike [`FaultEvent::BankFailure`]
    /// the columns stay *partially* alive, so detection latency is a
    /// property of the ramp, not of the silence threshold alone.
    BankDrift {
        group: u16,
        uplink: u16,
        chip: u16,
        chip_capacity: u16,
        /// Receive power at `from`, dBm (typically healthy).
        rx_dbm_from: f64,
        /// Receive power reached at `until`, dBm.
        rx_dbm_to: f64,
        modulation: Modulation,
        cell_bytes: u32,
        from: u64,
        until: u64,
    },
    /// Correlated domain: the input-port band `[port_lo, port_hi)` of the
    /// `(group, uplink)` AWGR is destroyed during `[from, until)` — the
    /// TX columns of those nodes on `uplink` go dark fleet-visible.
    GratingFault {
        group: u16,
        uplink: u16,
        port_lo: u16,
        port_hi: u16,
        from: u64,
        until: u64,
    },
    /// `node`'s data plane is compromised during `[from, until)`: on each
    /// otherwise-idle scheduled slot it forges a cell with probability
    /// `forge_prob` (fabricated src or replayed stale grant), and at each
    /// epoch boundary it injects `extra_requests` counterfeit bandwidth
    /// requests at random intermediates.
    Byzantine {
        node: NodeId,
        forge_prob: f64,
        extra_requests: u32,
        from: u64,
        until: u64,
    },
}

impl FaultEvent {
    fn name(&self) -> &'static str {
        match self {
            FaultEvent::Crash { .. } => "Crash",
            FaultEvent::Recover { .. } => "Recover",
            FaultEvent::GreyLink { .. } => "GreyLink",
            FaultEvent::Mistune { .. } => "Mistune",
            FaultEvent::ControlLoss { .. } => "ControlLoss",
            FaultEvent::BankFailure { .. } => "BankFailure",
            FaultEvent::BankDrift { .. } => "BankDrift",
            FaultEvent::GratingFault { .. } => "GratingFault",
            FaultEvent::Byzantine { .. } => "Byzantine",
        }
    }

    /// The blast radius of a correlated-domain event in a deployment of
    /// `n` nodes in groups of `group_size` (= AWGR ports = bank
    /// wavelengths per group): the TX columns it degrades, one per
    /// affected node, all on the event's uplink. A bank chip's channel
    /// band maps through the AWGR's cyclic route relation to one output
    /// port — one node's column — per dead channel; a grating band is
    /// its input-port range directly. Empty for every other event.
    pub fn columns(&self, group_size: usize, n: usize) -> Vec<(NodeId, u16)> {
        let (group, uplink, ports) = match *self {
            FaultEvent::BankFailure {
                group,
                uplink,
                chip,
                chip_capacity,
                ..
            }
            | FaultEvent::BankDrift {
                group,
                uplink,
                chip,
                chip_capacity,
                ..
            } => {
                let input = uplink % group_size as u16;
                let ports =
                    Awgr::new(group_size as u16).dead_outputs_for_chip(input, chip, chip_capacity);
                (group, uplink, ports)
            }
            FaultEvent::GratingFault {
                group,
                uplink,
                port_lo,
                port_hi,
                ..
            } => {
                let ports = (port_lo..port_hi.min(group_size as u16)).collect();
                (group, uplink, ports)
            }
            _ => return Vec::new(),
        };
        ports
            .into_iter()
            .map(|port| group as usize * group_size + port as usize)
            .filter(|&node| node < n)
            .map(|node| (NodeId(node as u32), uplink))
            .collect()
    }
}

/// A malformed fault script, rejected at build time by
/// [`FaultInjector::validate`] instead of silently never firing.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultScriptError {
    /// `from > until`: the window can never contain an epoch.
    InvertedWindow {
        event: &'static str,
        from: u64,
        until: u64,
    },
    /// The event names a node outside the deployment.
    NodeOutOfRange {
        event: &'static str,
        node: u32,
        nodes: usize,
    },
    /// The event names an uplink column the schedule does not have.
    UplinkOutOfRange {
        event: &'static str,
        uplink: u16,
        uplinks: usize,
    },
    /// The event names a group outside the topology.
    GroupOutOfRange {
        event: &'static str,
        group: u16,
        groups: usize,
    },
    /// The chip index starts past the end of the wavelength bank, or the
    /// chips hold no channel.
    ChipOutOfRange {
        event: &'static str,
        chip: u16,
        chips: u16,
    },
    /// The grating band is empty or exceeds the AWGR port count.
    PortBandOutOfRange {
        port_lo: u16,
        port_hi: u16,
        ports: usize,
    },
    /// A probability outside `[0, 1]`.
    InvalidProbability { event: &'static str, prob: f64 },
    /// A drift endpoint that is not a finite receive power.
    NonFinitePower { rx_dbm_from: f64, rx_dbm_to: f64 },
    /// A mistune offset that is a multiple of the grating size: the
    /// cyclic AWGR lands the laser on its correct port.
    NullMistune { node: u32, offset: u16 },
    /// A Byzantine window with nothing to do (no forgery, no inflation).
    IdleByzantine { node: u32 },
    /// Two events that cannot both hold (crash+recover of one node at one
    /// epoch, or overlapping mistunes pinning one laser to two offsets).
    Contradiction { detail: String },
}

impl std::fmt::Display for FaultScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultScriptError::InvertedWindow { event, from, until } => write!(
                f,
                "{event} window [{from}, {until}) is inverted and can never fire"
            ),
            FaultScriptError::NodeOutOfRange { event, node, nodes } => write!(
                f,
                "{event} names node {node} but the deployment has nodes 0..{nodes}"
            ),
            FaultScriptError::UplinkOutOfRange {
                event,
                uplink,
                uplinks,
            } => write!(
                f,
                "{event} names uplink {uplink} but the schedule has uplinks 0..{uplinks}"
            ),
            FaultScriptError::GroupOutOfRange {
                event,
                group,
                groups,
            } => write!(
                f,
                "{event} names group {group} but the topology has groups 0..{groups}"
            ),
            FaultScriptError::ChipOutOfRange { event, chip, chips } => write!(
                f,
                "{event} names chip {chip} but the bank has chips 0..{chips}"
            ),
            FaultScriptError::PortBandOutOfRange {
                port_lo,
                port_hi,
                ports,
            } => write!(
                f,
                "GratingFault band [{port_lo}, {port_hi}) is empty or exceeds \
                 the group's {ports} AWGR ports"
            ),
            FaultScriptError::InvalidProbability { event, prob } => {
                write!(f, "{event} probability {prob} is outside [0, 1]")
            }
            FaultScriptError::NonFinitePower {
                rx_dbm_from,
                rx_dbm_to,
            } => {
                write!(
                    f,
                    "BankDrift powers {rx_dbm_from} -> {rx_dbm_to} dBm are not finite"
                )
            }
            FaultScriptError::NullMistune { node, offset } => write!(
                f,
                "Mistune offset {offset} on node {node} lands on the correct port"
            ),
            FaultScriptError::IdleByzantine { node } => write!(
                f,
                "Byzantine window on node {node} has forge_prob 0 and \
                 extra_requests 0: it would never do anything"
            ),
            FaultScriptError::Contradiction { detail } => {
                write!(f, "contradictory events: {detail}")
            }
        }
    }
}

impl std::error::Error for FaultScriptError {}

/// Per-epoch snapshot of the active fault plane, rebuilt at boundaries so
/// the per-slot hot path only reads flat arrays.
#[derive(Debug, Default)]
pub struct ActiveFaults {
    /// Erasure probability per `(node, uplink)` (empty when no grey link
    /// is active this epoch). Correlated domains (bank chips, grating
    /// bands) expand into probability-1.0 entries here: a dead wavelength
    /// *is* a TX column that erases every slot, so detection, loss
    /// attribution and repair all ride the tested grey-link paths.
    pub grey: Vec<f64>,
    /// Mistune offset per node (empty when none active this epoch).
    pub mistuned: Vec<Option<u16>>,
    /// Probability of losing each control message this epoch.
    pub control_loss: f64,
    /// Nodes with a mistune active this epoch (for the per-slot pre-pass).
    pub mistuned_nodes: Vec<NodeId>,
    /// Per-node forge probability (empty when no Byzantine window is
    /// active this epoch).
    pub byz: Vec<f64>,
    /// Per-node counterfeit requests injected at each epoch boundary.
    pub byz_extra: Vec<u32>,
    /// Nodes with a Byzantine window active this epoch.
    pub byz_nodes: Vec<NodeId>,
}

impl ActiveFaults {
    pub fn any_grey(&self) -> bool {
        !self.grey.is_empty()
    }
    pub fn any_mistune(&self) -> bool {
        !self.mistuned_nodes.is_empty()
    }
    pub fn any_byz(&self) -> bool {
        !self.byz_nodes.is_empty()
    }
    pub fn grey_prob(&self, node: NodeId, uplink: u16, uplinks: usize) -> f64 {
        if self.grey.is_empty() {
            0.0
        } else {
            self.grey[node.0 as usize * uplinks + uplink as usize]
        }
    }
    pub fn mistune_of(&self, node: NodeId) -> Option<u16> {
        if self.mistuned.is_empty() {
            None
        } else {
            self.mistuned[node.0 as usize]
        }
    }
    /// Probability that `node` forges a cell on an otherwise-idle slot.
    pub fn byz_prob(&self, node: NodeId) -> f64 {
        if self.byz.is_empty() {
            0.0
        } else {
            self.byz[node.0 as usize]
        }
    }
    /// Counterfeit requests `node` injects at this epoch's boundary.
    pub fn byz_extra_of(&self, node: NodeId) -> u32 {
        if self.byz_extra.is_empty() {
            0
        } else {
            self.byz_extra[node.0 as usize]
        }
    }
}

/// Scriptable fault injector; build one, add events, hand it to
/// `SiriusSim::with_faults`.
#[derive(Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    seed: u64,
    rng: SmallRng,
}

/// Salt for the injector's RNG stream so fault draws are independent of
/// the simulator's protocol draws even under the same seed.
const FAULT_RNG_SALT: u64 = 0x5149_5249_5553_4633; // "SIRIUSF3"

impl FaultInjector {
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            events: Vec::new(),
            seed,
            rng: SmallRng::seed_from_u64(seed ^ FAULT_RNG_SALT),
        }
    }

    /// One independent RNG stream per node for the per-slot grey-erasure
    /// and Byzantine-forgery draws. A sender's stream advances only when
    /// *it* draws, so the sequence each node consumes does not depend on
    /// what any other node draws.
    pub fn node_streams(&self, n: usize) -> Vec<SmallRng> {
        (0..n as u64)
            .map(|i| {
                // Distinct, seed-dependent stream per node; golden-ratio
                // stride keeps nearby node ids from colliding before
                // `seed_from_u64`'s SplitMix64 expansion.
                let s = self.seed ^ FAULT_RNG_SALT ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                SmallRng::seed_from_u64(s)
            })
            .collect()
    }

    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        self.events.push(ev);
        self
    }

    pub fn crash(mut self, node: NodeId, epoch: u64) -> Self {
        self.events.push(FaultEvent::Crash { node, epoch });
        self
    }

    pub fn recover(mut self, node: NodeId, epoch: u64) -> Self {
        self.events.push(FaultEvent::Recover { node, epoch });
        self
    }

    pub fn grey_link(
        mut self,
        node: NodeId,
        uplink: u16,
        drop_prob: f64,
        from: u64,
        until: u64,
    ) -> Self {
        self.events.push(FaultEvent::GreyLink {
            node,
            uplink,
            drop_prob,
            from,
            until,
        });
        self
    }

    /// Grey link whose erasure probability comes from the optics stack: a
    /// transceiver receiving `rx_dbm` of optical power has a pre-FEC BER
    /// from the [`Receiver`] model; KP4 FEC then either corrects a frame
    /// or loses it, so the per-cell drop probability is the chance that
    /// any of the cell's RS frames is uncorrectable.
    #[allow(clippy::too_many_arguments)]
    pub fn grey_link_from_ber(
        self,
        node: NodeId,
        uplink: u16,
        rx_dbm: f64,
        modulation: Modulation,
        cell_bytes: u32,
        from: u64,
        until: u64,
    ) -> Self {
        let p = cell_drop_probability(rx_dbm, modulation, cell_bytes);
        self.grey_link(node, uplink, p, from, until)
    }

    pub fn mistune(mut self, node: NodeId, offset: u16, from: u64, until: u64) -> Self {
        self.events.push(FaultEvent::Mistune {
            node,
            offset,
            from,
            until,
        });
        self
    }

    pub fn control_loss(mut self, drop_prob: f64, from: u64, until: u64) -> Self {
        self.events.push(FaultEvent::ControlLoss {
            drop_prob,
            from,
            until,
        });
        self
    }

    /// Kill SOA chip `chip` (of `chip_capacity`-channel chips) of the
    /// laser bank feeding `(group, uplink)` for `[from, until)`.
    #[allow(clippy::too_many_arguments)]
    pub fn bank_failure(
        mut self,
        group: u16,
        uplink: u16,
        chip: u16,
        chip_capacity: u16,
        from: u64,
        until: u64,
    ) -> Self {
        self.events.push(FaultEvent::BankFailure {
            group,
            uplink,
            chip,
            chip_capacity,
            from,
            until,
        });
        self
    }

    /// Age SOA chip `chip` of the `(group, uplink)` bank over
    /// `[from, until)`: receive power ramps linearly `rx_dbm_from` →
    /// `rx_dbm_to`, and every TX column the chip feeds greys out together
    /// with the BER-derived per-epoch drop probability.
    #[allow(clippy::too_many_arguments)]
    pub fn bank_drift(
        mut self,
        group: u16,
        uplink: u16,
        chip: u16,
        chip_capacity: u16,
        rx_dbm_from: f64,
        rx_dbm_to: f64,
        modulation: Modulation,
        cell_bytes: u32,
        from: u64,
        until: u64,
    ) -> Self {
        self.events.push(FaultEvent::BankDrift {
            group,
            uplink,
            chip,
            chip_capacity,
            rx_dbm_from,
            rx_dbm_to,
            modulation,
            cell_bytes,
            from,
            until,
        });
        self
    }

    /// Destroy the input-port band `[port_lo, port_hi)` of the
    /// `(group, uplink)` AWGR for `[from, until)`.
    #[allow(clippy::too_many_arguments)]
    pub fn grating_fault(
        mut self,
        group: u16,
        uplink: u16,
        port_lo: u16,
        port_hi: u16,
        from: u64,
        until: u64,
    ) -> Self {
        self.events.push(FaultEvent::GratingFault {
            group,
            uplink,
            port_lo,
            port_hi,
            from,
            until,
        });
        self
    }

    /// Compromise `node`'s data plane for `[from, until)`: forge a cell on
    /// each otherwise-idle scheduled slot with probability `forge_prob`,
    /// and inject `extra_requests` counterfeit requests per epoch.
    pub fn byzantine(
        mut self,
        node: NodeId,
        forge_prob: f64,
        extra_requests: u32,
        from: u64,
        until: u64,
    ) -> Self {
        self.events.push(FaultEvent::Byzantine {
            node,
            forge_prob,
            extra_requests,
            from,
            until,
        });
        self
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Does any event ever perturb individual links (grey, mistune, or a
    /// correlated bank/grating domain — which *is* a set of grey columns)?
    /// Gates the per-link detector bookkeeping in the simulator.
    pub fn has_link_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::GreyLink { .. }
                    | FaultEvent::Mistune { .. }
                    | FaultEvent::BankFailure { .. }
                    | FaultEvent::BankDrift { .. }
                    | FaultEvent::GratingFault { .. }
            )
        })
    }

    /// Does any event ever compromise a data plane? Gates the RX-side
    /// Byzantine filter (which must stay off the fault-free fast path).
    pub fn has_byzantine(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Byzantine { .. }))
    }

    /// Validate the script against a deployment of `nodes` nodes with
    /// `uplinks` columns per node and `group_size` nodes (= AWGR ports =
    /// bank wavelengths) per group. Rejects scripts that are inverted,
    /// out of range or self-contradictory with a descriptive error
    /// instead of silently never firing.
    pub fn validate(
        &self,
        nodes: usize,
        uplinks: usize,
        group_size: usize,
    ) -> Result<(), FaultScriptError> {
        let groups = nodes / group_size.max(1);
        let check_window = |ev: &FaultEvent, from: u64, until: u64| {
            if from > until {
                Err(FaultScriptError::InvertedWindow {
                    event: ev.name(),
                    from,
                    until,
                })
            } else {
                Ok(())
            }
        };
        let check_node = |ev: &FaultEvent, node: NodeId| {
            if node.0 as usize >= nodes {
                Err(FaultScriptError::NodeOutOfRange {
                    event: ev.name(),
                    node: node.0,
                    nodes,
                })
            } else {
                Ok(())
            }
        };
        let check_uplink = |ev: &FaultEvent, uplink: u16| {
            if uplink as usize >= uplinks {
                Err(FaultScriptError::UplinkOutOfRange {
                    event: ev.name(),
                    uplink,
                    uplinks,
                })
            } else {
                Ok(())
            }
        };
        let check_group = |ev: &FaultEvent, group: u16| {
            if group as usize >= groups {
                Err(FaultScriptError::GroupOutOfRange {
                    event: ev.name(),
                    group,
                    groups,
                })
            } else {
                Ok(())
            }
        };
        let check_prob = |ev: &FaultEvent, p: f64| {
            if !(0.0..=1.0).contains(&p) {
                Err(FaultScriptError::InvalidProbability {
                    event: ev.name(),
                    prob: p,
                })
            } else {
                Ok(())
            }
        };
        for ev in &self.events {
            match *ev {
                FaultEvent::Crash { node, .. } | FaultEvent::Recover { node, .. } => {
                    check_node(ev, node)?;
                }
                FaultEvent::GreyLink {
                    node,
                    uplink,
                    drop_prob,
                    from,
                    until,
                } => {
                    check_window(ev, from, until)?;
                    check_node(ev, node)?;
                    check_uplink(ev, uplink)?;
                    check_prob(ev, drop_prob)?;
                }
                FaultEvent::Mistune {
                    node,
                    offset,
                    from,
                    until,
                } => {
                    check_window(ev, from, until)?;
                    check_node(ev, node)?;
                    if (offset as usize).is_multiple_of(group_size.max(1)) {
                        let node = node.0;
                        return Err(FaultScriptError::NullMistune { node, offset });
                    }
                }
                FaultEvent::ControlLoss {
                    drop_prob,
                    from,
                    until,
                } => {
                    check_window(ev, from, until)?;
                    check_prob(ev, drop_prob)?;
                }
                FaultEvent::BankDrift {
                    rx_dbm_from,
                    rx_dbm_to,
                    ..
                } if !(rx_dbm_from.is_finite() && rx_dbm_to.is_finite()) => {
                    return Err(FaultScriptError::NonFinitePower {
                        rx_dbm_from,
                        rx_dbm_to,
                    });
                }
                FaultEvent::BankFailure {
                    group,
                    uplink,
                    chip,
                    chip_capacity,
                    from,
                    until,
                }
                | FaultEvent::BankDrift {
                    group,
                    uplink,
                    chip,
                    chip_capacity,
                    from,
                    until,
                    ..
                } => {
                    check_window(ev, from, until)?;
                    check_group(ev, group)?;
                    check_uplink(ev, uplink)?;
                    let chips = (group_size as u16).div_ceil(chip_capacity.max(1));
                    if chip_capacity == 0 || chip >= chips {
                        return Err(FaultScriptError::ChipOutOfRange {
                            event: ev.name(),
                            chip,
                            chips,
                        });
                    }
                }
                FaultEvent::GratingFault {
                    group,
                    uplink,
                    port_lo,
                    port_hi,
                    from,
                    until,
                } => {
                    check_window(ev, from, until)?;
                    check_group(ev, group)?;
                    check_uplink(ev, uplink)?;
                    if port_lo >= port_hi || port_hi as usize > group_size {
                        return Err(FaultScriptError::PortBandOutOfRange {
                            port_lo,
                            port_hi,
                            ports: group_size,
                        });
                    }
                }
                FaultEvent::Byzantine {
                    node,
                    forge_prob,
                    extra_requests,
                    from,
                    until,
                } => {
                    check_window(ev, from, until)?;
                    check_node(ev, node)?;
                    check_prob(ev, forge_prob)?;
                    if forge_prob == 0.0 && extra_requests == 0 {
                        return Err(FaultScriptError::IdleByzantine { node: node.0 });
                    }
                }
            }
        }
        // Contradictions across events.
        for (a, ea) in self.events.iter().enumerate() {
            for eb in &self.events[a + 1..] {
                match (*ea, *eb) {
                    (
                        FaultEvent::Crash {
                            node: n1,
                            epoch: e1,
                        },
                        FaultEvent::Recover {
                            node: n2,
                            epoch: e2,
                        },
                    )
                    | (
                        FaultEvent::Recover {
                            node: n1,
                            epoch: e1,
                        },
                        FaultEvent::Crash {
                            node: n2,
                            epoch: e2,
                        },
                    ) if n1 == n2 && e1 == e2 => {
                        return Err(FaultScriptError::Contradiction {
                            detail: format!(
                                "node {} both crashes and recovers at epoch {e1}",
                                n1.0
                            ),
                        });
                    }
                    (
                        FaultEvent::Mistune {
                            node: n1,
                            offset: o1,
                            from: f1,
                            until: u1,
                        },
                        FaultEvent::Mistune {
                            node: n2,
                            offset: o2,
                            from: f2,
                            until: u2,
                        },
                    ) if n1 == n2 && o1 != o2 && f1 < u2 && f2 < u1 => {
                        return Err(FaultScriptError::Contradiction {
                            detail: format!(
                                "node {}'s laser pinned to offsets {o1} and {o2} \
                                 in overlapping windows",
                                n1.0
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Crash/recover transitions due at exactly `epoch`, in script order,
    /// appended into `out` (cleared first — a scratch buffer the engine
    /// loop reuses every epoch instead of allocating). `true` = crash,
    /// `false` = recover.
    pub fn node_events_at(&self, epoch: u64, out: &mut Vec<(NodeId, bool)>) {
        out.clear();
        for e in &self.events {
            match *e {
                FaultEvent::Crash { node, epoch: at } if at == epoch => out.push((node, true)),
                FaultEvent::Recover { node, epoch: at } if at == epoch => out.push((node, false)),
                _ => {}
            }
        }
    }

    /// Rebuild the flat per-epoch fault snapshot. `group_size` (= AWGR
    /// ports = bank wavelengths per group) drives the expansion of
    /// correlated bank/grating domains into their dead TX columns.
    pub fn refresh(
        &self,
        epoch: u64,
        n: usize,
        uplinks: usize,
        group_size: usize,
        out: &mut ActiveFaults,
    ) {
        out.grey.clear();
        out.mistuned.clear();
        out.mistuned_nodes.clear();
        out.control_loss = 0.0;
        out.byz.clear();
        out.byz_extra.clear();
        out.byz_nodes.clear();
        // Compound erasure probability `p` into a TX column's accumulator
        // (overlapping windows on one link compound). A dead column is
        // `p = 1.0`, assigned rather than compounded so it is exactly 1.
        let grey = |out: &mut ActiveFaults, node: NodeId, uplink: u16, p: f64| {
            if out.grey.is_empty() {
                out.grey.resize(n * uplinks, 0.0);
            }
            let acc = &mut out.grey[node.0 as usize * uplinks + uplink as usize];
            *acc = if p == 1.0 { 1.0 } else { *acc + (p - *acc * p) };
        };
        for e in &self.events {
            match *e {
                FaultEvent::GreyLink {
                    node,
                    uplink,
                    drop_prob,
                    from,
                    until,
                } if (from..until).contains(&epoch) => grey(out, node, uplink, drop_prob),
                FaultEvent::Mistune {
                    node,
                    offset,
                    from,
                    until,
                } if (from..until).contains(&epoch) => {
                    if out.mistuned.is_empty() {
                        out.mistuned.resize(n, None);
                    }
                    if out.mistuned[node.0 as usize].is_none() {
                        out.mistuned_nodes.push(node);
                    }
                    out.mistuned[node.0 as usize] = Some(offset);
                }
                FaultEvent::ControlLoss {
                    drop_prob,
                    from,
                    until,
                } if (from..until).contains(&epoch) => {
                    out.control_loss += drop_prob - out.control_loss * drop_prob;
                }
                // Each dead channel or port silences one node's TX column
                // on this uplink: a p = 1.0 grey column, so the whole
                // detection/repair stack sees it through the tested grey
                // paths.
                FaultEvent::BankFailure { from, until, .. }
                | FaultEvent::GratingFault { from, until, .. }
                    if (from..until).contains(&epoch) =>
                {
                    for (node, uplink) in e.columns(group_size, n) {
                        grey(out, node, uplink, 1.0);
                    }
                }
                FaultEvent::BankDrift {
                    rx_dbm_from,
                    rx_dbm_to,
                    modulation,
                    cell_bytes,
                    from,
                    until,
                    ..
                } if (from..until).contains(&epoch) => {
                    // Linear power ramp across the window; the BER/FEC
                    // stack turns this epoch's power into this epoch's
                    // per-cell drop probability, compounded into the
                    // accumulator like any other grey source.
                    let t = (epoch - from) as f64 / (until - from) as f64;
                    let rx_dbm = rx_dbm_from + (rx_dbm_to - rx_dbm_from) * t;
                    let p = cell_drop_probability(rx_dbm, modulation, cell_bytes);
                    if p > 0.0 {
                        for (node, uplink) in e.columns(group_size, n) {
                            grey(out, node, uplink, p);
                        }
                    }
                }
                FaultEvent::Byzantine {
                    node,
                    forge_prob,
                    extra_requests,
                    from,
                    until,
                } if (from..until).contains(&epoch) => {
                    if out.byz.is_empty() {
                        out.byz.resize(n, 0.0);
                        out.byz_extra.resize(n, 0);
                    }
                    let i = node.0 as usize;
                    if out.byz[i] == 0.0 && out.byz_extra[i] == 0 {
                        out.byz_nodes.push(node);
                    }
                    out.byz[i] += forge_prob - out.byz[i] * forge_prob;
                    out.byz_extra[i] += extra_requests;
                }
                _ => {}
            }
        }
    }

    /// One Bernoulli draw from the fault stream (erasures, control loss).
    pub fn draw(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen_bool(prob)
    }

    /// The last epoch at which this script changes anything (grey/mistune
    /// windows closing, crashes, recoveries). Runs that measure
    /// degradation should extend at least this far.
    pub fn horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match *e {
                FaultEvent::Crash { epoch, .. } | FaultEvent::Recover { epoch, .. } => epoch,
                FaultEvent::GreyLink { until, .. }
                | FaultEvent::Mistune { until, .. }
                | FaultEvent::ControlLoss { until, .. }
                | FaultEvent::BankFailure { until, .. }
                | FaultEvent::BankDrift { until, .. }
                | FaultEvent::GratingFault { until, .. }
                | FaultEvent::Byzantine { until, .. } => until,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Per-cell drop probability of a degraded link: pre-FEC BER from the
/// receiver model at `rx_dbm`, KP4 frame error rate, compounded over the
/// RS frames a cell spans.
pub fn cell_drop_probability(rx_dbm: f64, modulation: Modulation, cell_bytes: u32) -> f64 {
    let ber = Receiver::new(modulation).pre_fec_ber(rx_dbm);
    let fer = KP4.frame_error_rate(ber);
    let frame_payload_bits = (KP4.k * KP4.m) as f64;
    let frames = ((cell_bytes * 8) as f64 / frame_payload_bits).ceil();
    1.0 - (1.0 - fer).powf(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_gate_the_snapshot() {
        let inj = FaultInjector::new(1)
            .grey_link(NodeId(2), 1, 0.5, 10, 20)
            .mistune(NodeId(3), 2, 15, 25)
            .control_loss(0.1, 5, 30);
        let mut af = ActiveFaults::default();
        inj.refresh(9, 8, 4, 4, &mut af);
        assert!(!af.any_grey());
        assert!(!af.any_mistune());
        assert_eq!(af.control_loss, 0.1);
        inj.refresh(15, 8, 4, 4, &mut af);
        assert_eq!(af.grey_prob(NodeId(2), 1, 4), 0.5);
        assert_eq!(af.grey_prob(NodeId(2), 0, 4), 0.0);
        assert_eq!(af.mistune_of(NodeId(3)), Some(2));
        assert_eq!(af.mistuned_nodes, vec![NodeId(3)]);
        inj.refresh(25, 8, 4, 4, &mut af);
        assert!(!af.any_mistune());
        assert_eq!(af.mistune_of(NodeId(3)), None);
        assert!(inj.has_link_faults());
        assert_eq!(inj.horizon(), 30);
    }

    #[test]
    fn node_events_fire_at_their_epoch() {
        let inj = FaultInjector::new(1)
            .crash(NodeId(1), 5)
            .recover(NodeId(1), 9)
            .crash(NodeId(2), 5);
        let mut out = Vec::new();
        inj.node_events_at(5, &mut out);
        assert_eq!(out, vec![(NodeId(1), true), (NodeId(2), true)]);
        inj.node_events_at(9, &mut out);
        assert_eq!(out, vec![(NodeId(1), false)]);
        inj.node_events_at(6, &mut out);
        assert!(out.is_empty(), "scratch must be cleared between epochs");
        assert!(!inj.has_link_faults());
    }

    #[test]
    fn bank_failure_expands_to_its_column_set() {
        // 16 nodes, group size 4, 2 uplinks. Chip 0 (capacity 2) of the
        // bank feeding (group 1, uplink 1) kills channels {0, 1}; AWGR
        // input 1 % 4 = 1 routes them to ports {1, 2} — nodes 5 and 6,
        // column 1 only.
        let inj = FaultInjector::new(1).bank_failure(1, 1, 0, 2, 10, 20);
        assert!(inj.has_link_faults());
        assert!(!inj.has_byzantine());
        assert_eq!(inj.horizon(), 20);
        let mut af = ActiveFaults::default();
        inj.refresh(10, 16, 2, 4, &mut af);
        assert!(af.any_grey());
        for n in 0..16u32 {
            for u in 0..2u16 {
                let expect = if (n == 5 || n == 6) && u == 1 {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(af.grey_prob(NodeId(n), u, 2), expect, "node {n} col {u}");
            }
        }
        inj.refresh(20, 16, 2, 4, &mut af);
        assert!(!af.any_grey(), "window closed");
    }

    #[test]
    fn bank_drift_ramps_its_column_set_together() {
        // Same geometry as the bank-failure test: chip 0 (capacity 2) of
        // (group 1, uplink 1) feeds nodes 5 and 6 on column 1. Power
        // drifts from healthy (-4 dBm) to dead (-20 dBm) over epochs
        // [100, 200): drop probability must start negligible, rise
        // monotonically, be identical across the blast radius, and stay
        // zero everywhere else.
        let inj = FaultInjector::new(1).bank_drift(
            1,
            1,
            0,
            2,
            -4.0,
            -20.0,
            Modulation::Pam4_50,
            562,
            100,
            200,
        );
        assert!(inj.has_link_faults());
        assert_eq!(inj.horizon(), 200);
        assert_eq!(inj.validate(16, 2, 4), Ok(()));
        let mut af = ActiveFaults::default();
        inj.refresh(99, 16, 2, 4, &mut af);
        assert!(!af.any_grey(), "ramp must not leak before its window");
        let mut prev = -1.0;
        for epoch in [100u64, 130, 160, 190, 199] {
            inj.refresh(epoch, 16, 2, 4, &mut af);
            let p5 = af.grey_prob(NodeId(5), 1, 2);
            let p6 = af.grey_prob(NodeId(6), 1, 2);
            assert_eq!(p5, p6, "chip-fed columns must degrade together");
            assert!(p5 >= prev, "ramp went backwards at epoch {epoch}");
            prev = p5;
            assert_eq!(af.grey_prob(NodeId(5), 0, 2), 0.0, "wrong column");
            assert_eq!(af.grey_prob(NodeId(4), 1, 2), 0.0, "wrong node");
        }
        inj.refresh(100, 16, 2, 4, &mut af);
        assert!(
            af.grey_prob(NodeId(5), 1, 2) < 1e-6,
            "healthy end of the ramp already lossy"
        );
        assert!(prev > 0.99, "degraded end of the ramp not near-dead");
        inj.refresh(200, 16, 2, 4, &mut af);
        assert!(!af.any_grey(), "window closed");
    }

    #[test]
    fn bank_drift_validation_reuses_the_bank_domain_checks() {
        let bad_group = FaultInjector::new(1).bank_drift(
            4,
            0,
            0,
            2,
            -4.0,
            -20.0,
            Modulation::Pam4_50,
            562,
            0,
            10,
        );
        assert!(matches!(
            bad_group.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::GroupOutOfRange { group: 4, .. }
        ));
        let bad_chip = FaultInjector::new(1).bank_drift(
            0,
            0,
            2,
            2,
            -4.0,
            -20.0,
            Modulation::Pam4_50,
            562,
            0,
            10,
        );
        assert!(matches!(
            bad_chip.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::ChipOutOfRange {
                chip: 2,
                chips: 2,
                ..
            }
        ));
        let inverted = FaultInjector::new(1).bank_drift(
            0,
            0,
            0,
            2,
            -4.0,
            -20.0,
            Modulation::Pam4_50,
            562,
            20,
            10,
        );
        assert!(matches!(
            inverted.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::InvertedWindow { .. }
        ));
    }

    #[test]
    fn grating_fault_kills_the_port_band() {
        let inj = FaultInjector::new(1).grating_fault(0, 0, 1, 3, 0, 5);
        let mut af = ActiveFaults::default();
        inj.refresh(2, 8, 2, 4, &mut af);
        for n in 0..8u32 {
            let expect = if n == 1 || n == 2 { 1.0 } else { 0.0 };
            assert_eq!(af.grey_prob(NodeId(n), 0, 2), expect);
            assert_eq!(af.grey_prob(NodeId(n), 1, 2), 0.0);
        }
    }

    #[test]
    fn blast_radius_is_one_column_per_node_clipped_to_the_deployment() {
        let cols = |inj: FaultInjector, g, n| inj.events()[0].columns(g, n);
        // The two expansions the refresh tests above see through the
        // snapshot, named directly.
        assert_eq!(
            cols(
                FaultInjector::new(1).bank_failure(1, 1, 0, 2, 10, 20),
                4,
                16
            ),
            vec![(NodeId(5), 1), (NodeId(6), 1)]
        );
        assert_eq!(
            cols(FaultInjector::new(1).grating_fault(0, 0, 1, 3, 0, 5), 4, 8),
            vec![(NodeId(1), 0), (NodeId(2), 0)]
        );
        // A drift has its failure's radius; nodes past the deployment's
        // end (a partial last group) are not in it.
        let drift = FaultInjector::new(1).bank_drift(
            1,
            1,
            0,
            2,
            -4.0,
            -20.0,
            Modulation::Pam4_50,
            562,
            1,
            9,
        );
        assert_eq!(cols(drift, 4, 6), vec![(NodeId(5), 1)]);
        // Point faults have no correlated radius.
        assert!(cols(
            FaultInjector::new(1).grey_link(NodeId(2), 1, 0.5, 0, 9),
            4,
            16
        )
        .is_empty());
        assert!(cols(FaultInjector::new(1).crash(NodeId(2), 3), 4, 16).is_empty());
    }

    #[test]
    fn byzantine_window_arms_the_snapshot() {
        let inj = FaultInjector::new(1).byzantine(NodeId(3), 0.25, 4, 10, 30);
        assert!(inj.has_byzantine());
        assert!(!inj.has_link_faults());
        let mut af = ActiveFaults::default();
        inj.refresh(5, 8, 2, 4, &mut af);
        assert!(!af.any_byz());
        assert_eq!(af.byz_prob(NodeId(3)), 0.0);
        inj.refresh(10, 8, 2, 4, &mut af);
        assert!(af.any_byz());
        assert_eq!(af.byz_nodes, vec![NodeId(3)]);
        assert_eq!(af.byz_prob(NodeId(3)), 0.25);
        assert_eq!(af.byz_extra_of(NodeId(3)), 4);
        assert_eq!(af.byz_prob(NodeId(2)), 0.0);
        inj.refresh(30, 8, 2, 4, &mut af);
        assert!(!af.any_byz());
    }

    #[test]
    fn validation_accepts_a_well_formed_script() {
        let inj = FaultInjector::new(1)
            .crash(NodeId(1), 5)
            .recover(NodeId(1), 9)
            .grey_link(NodeId(2), 1, 0.5, 10, 20)
            .bank_failure(1, 1, 0, 2, 10, 20)
            .grating_fault(0, 0, 1, 3, 0, 5)
            .byzantine(NodeId(3), 0.25, 4, 10, 30);
        assert_eq!(inj.validate(16, 2, 4), Ok(()));
    }

    #[test]
    fn validation_rejects_inverted_windows() {
        let inj = FaultInjector::new(1).grey_link(NodeId(0), 0, 0.5, 20, 10);
        let err = inj.validate(16, 2, 4).unwrap_err();
        assert!(matches!(err, FaultScriptError::InvertedWindow { .. }));
        assert!(err.to_string().contains("inverted"), "{err}");
    }

    #[test]
    fn validation_rejects_out_of_range_nodes_and_uplinks() {
        let inj = FaultInjector::new(1).crash(NodeId(16), 5);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::NodeOutOfRange { node: 16, .. }
        ));
        let inj = FaultInjector::new(1).grey_link(NodeId(0), 2, 0.5, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::UplinkOutOfRange { uplink: 2, .. }
        ));
        let inj = FaultInjector::new(1).byzantine(NodeId(99), 0.5, 0, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::NodeOutOfRange { node: 99, .. }
        ));
    }

    #[test]
    fn validation_rejects_out_of_range_domains() {
        let inj = FaultInjector::new(1).bank_failure(4, 0, 0, 2, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::GroupOutOfRange { group: 4, .. }
        ));
        // Group size 4, chips of 2 channels -> chips 0..2; chip 2 is off
        // the end of the bank.
        let inj = FaultInjector::new(1).bank_failure(0, 0, 2, 2, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::ChipOutOfRange {
                chip: 2,
                chips: 2,
                ..
            }
        ));
        let inj = FaultInjector::new(1).grating_fault(0, 0, 2, 7, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::PortBandOutOfRange { port_hi: 7, .. }
        ));
    }

    #[test]
    fn validation_rejects_contradictions() {
        let inj = FaultInjector::new(1)
            .crash(NodeId(3), 7)
            .recover(NodeId(3), 7);
        let err = inj.validate(16, 2, 4).unwrap_err();
        assert!(matches!(err, FaultScriptError::Contradiction { .. }));
        assert!(err.to_string().contains("crashes and recovers"), "{err}");
        let inj = FaultInjector::new(1)
            .mistune(NodeId(2), 1, 0, 20)
            .mistune(NodeId(2), 3, 10, 30);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::Contradiction { .. }
        ));
        // Same offset overlapping, or different offsets disjoint: fine.
        let inj = FaultInjector::new(1)
            .mistune(NodeId(2), 1, 0, 20)
            .mistune(NodeId(2), 1, 10, 30)
            .mistune(NodeId(2), 3, 40, 50);
        assert_eq!(inj.validate(16, 2, 4), Ok(()));
    }

    #[test]
    fn validation_rejects_an_idle_byzantine_window() {
        let inj = FaultInjector::new(1).byzantine(NodeId(0), 0.0, 0, 0, 10);
        assert!(matches!(
            inj.validate(16, 2, 4).unwrap_err(),
            FaultScriptError::IdleByzantine { node: 0 }
        ));
    }

    #[test]
    fn ber_fed_drop_probability_is_monotone_in_power() {
        // A healthy receive power is error-free through KP4; a badly
        // degraded one loses essentially every cell; in between the curve
        // is monotone.
        let healthy = cell_drop_probability(-4.0, Modulation::Pam4_50, 562);
        let marginal = cell_drop_probability(-11.0, Modulation::Pam4_50, 562);
        let dead = cell_drop_probability(-20.0, Modulation::Pam4_50, 562);
        assert!(healthy < 1e-9, "healthy link drops cells: {healthy}");
        assert!(dead > 0.99, "dead link still delivers: {dead}");
        assert!(healthy <= marginal && marginal <= dead);
    }

    #[test]
    fn node_streams_are_deterministic_distinct_and_seed_dependent() {
        let seq = |mut r: SmallRng| (0..64).map(|_| r.gen_bool(0.5)).collect::<Vec<_>>();
        let a: Vec<_> = FaultInjector::new(7)
            .node_streams(4)
            .into_iter()
            .map(seq)
            .collect();
        let b: Vec<_> = FaultInjector::new(7)
            .node_streams(4)
            .into_iter()
            .map(seq)
            .collect();
        assert_eq!(a, b, "same seed must yield the same per-node streams");
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(a[i], a[j], "nodes {i} and {j} share a stream");
            }
        }
        let c: Vec<_> = FaultInjector::new(8)
            .node_streams(4)
            .into_iter()
            .map(seq)
            .collect();
        assert_ne!(a, c, "streams must depend on the seed");
    }

    #[test]
    fn fault_rng_is_deterministic_and_seed_dependent() {
        let draw_seq = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            (0..64).map(|_| inj.draw(0.5)).collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(7), draw_seq(7));
        assert_ne!(draw_seq(7), draw_seq(8));
        let mut inj = FaultInjector::new(1);
        assert!(!inj.draw(0.0), "p=0 must not draw");
    }
}
