//! DetectPlane: keepalive credit and the silence detectors (§4.5).
//!
//! Detection feeds on the carrier itself: every well-tuned, non-erased
//! scheduled slot — idle keepalives included — counts as "heard". The
//! fault boundary ([`crate::engine::fault`]) consumes this state once
//! per epoch to stage exclusions and readmissions.
//!
//! Fault-free runs skip this plane entirely: credit exists only to be
//! compared against silence at the boundary, and with an empty fault
//! script the boundary (and its detector ticks) never runs — so the
//! engine neither builds the detectors nor pays the 1,536 `heard_from`
//! calls per slot that the monolithic loop performed at paper scale.
//! The credit push sits under the TX body's armed (`Some`) arm; a
//! script whose events never fire still feeds it every slot, and the
//! run is otherwise identical to the unarmed one.

use sirius_core::fault::{FailureDetector, FaultConfig, LinkDetector};
use sirius_core::topology::NodeId;

pub(crate) struct DetectPlane {
    /// One silence detector per node, fed from actual slot receptions
    /// (data or keepalive) — schedule omissions are staged only from
    /// what these observe. N detectors of N peers each: built by
    /// [`DetectPlane::arm`] when a fault script is armed, empty on the
    /// fault-free runs that never read them.
    pub detectors: Vec<FailureDetector>,
    /// Latest reception epoch of each *sender* across all receivers
    /// (keepalives included) — drives emergent readmission.
    pub last_heard_any: Vec<u64>,
    /// Per-(sender, TX column) silence detector for grey-failure
    /// localization; only maintained when the script has link faults.
    pub link_det: Option<LinkDetector>,
}

impl DetectPlane {
    pub fn new(n: usize) -> DetectPlane {
        DetectPlane {
            detectors: Vec::new(),
            last_heard_any: vec![0; n],
            link_det: None,
        }
    }

    /// Build the detectors a fault script feeds: one per node, plus the
    /// per-column detector when the script can produce partial-node
    /// faults (`uplinks` is then the column count).
    pub fn arm(&mut self, fault: FaultConfig, uplinks: Option<usize>) {
        let n = self.last_heard_any.len();
        self.detectors = (0..n).map(|_| FailureDetector::new(n, fault)).collect();
        self.link_det = uplinks.map(|u| LinkDetector::new(n, u, fault));
    }

    /// Credit one heard reception: `sender` was heard by `receiver` on
    /// the sender's TX column `uplink`, landing at `arrival_epoch`.
    #[inline]
    pub fn credit(&mut self, sender: NodeId, uplink: u16, receiver: NodeId, arrival_epoch: u64) {
        self.detectors[receiver.0 as usize].heard_from(sender, arrival_epoch);
        let lh = &mut self.last_heard_any[sender.0 as usize];
        if *lh < arrival_epoch {
            *lh = arrival_epoch;
        }
        if let Some(ld) = &mut self.link_det {
            ld.heard_from(sender, uplink as usize, arrival_epoch);
        }
    }
}
