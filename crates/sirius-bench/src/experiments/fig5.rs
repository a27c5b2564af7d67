//! The paper's Fig. 5b network schedule table for the four-node example
//! topology.

use crate::table::Table;
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, Topology, UplinkId};
use sirius_core::SiriusConfig;

pub fn table() -> Table {
    let cfg = SiriusConfig::four_node_prototype();
    let topo = Topology::new(&cfg);
    let sched = Schedule::new(&cfg);
    let slots = sched.epoch_slots() as u16;
    let mut headers = vec!["source (node,port)".to_string()];
    for t in 0..slots {
        headers.push(format!("slot{} wl", t + 1));
        headers.push(format!("slot{} dst", t + 1));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t_out = Table::new(
        "Fig 5b: network schedule (4 nodes x 2 uplinks, 2-port gratings)",
        &hdr_refs,
    );
    for i in 0..topo.nodes() as u32 {
        for u in 0..topo.uplinks() as u16 {
            let mut row = vec![format!("({},{})", i + 1, u + 1)];
            for t in 0..slots {
                let wl = sched.wavelength(SlotInEpoch(t));
                let d = sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                row.push(((b'A' + wl.0 as u8) as char).to_string());
                row.push(format!("({},{})", d.0 + 1, u + 1));
            }
            t_out.row(row);
        }
    }
    t_out
}
