//! Per-call nanoseconds of the `sirius-core` leaf functions the engine's
//! planes are made of, timed in loops over the public functions at the
//! workload's own geometry (N = 128 on the paper workloads, N = 1024 on
//! `scale1024_stream`). Each number sits under one plane: schedule and
//! transmit under `engine.tx_s`, receive and reorder under
//! `engine.deliver_s`, VLB and the CC round under `engine.other_s`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius_core::cell::{Cell, FlowId};
use sirius_core::reorder::ReorderBuffer;
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, ServerId, UplinkId};
use sirius_core::vlb::Vlb;
use sirius_core::{SiriusConfig, SiriusNode, SlotTx};
use std::hint::black_box;
use std::time::Instant;

/// Each loop repeats until it has run this long, so a per-call time is an
/// average over ≥ 10^5 calls.
const MIN_LOOP_SECS: f64 = 0.05;
/// Cells per batch in the node and reorder loops.
const BATCH: u32 = 1024;
/// Grant timeout for the stand-alone nodes; nothing here runs long enough
/// to reach it.
const GRANT_TIMEOUT: u64 = 1 << 20;

pub struct LeafTimes {
    pub schedule_dest_ns: f64,
    pub node_enqueue_ns: f64,
    pub node_transmit_ns: f64,
    pub node_transmit_idle_ns: f64,
    pub node_receive_ns: f64,
    pub reorder_accept_inorder_ns: f64,
    pub reorder_accept_reversed_ns: f64,
    pub vlb_pick_ns: f64,
    pub cc_round_ns_per_node: f64,
}

/// Nanoseconds per operation of `timed`, which performs `ops` operations
/// per call on a state `prepare` builds outside the clock.
fn ns_per_op<S>(ops: u64, mut prepare: impl FnMut() -> S, mut timed: impl FnMut(&mut S)) -> f64 {
    let (mut secs, mut done) = (0.0, 0u64);
    while secs < MIN_LOOP_SECS {
        let mut state = prepare();
        let t = Instant::now();
        timed(&mut state);
        secs += t.elapsed().as_secs_f64();
        black_box(&state);
        done += ops;
    }
    secs * 1e9 / done as f64
}

fn cell(k: u32, src: NodeId, dst: NodeId) -> Cell {
    Cell {
        flow: FlowId(k as u64),
        seq: 0,
        payload: 540,
        src,
        dst,
        dst_server: ServerId(0),
        last: true,
    }
}

pub fn measure(net: &SiriusConfig, seed: u64) -> LeafTimes {
    let n = net.nodes as u32;
    let q = net.queue_threshold;
    let sched = Schedule::new(net);
    let (uplinks, slots) = (sched.uplinks() as u16, sched.epoch_slots() as u16);
    // Destinations 1..n as seen from node 0, cycling.
    let peer = |k: u32| NodeId(1 + k % (n - 1));
    let fresh = || SiriusNode::new(NodeId(0), n as usize, q, GRANT_TIMEOUT);
    // A node holding one batch of relay cells, as an intermediate would.
    let loaded = || {
        let mut node = fresh();
        for k in 0..BATCH {
            node.receive_cell(cell(k, NodeId(n - 1), peer(k)));
        }
        node
    };

    let schedule_dest_ns = ns_per_op(
        n as u64 * uplinks as u64 * slots as u64,
        || 0u32,
        |acc| {
            for t in 0..slots {
                for i in 0..n {
                    for u in 0..uplinks {
                        *acc =
                            acc.wrapping_add(sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t)).0);
                    }
                }
            }
        },
    );
    let node_enqueue_ns = ns_per_op(BATCH as u64, fresh, |node| {
        for k in 0..BATCH {
            node.enqueue_local(cell(k, NodeId(0), peer(k)));
        }
    });
    let node_receive_ns = ns_per_op(BATCH as u64, fresh, |node| {
        for k in 0..BATCH {
            black_box(node.receive_cell(cell(k, NodeId(n - 1), peer(k))));
        }
    });
    let node_transmit_ns = ns_per_op(BATCH as u64, loaded, |node| {
        for k in 0..BATCH {
            black_box(node.transmit(peer(k)));
        }
    });
    let node_transmit_idle_ns = ns_per_op(BATCH as u64, fresh, |node| {
        for k in 0..BATCH {
            black_box(node.transmit(peer(k)));
        }
    });
    let reorder_accept_inorder_ns = ns_per_op(BATCH as u64, ReorderBuffer::new, |rb| {
        for seq in 0..BATCH {
            black_box(rb.accept(FlowId(1), seq, 540));
        }
    });
    let reorder_accept_reversed_ns = ns_per_op(BATCH as u64, ReorderBuffer::new, |rb| {
        for seq in (0..BATCH).rev() {
            black_box(rb.accept(FlowId(1), seq, 540));
        }
    });
    let vlb = Vlb::new(n as usize);
    let vlb_pick_ns = ns_per_op(
        BATCH as u64,
        || SmallRng::seed_from_u64(seed),
        |rng| {
            for k in 0..BATCH {
                black_box(vlb.pick(rng, NodeId(0), peer(k)));
            }
        },
    );

    LeafTimes {
        schedule_dest_ns,
        node_enqueue_ns,
        node_transmit_ns,
        node_transmit_idle_ns,
        node_receive_ns,
        reorder_accept_inorder_ns,
        reorder_accept_reversed_ns,
        vlb_pick_ns,
        cc_round_ns_per_node: cc_round_ns_per_node(net, seed),
    }
}

/// The request/grant round of one epoch boundary, per node: `begin_epoch`,
/// `issue_grants_filtered` → `receive_grant`, `gen_requests` →
/// `receive_request`, in the engine's order. Between rounds (outside the
/// clock) each node injects a few cells and every node pair gets one
/// transmit opportunity, so queues, grants and sticky requests sit in a
/// steady state instead of saturating.
fn cc_round_ns_per_node(net: &SiriusConfig, seed: u64) -> f64 {
    const ROUNDS: u64 = 16;
    // Untimed: the first request needs a round to become a grant, and
    // another to become a relayed cell.
    const WARMUP: u64 = 4;
    const CELLS_PER_NODE_PER_ROUND: u32 = 4;
    let n = net.nodes;
    let mut nodes: Vec<SiriusNode> = (0..n as u32)
        .map(|i| SiriusNode::new(NodeId(i), n, net.queue_threshold, GRANT_TIMEOUT))
        .collect();
    let vlb = Vlb::new(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut secs = 0.0;
    let mut next_flow = 0u32;
    for epoch in 0..ROUNDS {
        for i in 0..n as u32 {
            for _ in 0..CELLS_PER_NODE_PER_ROUND {
                let dst = (i + rng.gen_range(1..n as u32)) % n as u32;
                nodes[i as usize].enqueue_local(cell(next_flow, NodeId(i), NodeId(dst)));
                next_flow += 1;
            }
        }
        let t = Instant::now();
        for node in &mut nodes {
            node.begin_epoch(epoch);
        }
        for i in 0..n {
            let grants = nodes[i].cc.issue_grants_filtered(&mut rng, epoch, |_| true);
            for (src, dst) in grants {
                if !nodes[src.0 as usize].receive_grant(NodeId(i as u32), dst) {
                    nodes[i].cc.grant_declined(dst);
                }
            }
        }
        for i in 0..n {
            let reqs = nodes[i].gen_requests(&mut rng, |rng, src, dst| vlb.pick(rng, src, dst));
            for (intermediate, dst) in reqs {
                nodes[intermediate.0 as usize]
                    .cc
                    .receive_request(NodeId(i as u32), dst);
            }
        }
        if epoch >= WARMUP {
            secs += t.elapsed().as_secs_f64();
        }
        for i in 0..n {
            for p in 0..n {
                if let SlotTx::ToIntermediate(c) = nodes[i].transmit(NodeId(p as u32)) {
                    nodes[p].receive_cell(c);
                }
            }
        }
    }
    black_box(&nodes);
    secs * 1e9 / ((ROUNDS - WARMUP) * n as u64) as f64
}
