//! Fixed-size cells — the unit of transmission in Sirius (§4.2).
//!
//! Sirius transmits fixed-size cells so that every timeslot carries exactly
//! one cell; variable-size packets are segmented into cells at the source
//! server and reassembled (in order, via [`crate::reorder`]) at the
//! destination. Requests and grants of the congestion-control protocol are
//! piggybacked in the cell header (§4.3), so control traffic consumes no
//! extra slots; the simulator models this by exchanging control messages at
//! the same connection opportunities that carry (possibly idle) cells.

use crate::topology::{NodeId, ServerId};

/// Identifier of an application flow (five-tuple stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// A fixed-size cell in flight. `Copy` and 32 bytes so the hot loop never
/// heap-allocates per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Flow this cell belongs to.
    pub flow: FlowId,
    /// Sequence number of this cell within the flow (for reordering).
    pub seq: u32,
    /// Application payload bytes carried (== payload capacity except for the
    /// final runt cell of a flow).
    pub payload: u32,
    /// Node that originated the cell.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Destination server (delivery + reorder happens per server).
    pub dst_server: ServerId,
    /// True on the last cell of the flow.
    pub last: bool,
}

impl Cell {
    /// Number of cells needed to carry `bytes` of payload with the given
    /// per-cell payload capacity.
    pub fn count_for(bytes: u64, payload_capacity: u32) -> u64 {
        debug_assert!(payload_capacity > 0);
        bytes.div_ceil(payload_capacity as u64).max(1)
    }

    /// Payload carried by cell `seq` (0-based) of a flow of `bytes` total.
    pub fn payload_of(seq: u64, bytes: u64, payload_capacity: u32) -> u32 {
        let n = Cell::count_for(bytes, payload_capacity);
        debug_assert!(seq < n);
        if seq + 1 < n {
            payload_capacity
        } else {
            // Final cell carries the remainder (or a zero-byte flow's
            // single empty cell).
            (bytes - seq * payload_capacity as u64) as u32
        }
    }
}

/// `CellRun::tail`'s flag bit: the run ends in its flow's last cell.
const LAST: u32 = 1 << 31;

/// `count` consecutive cells of one flow queued toward one destination,
/// starting at `seq`: how a LOCAL queue stores its cells. A server's few
/// active flows mostly head to different destinations, so a LOCAL queue
/// is mostly long stretches of one flow's consecutive cells, and one
/// record stands for each. Every cell but the run's final one carries
/// `payload` and is not its flow's last, so a run hands back each cell
/// field for field. The destination is the queue's key and is not
/// stored: 32 bytes, the size of one [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellRun {
    flow: FlowId,
    /// Sequence number of the front cell.
    seq: u32,
    count: u32,
    src: NodeId,
    dst_server: ServerId,
    /// Payload of every cell but the final one.
    payload: u32,
    /// The final cell's payload, with [`LAST`] set when it is the flow's
    /// last cell.
    tail: u32,
}

impl CellRun {
    /// A run of the one cell `c`.
    #[inline]
    pub(crate) fn new(c: &Cell) -> CellRun {
        assert!(
            c.payload < LAST,
            "cell payload {} does not fit a run",
            c.payload
        );
        CellRun {
            flow: c.flow,
            seq: c.seq,
            count: 1,
            src: c.src,
            dst_server: c.dst_server,
            payload: c.payload,
            tail: c.payload | if c.last { LAST } else { 0 },
        }
    }

    /// Append `c` if it is the run's next cell: same flow, source and
    /// server, the next sequence number, and a run whose final cell is
    /// not its flow's last and carries the inner cells' payload (it
    /// becomes an inner cell). `c` must be bound for the run's
    /// destination.
    #[inline]
    pub(crate) fn extend(&mut self, c: &Cell) -> bool {
        let next = c.flow == self.flow
            && c.seq == self.seq.wrapping_add(self.count)
            && c.src == self.src
            && c.dst_server == self.dst_server
            && self.tail == self.payload
            && c.payload < LAST;
        if next {
            self.count += 1;
            self.tail = c.payload | if c.last { LAST } else { 0 };
        }
        next
    }

    /// Take the front cell, bound for `dst`. Returns it and whether the
    /// run is now empty (the caller frees its record).
    #[inline]
    pub(crate) fn pop_front(&mut self, dst: NodeId) -> (Cell, bool) {
        debug_assert!(self.count > 0, "an empty run is freed");
        let final_cell = self.count == 1;
        let cell = Cell {
            flow: self.flow,
            seq: self.seq,
            payload: if final_cell {
                self.tail & !LAST
            } else {
                self.payload
            },
            src: self.src,
            dst,
            dst_server: self.dst_server,
            last: final_cell && self.tail & LAST != 0,
        };
        self.seq = self.seq.wrapping_add(1);
        self.count -= 1;
        (cell, final_cell)
    }
}

/// A congestion-control request: "may I send one cell destined to `dst`
/// through you?" — piggybacked from `from` to the intermediate carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub from: NodeId,
    pub dst: NodeId,
}

/// A congestion-control grant: "send me one cell destined to `dst`" —
/// piggybacked from the intermediate `from` back to the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub from: NodeId,
    pub dst: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_small() {
        // Keep the hot-path struct compact; the simulator moves millions.
        assert!(std::mem::size_of::<Cell>() <= 40);
    }

    #[test]
    fn a_run_record_is_no_larger_than_a_cell() {
        // A one-cell run must cost what the cell would.
        assert!(std::mem::size_of::<CellRun>() <= std::mem::size_of::<Cell>());
    }

    /// Cell `seq` of a `len`-cell flow of `bytes` from node 4 to node 9.
    fn flow_cell(seq: u32, len: u32, bytes: u64) -> Cell {
        Cell {
            flow: FlowId(3),
            seq,
            payload: Cell::payload_of(seq as u64, bytes, 540),
            src: NodeId(4),
            dst: NodeId(9),
            dst_server: ServerId(19),
            last: seq + 1 == len,
        }
    }

    #[test]
    fn a_run_hands_back_its_cells_field_for_field() {
        for bytes in [0, 540, 1234, 5400] {
            let len = Cell::count_for(bytes, 540) as u32;
            let cells: Vec<Cell> = (0..len).map(|s| flow_cell(s, len, bytes)).collect();
            let mut run = CellRun::new(&cells[0]);
            for c in &cells[1..] {
                assert!(run.extend(c), "{bytes} B: cell {} did not extend", c.seq);
            }
            // Nothing continues a run that ends in its flow's last cell.
            let after = Cell {
                seq: len,
                last: false,
                ..cells[0]
            };
            assert!(!run.extend(&after));
            let mut got = Vec::new();
            loop {
                let (c, emptied) = run.pop_front(NodeId(9));
                got.push(c);
                if emptied {
                    break;
                }
            }
            assert_eq!(got, cells, "{bytes} B");
        }
    }

    #[test]
    fn a_run_takes_only_its_next_cell() {
        let run = CellRun::new(&flow_cell(5, 20, 20 * 540));
        let next = flow_cell(6, 20, 20 * 540);
        let refuses = |c: Cell| !run.clone().extend(&c);
        assert!(!refuses(next));
        assert!(refuses(flow_cell(7, 20, 20 * 540)), "a gap");
        assert!(refuses(flow_cell(5, 20, 20 * 540)), "a repeat");
        assert!(
            refuses(Cell {
                flow: FlowId(4),
                ..next
            }),
            "another flow"
        );
        assert!(
            refuses(Cell {
                src: NodeId(5),
                ..next
            }),
            "another source"
        );
        assert!(
            refuses(Cell {
                dst_server: ServerId(18),
                ..next
            }),
            "another server"
        );
        // A final cell whose payload differs from the inner cells' cannot
        // become an inner cell, even when it is not its flow's last.
        let mut run = run;
        assert!(run.extend(&Cell {
            payload: 100,
            ..next
        }));
        assert!(!run.extend(&flow_cell(7, 20, 20 * 540)));
    }

    #[test]
    fn count_for_rounds_up() {
        assert_eq!(Cell::count_for(1, 540), 1);
        assert_eq!(Cell::count_for(540, 540), 1);
        assert_eq!(Cell::count_for(541, 540), 2);
        assert_eq!(Cell::count_for(5400, 540), 10);
        // Zero-byte flows still need one cell to signal completion.
        assert_eq!(Cell::count_for(0, 540), 1);
    }

    #[test]
    fn payload_of_splits_exactly() {
        let bytes = 1234u64;
        let cap = 540u32;
        let n = Cell::count_for(bytes, cap);
        let total: u64 = (0..n).map(|s| Cell::payload_of(s, bytes, cap) as u64).sum();
        assert_eq!(total, bytes);
        assert_eq!(Cell::payload_of(0, bytes, cap), 540);
        assert_eq!(Cell::payload_of(2, bytes, cap), 154);
    }

    #[test]
    fn payload_of_full_multiple() {
        // Flow of exactly k cells: last cell is full.
        assert_eq!(Cell::payload_of(1, 1080, 540), 540);
    }
}
