//! Flow-trace serialization: record a generated workload as CSV text and
//! replay it later.
//!
//! The paper's workloads are synthesized from published distributions, but
//! a reproduction should also accept *external* traces (e.g. exported from
//! a production sniffer or another simulator) so results can be compared
//! on identical inputs. The format is one flow per line:
//!
//! ```csv
//! id,src_server,dst_server,bytes,arrival_ps
//! 0,17,203,4096,125000
//! ```

use crate::flowgen::Flow;
use sirius_core::units::Time;
use std::fmt::Write as _;

/// Errors from trace parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Malformed line (1-based line number, description).
    Parse(usize, String),
    /// Arrivals must be non-decreasing.
    Unsorted(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Parse(line, e) => write!(f, "trace line {line}: {e}"),
            TraceError::Unsorted(line) => {
                write!(f, "trace line {line}: arrivals must be non-decreasing")
            }
        }
    }
}
impl std::error::Error for TraceError {}

/// Serialize flows to the CSV trace format.
pub fn to_csv(flows: &[Flow]) -> String {
    let mut out = String::with_capacity(flows.len() * 32 + 64);
    out.push_str("id,src_server,dst_server,bytes,arrival_ps\n");
    for f in flows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            f.id,
            f.src_server,
            f.dst_server,
            f.bytes,
            f.arrival.as_ps()
        );
    }
    out
}

/// Parse a CSV trace (header required).
pub fn from_csv(text: &str) -> Result<Vec<Flow>, TraceError> {
    let mut flows = Vec::new();
    let mut prev = Time::ZERO;
    for (idx, line) in text.lines().enumerate() {
        if idx == 0 {
            if !line.starts_with("id,") {
                return Err(TraceError::Parse(1, "missing header".into()));
            }
            continue;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| TraceError::Parse(idx + 1, format!("missing field {name}")))
        };
        let id: u64 = parse(field("id")?, idx)?;
        let src: u32 = parse(field("src_server")?, idx)?;
        let dst: u32 = parse(field("dst_server")?, idx)?;
        let bytes: u64 = parse(field("bytes")?, idx)?;
        let arrival_ps: u64 = parse(field("arrival_ps")?, idx)?;
        let arrival = Time::from_ps(arrival_ps);
        if arrival < prev {
            return Err(TraceError::Unsorted(idx + 1));
        }
        prev = arrival;
        if src == dst {
            return Err(TraceError::Parse(idx + 1, "src == dst".into()));
        }
        flows.push(Flow {
            id,
            src_server: src,
            dst_server: dst,
            bytes,
            arrival,
        });
    }
    Ok(flows)
}

fn parse<T: std::str::FromStr>(s: &str, idx: usize) -> Result<T, TraceError> {
    s.trim()
        .parse()
        .map_err(|_| TraceError::Parse(idx + 1, format!("bad number {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgen::WorkloadSpec;
    use crate::pareto::Pareto;
    use crate::patterns::Pattern;
    use sirius_core::units::Rate;

    fn sample_flows() -> Vec<Flow> {
        WorkloadSpec {
            servers: 16,
            server_rate: Rate::from_gbps(10),
            load: 0.5,
            sizes: Pareto::paper_default().truncated(1e6),
            flows: 50,
            pattern: Pattern::Uniform,
            seed: 3,
        }
        .generate()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let flows = sample_flows();
        let parsed = from_csv(&to_csv(&flows)).unwrap();
        assert_eq!(flows, parsed);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(from_csv("nonsense"), Err(TraceError::Parse(1, _))));
        let bad = "id,src_server,dst_server,bytes,arrival_ps\n0,1,2,abc,5\n";
        assert!(matches!(from_csv(bad), Err(TraceError::Parse(2, _))));
        let missing = "id,src_server,dst_server,bytes,arrival_ps\n0,1,2,100\n";
        assert!(matches!(from_csv(missing), Err(TraceError::Parse(2, _))));
    }

    #[test]
    fn rejects_unsorted_and_self_flows() {
        let unsorted = "id,src_server,dst_server,bytes,arrival_ps\n0,1,2,10,500\n1,2,3,10,100\n";
        assert_eq!(from_csv(unsorted), Err(TraceError::Unsorted(3)));
        let selfy = "id,src_server,dst_server,bytes,arrival_ps\n0,4,4,10,0\n";
        assert!(matches!(from_csv(selfy), Err(TraceError::Parse(2, _))));
    }

    #[test]
    fn tolerates_blank_lines() {
        let text = "id,src_server,dst_server,bytes,arrival_ps\n0,1,2,10,0\n\n1,2,3,20,5\n";
        assert_eq!(from_csv(text).unwrap().len(), 2);
    }
}
