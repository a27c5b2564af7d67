//! Benchmark-side tracing: spans recorded in memory around the calls into
//! each layer and written out once, when the run ends. Spans inside the
//! program are a later change; the only in-program signal folded in is the
//! existing `with_plane_timing` ledger, as aggregated children of `sim.run`.

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which pass over the workload this span belongs to; spans of one
    /// pass share it.
    pub pass: u32,
    /// Seconds since the process started measuring. `None` for a child
    /// that is a sum over many short intervals (a plane's busy time).
    pub start_s: Option<f64>,
    pub dur_s: f64,
}

pub struct Tracer {
    pub workload: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum();
        self.spans[id].dur_s - children
    }

    pub fn to_json(&self) -> Json {
        let num = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        Json::obj([
            ("workload", Json::str(self.workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("parent", num(s.parent.map(|p| p as f64))),
                                ("pass", Json::Num(s.pass as f64)),
                                ("name", Json::str(s.name)),
                                ("start_s", num(s.start_s)),
                                ("end_s", num(s.start_s.map(|t| t + s.dur_s))),
                                ("dur_s", Json::Num(s.dur_s)),
                                ("self_s", Json::Num(self.self_time(id))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
