//! Scale-out series harness: N ∈ {128..4096} nodes, flow counts into
//! the millions, every point on the streaming (memory-bounded) engine.
//! Pass `--smoke` for the two-point CI gate size, `--full` for the
//! 4096-node / 2M-flow series, `--shards N` for intra-run slot-engine
//! parallelism (digest-identical to serial). Emits
//! `results/scale_series.csv` and `results/BENCH_scale_series.json`
//! with the residency and RSS gate verdicts baked in.
use sirius_bench::experiments::scale_series;
use sirius_bench::{Cli, MemoryClass};

fn main() {
    let cli = Cli::parse();
    let scale = cli.scale;
    // The largest points hold the full per-node deployment state per
    // concurrent sweep job; the memory class caps --jobs accordingly
    // (and the cap also keeps the per-point VmHWM readings honest).
    let jobs = cli.effective_jobs(MemoryClass::HighMemory {
        cap: scale_series::jobs_cap(scale),
    });
    let shards = cli.shards.unwrap_or(1);
    eprintln!("=== scale-out series, {scale:?} scale, --jobs {jobs}, --shards {shards} ===");
    let pts = scale_series::run(scale, 1, jobs, shards);
    let gates = scale_series::gates(&pts);
    scale_series::table(&pts).emit("scale_series");
    scale_series::emit_json(&pts, scale, jobs);
    eprintln!("{gates:?}");
    if !gates.resident_ok {
        eprintln!("error: resident flow state exceeded its bound; see table above");
        std::process::exit(1);
    }
}
