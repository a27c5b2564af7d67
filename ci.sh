#!/usr/bin/env bash
# Single source of truth for CI: every stage that .github/workflows/ci.yml
# runs is a function here, and the workflow invokes `./ci.sh <stage>` so
# local runs and CI cannot drift.
#
#   ./ci.sh              run the core gate (fmt clippy build test audit)
#   ./ci.sh <stage>      run one stage: fmt | clippy | build | test |
#                        audit | docs | bench-smoke | scale-smoke |
#                        live-smoke
set -euo pipefail
cd "$(dirname "$0")"

# The repo builds against the 1.95 stable minor (see rust-toolchain.toml;
# the channel is spelled "stable" because offline containers cannot
# resolve a versioned channel, so the pin is asserted here instead).
PINNED_RUST_MINOR="1.95"

check_toolchain() {
  local v
  v="$(rustc --version | awk '{print $2}')"
  case "$v" in
    "$PINNED_RUST_MINOR".*) ;;
    *)
      echo "error: rustc $v does not match pinned minor $PINNED_RUST_MINOR" >&2
      echo "       (update PINNED_RUST_MINOR in ci.sh and rust-toolchain.toml together)" >&2
      exit 1
      ;;
  esac
}

# --- per-stage wall clock -----------------------------------------------
# Every stage runs through run_stage, which stamps its wall-clock at the
# end; the EXIT trap prints the same line when a stage dies mid-way (set
# -e), so a hung-then-killed CI job still reports where the time went.
CI_STAGE=""
STAGE_T0=0

stage_elapsed() {
  if [[ -n "$CI_STAGE" ]]; then
    echo "[ci] stage ${CI_STAGE}: $((SECONDS - STAGE_T0))s elapsed"
  fi
}
trap stage_elapsed EXIT

run_stage() {
  CI_STAGE="$1"
  STAGE_T0=$SECONDS
  "stage_${1//-/_}"
  stage_elapsed
  CI_STAGE=""
}

# --- shared JSON artifact validation ------------------------------------
# validate_bench_json <file> <key-pattern>...: the artifact must exist and
# be non-empty, every key pattern (grep -E) must appear, and no non-finite
# number (NaN/inf — invalid JSON) may leak in. Every BENCH_*.json a
# downstream gate reads goes through this instead of hand-rolled loops.
validate_bench_json() {
  local file="$1"
  shift
  if ! test -s "$file"; then
    echo "error: $file is missing or empty" >&2
    exit 1
  fi
  local key
  for key in "$@"; do
    if ! grep -qE "$key" "$file"; then
      echo "error: $file is missing $key" >&2
      exit 1
    fi
  done
  if grep -nEi '\b(nan|inf|infinity)\b' "$file"; then
    echo "error: non-finite number leaked into $file" >&2
    exit 1
  fi
  echo "$(basename "$file") schema and finiteness OK"
}

stage_fmt() {
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check
}

stage_clippy() {
  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_build() {
  echo "==> cargo build --release"
  cargo build --release --workspace
}

stage_test() {
  echo "==> cargo test"
  cargo test -q --workspace
}

stage_audit() {
  echo "==> audit-enabled conformance (release)"
  # Paper-scale runs with the invariant audit on, the §4.5 fault-tolerance
  # suite, and the golden run digests — release mode, since the audited
  # 128-node runs are too slow for debug builds to gate every push.
  local suites=(-p sirius --test conformance --test fault_tolerance --test golden_digests)
  cargo test --release -q "${suites[@]}"

  echo "==> the same suites, sharded (SIRIUS_SHARDS=2)"
  # Audited runs shard like any other (probes fire only on the main
  # thread), and these suites build most of their runs without
  # with_shards, so the rerun audits the sharded engine; digests and
  # audit verdicts must not move.
  SIRIUS_SHARDS=2 cargo test --release -q "${suites[@]}"
}

stage_docs() {
  echo "==> cargo doc (deny warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

  echo "==> stale-command check (binaries named in the docs and ci.sh exist)"
  local name stale=0
  for name in $(grep -ohE -e '--bin [A-Za-z0-9_-]+' README.md EXPERIMENTS.md DESIGN.md ci.sh |
    awk '{print $2}' | sort -u); do
    if ! compgen -G "crates/*/src/bin/${name}.rs" > /dev/null; then
      echo "error: --bin ${name} is documented but no crates/*/src/bin/${name}.rs exists" >&2
      stale=1
    fi
  done
  if (( stale )); then
    exit 1
  fi
  echo "documented binaries all exist"

  echo "==> perf trajectory (results/BENCH_trajectory.jsonl)"
  # One line per perf or simplicity PR, appended, never rewritten: the
  # alternated-pair numbers parent vs change per benchmark workload.
  # Every line must parse, carry the schema's keys, hold only finite
  # numbers (null = not recorded), and name a PR after the line before.
  # A line's `commit` is null when the PR wrote it about itself (a commit
  # cannot name its own hash); the next line's `parent` names it.
  python3 - results/BENCH_trajectory.jsonl <<'PY'
import json, math, sys

path = sys.argv[1]
top = {"pr", "commit", "parent", "host_parallelism", "pairs", "workloads", "moved"}
per = {"wall_s_parent", "wall_s_change", "iqr_parent", "better_of_n", "digest_identical"}


def fail(n, msg):
    sys.exit(f"error: {path}:{n}: {msg}")


def finite(token):
    # Called for every float literal and for NaN / Infinity.
    if not math.isfinite(float(token)):
        raise ValueError(f"non-finite number {token}")
    return float(token)


with open(path) as f:
    lines = [l for l in f.read().splitlines() if l.strip()]
if not lines:
    fail(0, "no lines")
last_pr = 0
for n, text in enumerate(lines, 1):
    try:
        line = json.loads(text, parse_float=finite, parse_constant=finite)
    except ValueError as e:
        fail(n, e)
    if not isinstance(line, dict) or top - line.keys():
        fail(n, f"missing keys {sorted(top - set(line))}")
    pr = line["pr"]
    if not isinstance(pr, int) or pr <= last_pr:
        fail(n, f"pr {pr!r} does not follow pr {last_pr}")
    last_pr = pr
    if not isinstance(line["parent"], str) or not line["workloads"]:
        fail(n, "no parent commit or no workloads")
    for name, w in line["workloads"].items():
        if per - w.keys():
            fail(n, f"{name} missing {sorted(per - set(w))}")
        b = w["better_of_n"]
        if not (isinstance(b, list) and len(b) == 2 and isinstance(b[1], int)
                and b[1] > 0 and (b[0] is None or 0 <= b[0] <= b[1])):
            fail(n, f"{name}: better_of_n must be [wins or null, pairs > 0]")
print(f"{path}: {len(lines)} lines, schema and finiteness OK")
PY

  echo "==> unsafe budget (at most 4 unsafe sites in crates/*/src)"
  # The four: the pool broadcast's closure-lifetime transmute, and the
  # FlowSlots element view's `unsafe impl Sync`, `unsafe fn get_mut` and
  # its one call site. A fifth means raising this budget on purpose.
  local sites count
  sites="$(grep -rEn 'unsafe( |\{)' crates/*/src || true)"
  count="$(grep -c . <<< "$sites" || true)"
  if (( count > 4 )); then
    echo "error: more than 4 unsafe sites in crates/*/src:" >&2
    echo "$sites" >&2
    exit 1
  fi
  echo "unsafe sites within budget"

  echo "==> non-test lines per crate (print only)"
  # Lines above each source file's last #[cfg(test)] (the whole file when
  # it has none): the size figure simplicity changes report.
  local crate file last lines total=0
  for crate in crates/*/; do
    lines=0
    while IFS= read -r file; do
      last="$({ grep -n '#\[cfg(test)\]' "$file" || true; } | tail -n 1 | cut -d: -f1)"
      if [[ -n "$last" ]]; then
        lines=$((lines + last - 1))
      else
        lines=$((lines + $(wc -l < "$file")))
      fi
    done < <(find "${crate}src" -name '*.rs' | sort)
    printf '%-16s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
  done
  printf '%-16s %6d\n' total "$total"
}

stage_bench_smoke() {
  echo "==> bench smoke (fault_tolerance + repair_granularity + correlated_faults + sim_throughput + repo benchmark, reduced scale)"
  # Exercises the experiment harnesses end-to-end at reduced scale and
  # leaves results/*.csv and results/*.json behind for the workflow to
  # upload as artifacts. Harnesses run with --jobs 2 to cover the
  # parallel sweep path. sim_throughput runs at quick scale: CI machines
  # are too noisy for the paper-scale speedup gate (that number is
  # measured locally and recorded in EXPERIMENTS.md), but the harness
  # path — including the BENCH_sim_throughput.json emitter — is covered.
  cargo run --release -p sirius-bench --bin xp -- fault_tolerance --smoke --jobs 2
  cargo run --release -p sirius-bench --bin xp -- repair_granularity --smoke --jobs 2

  echo "==> correlated_faults --smoke under SIRIUS_SHARDS=2"
  # The correlated-domain + Byzantine evaluation end to end, with every
  # run's slot engine sharded (the digest contract makes this free), then
  # schema/sanity validation of the JSON artifact.
  SIRIUS_SHARDS=2 cargo run --release -p sirius-bench --bin xp -- correlated_faults --smoke --jobs 2
  validate_bench_json results/BENCH_correlated_faults.json \
    '"bench": "correlated_faults"' '"silence_bound_epochs"' '"bank": \[' \
    '"byzantine": \[' '"drop_rate"' '"max_forged_per_epoch"' '"domains"' \
    '"cf_link"' '"cf_node"' '"advantage"'

  echo "==> sharded-equals-serial (sim_throughput digests, --shards 1 vs --shards 2)"
  # The slot-engine sharding contract — now covering the
  # receiver-partitioned deliver phase as well as TX — checked on the
  # real artifacts: a quick-scale run with --shards 2 must report the
  # same per-mode run digests as --shards 1. (The experiment also asserts
  # this in-process when --shards > 1; the cross-invocation compare below
  # additionally pins that the serial engine itself didn't drift between
  # the two runs.)
  cargo run --release -p sirius-bench --bin xp -- sim_throughput --quick --jobs 2 --shards 1
  grep -o '"digest": "[0-9a-f]*"' results/BENCH_sim_throughput.json > results/.digests_serial
  cargo run --release -p sirius-bench --bin xp -- sim_throughput --quick --jobs 2 --shards 2
  grep -o '"digest": "[0-9a-f]*"' results/BENCH_sim_throughput.json | head -n 3 > results/.digests_sharded_serialleg
  cmp results/.digests_serial results/.digests_sharded_serialleg
  rm -f results/.digests_serial results/.digests_sharded_serialleg
  echo "sim_throughput digests byte-identical across --shards 1 and --shards 2"
  # Schema-gate the artifact, including the per-plane wall breakdown
  # (tx/deliver/merge) the sharded-deliver work reports per point.
  validate_bench_json results/BENCH_sim_throughput.json \
    '"bench": "sim_throughput"' '"host_parallelism"' '"shards"' \
    '"tx_secs"' '"deliver_secs"' '"merge_secs"' '"admit_secs"' '"inject_secs"' \
    '"cc_secs"' '"cells_per_sec"' \
    '"protocol_sharded_speedup_vs_serial"' '"digest"'
  # The only ratio the artifact may carry is the one measured inside this
  # run on this host; a speedup against a number recorded on some other
  # host is not a measurement (benchmark/run.sh --compare is the authority
  # for commit-to-commit claims).
  if grep -q 'protocol_speedup_vs_baseline' results/BENCH_sim_throughput.json; then
    echo "error: BENCH_sim_throughput.json carries a cross-host baseline ratio again" >&2
    exit 1
  fi

  echo "==> test suite under SIRIUS_SHARDS=2 (release)"
  # Every simulation in the suite that does not pick its own shard count
  # runs sharded, audited or not; digest-pinned tests (golden,
  # determinism, conformance) must be unaffected.
  SIRIUS_SHARDS=2 cargo test --release -q --workspace

  echo "==> repo benchmark, smoke scale (benchmark/run.sh --smoke)"
  # The seven BENCHMARK.json workloads at 1/50 the flows (~12 s): the
  # benchmark itself fails the run unless paper_sharded's digest equals
  # the serial one, the audited verify leg is clean, and the output
  # carries exactly the metric names BENCHMARK.json lists.
  benchmark/run.sh --smoke > /dev/null

  echo "==> parallel-equals-serial (fig9 CSVs, --jobs 1 vs --jobs 2)"
  # The executor's determinism contract, checked on the real artifacts:
  # the fig9 CSVs from a serial run and a 2-worker run must be
  # byte-identical. (cargo test covers the same property in-process; this
  # checks the full binary → results/ path.)
  cargo run --release -p sirius-bench --bin xp -- fig9 --smoke --jobs 1
  mkdir -p results/.serial
  cp results/fig9a.csv results/fig9b.csv results/.serial/
  cargo run --release -p sirius-bench --bin xp -- fig9 --smoke --jobs 2
  cmp results/.serial/fig9a.csv results/fig9a.csv
  cmp results/.serial/fig9b.csv results/fig9b.csv
  rm -rf results/.serial
  echo "fig9 CSVs byte-identical across --jobs 1 and --jobs 2"

  echo "==> xp --timing (smoke scale): emit results/BENCH_xp_wall.json"
  # Runs the full reproduction twice (serial, then --jobs 2) and records
  # per-experiment wall-clock; the workflow uploads the JSON artifact.
  # (Keys only — a 0-duration leg reports null ratios, which the
  # finiteness check inside the validator also covers.)
  cargo run --release -p sirius-bench --bin xp -- --smoke --timing --jobs 2
  validate_bench_json results/BENCH_xp_wall.json \
    '"bench": "xp_wall"' '"experiments": \[' '"serial_total_secs"' \
    '"parallel_total_secs"' '"total_speedup"'
}

stage_scale_smoke() {
  echo "==> scale-out series smoke (streaming engine, memory gates)"
  # The smoke series (128 → 512 nodes, ending in a same-geometry pair
  # with 8× the flows) on the streaming engine. The experiment exits
  # non-zero itself if the in-flight flow bound is violated (xp passes an
  # entry's status through, and set -e fails the stage on it); the JSON
  # carries every gate verdict so this stage greps booleans instead of
  # re-deriving thresholds in shell. --jobs 1 on this leg: points must
  # complete in order for the process-monotonic VmHWM readings behind
  # the RSS gate to be attributable to their points.
  cargo run --release -p sirius-bench --bin xp -- scale_series --smoke --jobs 1 --shards 1
  validate_bench_json results/BENCH_scale_series.json \
    '"bench": "scale_series"' '"resident_ok"' '"rss_sublinear"' \
    '"rss_subquadratic_in_nodes"' '"points": \[' \
    '"nodes"' '"grating"' '"flows"' '"cells_per_sec"' '"cells_per_sec_per_core"' \
    '"peak_rss_bytes"' '"resident_flows_max"' '"resident_bound"' \
    '"fct_p50_us": [0-9]' '"fct_p99_us": [0-9]' '"digest"'
  # Residency must hold outright; RSS sub-linearity must hold or be
  # honestly unmeasurable (null — e.g. no /proc), never false.
  if ! grep -q '"resident_ok": true' results/BENCH_scale_series.json; then
    echo "error: resident flow state exceeded its bound (see scale_series.csv)" >&2
    exit 1
  fi
  if ! grep -qE '"rss_sublinear": (true|null)' results/BENCH_scale_series.json; then
    echo "error: peak RSS grew super-linearly in total flows" >&2
    exit 1
  fi
  # Same contract for the node axis: 4x the nodes may cost at most 6x
  # the peak RSS (dense per-peer node state costs more).
  if ! grep -qE '"rss_subquadratic_in_nodes": (true|null)' results/BENCH_scale_series.json; then
    echo "error: peak RSS grew near-quadratically in nodes (128 -> 512)" >&2
    exit 1
  fi
  grep -o '"digest": "[0-9a-f]*"' results/BENCH_scale_series.json > results/.scale_digests_serial

  echo "==> scale series sharded-equals-serial (--shards 2, --jobs 2)"
  # The streaming engine honors the same sharding contract as the slice
  # path: per-point digests from a sharded, parallel-sweep run must
  # match the serial single-worker leg above (this doubles as the
  # jobs-determinism check on the real artifact).
  cargo run --release -p sirius-bench --bin xp -- scale_series --smoke --jobs 2 --shards 2
  grep -o '"digest": "[0-9a-f]*"' results/BENCH_scale_series.json > results/.scale_digests_sharded
  cmp results/.scale_digests_serial results/.scale_digests_sharded
  rm -f results/.scale_digests_serial results/.scale_digests_sharded
  echo "scale_series digests byte-identical across --shards 1 and --shards 2"
}

stage_live_smoke() {
  echo "==> live-process sync smoke (sirius-sync-node over UDP loopback)"
  # The same SyncEngine that runs in-sim, as 4 real OS processes over
  # UDP/loopback. xp exits non-zero unless the cluster locks: every
  # node reports, nobody is deaf, and the worst p99 applied-correction
  # magnitude stays inside one epoch. Loopback measures the host's
  # scheduler wakeup latency (tens of µs), not the paper's ps-scale
  # optics — the artifact carries the in-sim prediction next to the
  # measurement so that gap stays explicit, and `locked` is the verdict.
  #
  # Build both binaries up front: the orchestrator execs a *sibling*
  # sirius-sync-node, which `cargo run -p sirius-bench` alone would not
  # build (it belongs to sirius-sync), and compile time must not count
  # against the wall-clock bound below.
  cargo build --release -p sirius-sync -p sirius-bench
  local t0=$SECONDS
  cargo run --release -p sirius-bench --bin xp -- live_sync --smoke
  local elapsed=$((SECONDS - t0))
  # Smoke preset paces 1500 epochs x 2 ms + calibration ≈ 3-4 s once
  # built; the orchestrator kills the cluster at its internal deadline,
  # so a stage blowing well past that means processes hung.
  if (( elapsed > 90 )); then
    echo "error: live smoke took ${elapsed}s (expected a few seconds)" >&2
    exit 1
  fi
  validate_bench_json results/BENCH_live_sync.json \
    '"bench": "live_sync"' '"transport": "udp_loopback"' '"locked": true' \
    '"applied_total"' '"applied_expected"' '"achieved_p50_ps": [0-9]' \
    '"achieved_p99_ps": [0-9]' '"achieved_max_ps": [0-9]' \
    '"sim_max_deviation_ps"' '"node_reports": \['
}

case "${1-all}" in
  fmt) check_toolchain; run_stage fmt ;;
  clippy) check_toolchain; run_stage clippy ;;
  build) check_toolchain; run_stage build ;;
  test) check_toolchain; run_stage test ;;
  audit) check_toolchain; run_stage audit ;;
  docs) check_toolchain; run_stage docs ;;
  bench-smoke) check_toolchain; run_stage bench-smoke ;;
  scale-smoke) check_toolchain; run_stage scale-smoke ;;
  live-smoke) check_toolchain; run_stage live-smoke ;;
  all)
    check_toolchain
    run_stage fmt
    run_stage clippy
    run_stage build
    run_stage test
    run_stage audit
    echo "CI green."
    ;;
  *)
    echo "usage: $0 [fmt|clippy|build|test|audit|docs|bench-smoke|scale-smoke|live-smoke]" >&2
    exit 2
    ;;
esac
