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

# Ceiling on the model crates' unreached public items (`ci.sh docs`).
# Lower it whenever a change deletes some; raise it only on purpose.
UNREACHED_BUDGET=65

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

  echo "==> ESN exactness at esn_fluid's inputs and amortized-refill accuracy (release)"
  # Both are ignored in debug builds, where the every-event reference
  # takes ~35 s and the amortized-refill check ~4.5 s; a few seconds here.
  cargo test --release -q -p sirius-sim --lib -- \
    esn::tests::esn_is_exact_at_every_event_at_esn_fluid_inputs \
    esn::tests::amortized_refill_is_within_one_percent_of_exact
}

stage_docs() {
  echo "==> cargo doc (deny warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

  echo "==> stale-command check (binaries named in the docs, ci.sh and the sources exist)"
  # The sources count too: an example or a doc comment that tells users
  # to run a deleted binary is as stale as a README line.
  local name stale=0
  for name in $(grep -rohE -e '--bin [A-Za-z0-9_-]+' README.md EXPERIMENTS.md DESIGN.md ci.sh \
    examples src crates/*/src | awk '{print $2}' | sort -u); do
    if ! compgen -G "crates/*/src/bin/${name}.rs" > /dev/null; then
      echo "error: --bin ${name} is named but no crates/*/src/bin/${name}.rs exists" >&2
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
  # Only the newest line's `commit` may be null (a commit cannot name its
  # own hash; the next PR back-fills it); every other line's is the full
  # 40-hex-digit hash. A workload may also carry `peak_rss_mb_parent` /
  # `peak_rss_mb_change` (alternated-pair medians, MiB): finite and > 0.
  python3 - results/BENCH_trajectory.jsonl <<'PY'
import json, math, re, sys

path = sys.argv[1]
top = {"pr", "commit", "parent", "host_parallelism", "pairs", "workloads", "moved"}
per = {"wall_s_parent", "wall_s_change", "iqr_parent", "better_of_n", "digest_identical"}
rss = ("peak_rss_mb_parent", "peak_rss_mb_change")


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
    commit = line["commit"]
    if n < len(lines) and not (isinstance(commit, str) and re.fullmatch("[0-9a-f]{40}", commit)):
        fail(n, f"commit {commit!r} is not a 40-hex-digit hash (only the newest line may be null)")
    for name, w in line["workloads"].items():
        if per - w.keys():
            fail(n, f"{name} missing {sorted(per - set(w))}")
        b = w["better_of_n"]
        if not (isinstance(b, list) and len(b) == 2 and isinstance(b[1], int)
                and b[1] > 0 and (b[0] is None or 0 <= b[0] <= b[1])):
            fail(n, f"{name}: better_of_n must be [wins or null, pairs > 0]")
        for key in rss:
            v = w.get(key)
            if key in w and not (isinstance(v, (int, float)) and not isinstance(v, bool)
                                 and math.isfinite(v) and v > 0):
                fail(n, f"{name}: {key} must be a finite number > 0, not {v!r}")
print(f"{path}: {len(lines)} lines, schema and finiteness OK")
PY

  echo "==> unsafe budget (no unsafe site in crates/*/src)"
  # sirius-sim also forbids it at compile time; this covers every crate.
  # A first site means raising this budget on purpose.
  local sites
  sites="$(grep -rEn 'unsafe( |\{)' crates/*/src || true)"
  if [[ -n "$sites" ]]; then
    echo "error: unsafe site in crates/*/src:" >&2
    echo "$sites" >&2
    exit 1
  fi
  echo "no unsafe sites"

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

  echo "==> unreached public items (budget ${UNREACHED_BUDGET})"
  # Public items (fn, struct, enum, trait, const, static, type) above the
  # last #[cfg(test)] of the model crates and the rand/proptest shims
  # whose name no other crate, example or integration test mentions: a
  # word match outside line comments, in which the crate's own binaries
  # do not count. A name shared with a reached item counts as reached,
  # so the list errs short. The count may not exceed UNREACHED_BUDGET: a
  # model either feeds a committed number or goes, so a new unreached
  # item means deleting one, or raising the budget on purpose.
  python3 - "$UNREACHED_BUDGET" <<'PY'
import os, re, sys, textwrap

audited = ["sirius-optics", "sirius-power", "sirius-sync", "sirius-workload", "rand", "proptest"]
item = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(?:fn|struct|enum|trait|const|static|type)\s+([A-Za-z_][A-Za-z0-9_]*)")


def rust_files(root):
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".rs"):
                yield os.path.join(dirpath, f)


def names(path):
    code = "\n".join(l.split("//")[0] for l in open(path).read().splitlines())
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))


corpus = {p: names(p) for root in ["crates", "src", "tests", "examples", "benchmark/src"]
          for p in rust_files(root)}
total = 0
for crate in audited:
    src = f"crates/{crate}/src"
    named = set().union(*(w for p, w in corpus.items() if not p.startswith(f"crates/{crate}/")))
    unreached = []
    for path in rust_files(src):
        lines = open(path).read().splitlines()
        cut = max((k for k, l in enumerate(lines) if "#[cfg(test)]" in l), default=len(lines))
        module = os.path.relpath(path, src)[:-3].replace("/", "::")
        prefix = "" if module == "lib" else module.removesuffix("::mod") + "::"
        for line in lines[:cut]:
            m = item.match(line)
            if m and m.group(1) not in named:
                unreached.append(prefix + m.group(1))
    total += len(unreached)
    print(f"{crate:<16} {len(unreached):6d}")
    if unreached:
        print(textwrap.fill(" ".join(unreached), 96, initial_indent="    ", subsequent_indent="    "))
print(f"{'total':<16} {total:6d}")
budget = int(sys.argv[1])
if total > budget:
    sys.exit(f"error: {total} unreached public items exceed the budget of {budget}")
PY
}

stage_bench_smoke() {
  echo "==> bench smoke (fault_tolerance + repair_granularity + correlated_faults + sim_throughput + repo benchmark, reduced scale)"
  # Exercises the experiment harnesses end-to-end at reduced scale and
  # leaves results/*.csv and results/*.json behind for the workflow to
  # upload as artifacts. Harnesses run with --jobs 2 to cover the
  # parallel sweep path. sim_throughput runs at quick scale: CI machines
  # are too noisy for paper-scale timings (those are measured locally and
  # recorded in EXPERIMENTS.md), but the harness path — including the
  # BENCH_sim_throughput.json emitter — is covered.
  #
  # The three §4.5 entries run twice: serially first, then on 2 workers,
  # and their nine artifacts must be byte-identical across the two.
  local fault_artifacts=(fault_detect.csv fault_goodput.csv fault_grey.csv
    repair_granularity.csv correlated_blast.csv correlated_detect.csv
    correlated_goodput.csv byzantine_damage.csv BENCH_correlated_faults.json)
  local f
  cargo run --release -p sirius-bench --bin xp -- \
    fault_tolerance repair_granularity correlated_faults --smoke --jobs 1
  mkdir -p results/.serial_faults
  for f in "${fault_artifacts[@]}"; do
    cp "results/$f" results/.serial_faults/
  done
  cargo run --release -p sirius-bench --bin xp -- \
    fault_tolerance repair_granularity correlated_faults --smoke --jobs 2
  # Schema/sanity validation of the correlated-domain + Byzantine
  # evaluation's JSON artifact.
  validate_bench_json results/BENCH_correlated_faults.json \
    '"bench": "correlated_faults"' '"silence_bound_epochs"' '"bank": \[' \
    '"byzantine": \[' '"drop_rate"' '"max_forged_per_epoch"' '"domains"' \
    '"cf_link"' '"cf_node"' '"advantage"'

  echo "==> parallel-equals-serial (the nine §4.5 artifacts, --jobs 1 vs --jobs 2)"
  for f in "${fault_artifacts[@]}"; do
    cmp "results/.serial_faults/$f" "results/$f"
  done
  rm -rf results/.serial_faults
  echo "§4.5 artifacts byte-identical across --jobs 1 and --jobs 2"

  echo "==> sim_throughput (quick scale)"
  cargo run --release -p sirius-bench --bin xp -- sim_throughput --quick --jobs 2
  # Schema-gate the artifact, including the per-plane wall breakdown
  # (tx/deliver/merge) it reports per point.
  validate_bench_json results/BENCH_sim_throughput.json \
    '"bench": "sim_throughput"' '"host_parallelism"' \
    '"tx_secs"' '"deliver_secs"' '"merge_secs"' '"admit_secs"' '"inject_secs"' \
    '"cc_secs"' '"cells_per_sec"' '"digest"'
  # A speedup against a number recorded on some other host is not a
  # measurement (benchmark/run.sh --compare is the authority for
  # commit-to-commit claims).
  if grep -q 'protocol_speedup_vs_baseline' results/BENCH_sim_throughput.json; then
    echo "error: BENCH_sim_throughput.json carries a cross-host baseline ratio again" >&2
    exit 1
  fi

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
  cargo run --release -p sirius-bench --bin xp -- scale_series --smoke --jobs 1
  validate_bench_json results/BENCH_scale_series.json \
    '"bench": "scale_series"' '"resident_ok"' '"rss_sublinear"' \
    '"rss_subquadratic_in_nodes"' '"points": \[' \
    '"nodes"' '"grating"' '"flows"' '"cells_per_sec"' \
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

  echo "==> scale series parallel-equals-serial (--jobs 2)"
  # Per-point digests from a parallel-sweep run must match the serial
  # single-worker leg above.
  cargo run --release -p sirius-bench --bin xp -- scale_series --smoke --jobs 2
  grep -o '"digest": "[0-9a-f]*"' results/BENCH_scale_series.json > results/.scale_digests_parallel
  cmp results/.scale_digests_serial results/.scale_digests_parallel
  rm -f results/.scale_digests_serial results/.scale_digests_parallel
  echo "scale_series digests byte-identical across --jobs 1 and --jobs 2"
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
