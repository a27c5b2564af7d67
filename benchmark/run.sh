#!/usr/bin/env bash
# Build the benchmark offline and start it. Arguments pass through:
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke]   the suite
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1      one measurement
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

die() { echo "benchmark/run.sh: $*" >&2; exit 1; }
[ -f "$root/Cargo.toml" ] || die "no Cargo.toml in $root: the benchmark builds the repo from source"

# The profile that applies to a build is the one in the manifest being
# built, so this package must restate the root's release profile exactly.
release_profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && NF && !/^#/' "$1" | sort
}
[ "$(release_profile "$root/Cargo.toml")" = "$(release_profile "$here/Cargo.toml")" ] ||
    die "[profile.release] in benchmark/Cargo.toml differs from the root Cargo.toml"

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2 ||
    die "build failed"

exec "${CARGO_TARGET_DIR:-$here/target}/release/sirius-benchmark" --root "$root" "$@"
