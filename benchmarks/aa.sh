#!/usr/bin/env bash
# A/A check: runs the full set twice on the same commit and fails if any
# (workload, end-to-end metric) pair differs by more than its bound in
# either direction, or an exact count differs at all.
#
#   benchmarks/aa.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
cd "$(dirname "$0")/.."
bench() { cargo run --release --offline --quiet --manifest-path benchmarks/Cargo.toml -- "$@"; }
out=benchmarks/out
for side in A B; do
    bench run --seed "$seed" --seconds "$seconds"
    cp "$out/run_seed$seed.json" "$out/aa_${side}_seed$seed.json"
done
status=0
bench compare "$out/aa_A_seed$seed.json" "$out/aa_B_seed$seed.json" || status=1
bench compare "$out/aa_B_seed$seed.json" "$out/aa_A_seed$seed.json" || status=1
exit "$status"
