#!/usr/bin/env bash
# Builds the benchmark once, then runs the four workloads untraced and
# traced for every seed given (default: 1). Results go under benchmark/out/:
#   untraced.jsonl, traced.jsonl   one record per run (--compare reads them)
#   trace-<workload>-<seed>.jsonl  the spans of each traced run
# Extra variables: SECONDS_PER_RUN (default: run_seconds of BENCHMARK.json).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1)

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/lan-benchmark"

mkdir -p "$out"
rm -f "$out/untraced.jsonl" "$out/traced.jsonl"
extra=()
[ -z "${SECONDS_PER_RUN:-}" ] || extra=(--seconds "$SECONDS_PER_RUN")

for trace in 0 1; do
  if [ "$trace" = 0 ]; then record="$out/untraced.jsonl"; else record="$out/traced.jsonl"; fi
  for seed in "${seeds[@]}"; do
    for workload in syn-route aids-ged syn-serve syn-build; do
      echo "== $workload seed=$seed trace=$trace" >&2
      "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
        --out "$record" "${extra[@]}" | tail -n 1
    done
  done
done

# The traced and the untraced run of one seed must give the same answers.
"$bin" --compare "$out/untraced.jsonl" "$out/traced.jsonl"
# Spread of every end-to-end metric over the seeds, against its bound.
"$bin" --compare "$out/untraced.jsonl" "$out/untraced.jsonl"
