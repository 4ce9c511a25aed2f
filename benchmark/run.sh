#!/usr/bin/env bash
# A full pass: build once, then every workload untraced and traced, with the
# default seed unless arguments say otherwise (they are passed to each run,
# e.g. `benchmark/run.sh --seed 7`). Writes benchmark/out/summary.json and,
# from the traced runs, benchmark/out/trace-<workload>.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/urllc-benchmark"

# The workload names come from the program's own table.
mapfile -t workloads < <("$bin" --list | awk '/^workloads:/ {on = 1; next} /^$/ {on = 0} on && $2 ~ /^\[/ {print $1}')

mkdir -p benchmark/out
summary=benchmark/out/summary.json
{
    echo "{"
    last=$((${#workloads[@]} - 1))
    for i in "${!workloads[@]}"; do
        w=${workloads[$i]}
        untraced=$("$bin" --workload "$w" --trace 0 "$@" | tee /dev/stderr | tail -n 1)
        traced=$("$bin" --workload "$w" --trace 1 "$@" | tee /dev/stderr | tail -n 1)
        sep=","
        [ "$i" -eq "$last" ] && sep=""
        printf '  "%s": {"untraced": %s, "traced": %s}%s\n' "$w" "$untraced" "$traced" "$sep"
    done
    echo "}"
} >"$summary.part"
mv "$summary.part" "$summary"
echo "wrote $summary" >&2
