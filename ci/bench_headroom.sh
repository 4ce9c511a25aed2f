#!/bin/sh
# Repetition headroom of the benchmark: how far the fastest full-size
# repetition of each workload sits above the 0.5 s floor (`MIN_REP_WALL`
# in benchmark/src/main.rs). The benchmark counts every unit of a faster
# repetition as failed, so a speed-up can fail it by being too fast; run
# this before and after a perf change. A repetition's wall is its unit
# count divided by its rate on the `units_per_s of each repetition:` line.
# Each line also reports the run's `peak_rss_mb`, `allocs_per_unit` and
# `alloc_bytes_per_unit`, so a memory or allocation regression shows in
# every log; those figures are informational and never fail the run.
#
# Exits 1 when a workload's fastest repetition is under the floor or the
# benchmark itself failed; under 0.55 s only warns.
set -u
cd "$(dirname "$0")/.."
status=0
for w in ping_small ping_large ping_chaos_lit sched_grid city_multicell; do
  out=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seconds 5) || { echo "$w: the benchmark run failed"; status=1; }
  echo "$out" | awk -v w="$w" '
    /timed repetitions of/ && !units {
      for (i = 1; i < NF; i++) if ($i == "of") { units = $(i + 1); break }
    }
    /^units_per_s of each repetition:/ {
      # "units_per_s of each repetition: r1 r2 …": the rates start at field 5.
      for (i = 5; i <= NF; i++) if ($i + 0 > best) best = $i + 0
    }
    $1 == "peak_rss_mb" { rss = sprintf(", peak_rss_mb %.1f MB", $2) }
    $1 == "allocs_per_unit" { allocs = sprintf(", allocs_per_unit %.4f", $2) }
    $1 == "alloc_bytes_per_unit" { bytes = sprintf(", alloc_bytes_per_unit %.1f B", $2) }
    END {
      if (!units || !best) { print w ": no repetition rates in the output"; exit 1 }
      wall = units / best
      printf "%s: fastest repetition %.3f s, floor 0.500 s, headroom %.0f %%%s%s%s\n", w, wall, (wall / 0.5 - 1) * 100, rss, allocs, bytes
      if (wall < 0.5) { print "::error::" w " has a repetition under the 0.5 s floor"; exit 1 }
      if (wall < 0.55)
        print "::warning::" w " is within 10 % of the 0.5 s repetition floor: raise the benchmark sizes before the next speed-up on its path"
    }' || status=1
done
exit $status
