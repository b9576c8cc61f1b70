#!/usr/bin/env bash
# The benchmark's one command. Builds the simulator from src/ at -O3 (plus a
# -pg twin for the host-time profile), then runs workloads, each in its own
# process. Run it from the repository root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload. --trace 0 prints the end-to-end metrics, --trace 1 the
#       per-layer ones (after a gprof pass). The last line of stdout is the
#       result JSON.
#   benchmark/run.sh [--seed N] [--seconds S] [--out results.json]
#       Every workload, both passes. Each metric's median, q1, q3, n and
#       samples go to results.json (default .bench_build/results.json), the
#       input of benchmark/compare.py.
#
# Both forms also take --reps N (minimum timed reps, default 5) and
# --build-dir DIR (default .bench_build/benchmark).
set -euo pipefail

workload="" seed=1 seconds=10 trace=0 reps=5 out="" build=".bench_build/benchmark"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --reps) reps="$2" ;;
    --out) out="$2" ;;
    --build-dir) build="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

if [ ! -d src ] || [ ! -f benchmark/CMakeLists.txt ]; then
  echo "run.sh: run from the repository root; src/ holds the simulator" >&2
  exit 1
fi

mkdir -p "$build"
build="$(cd "$build" && pwd)"
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S benchmark -B "$build" >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
bin="$build/gemmini_bench"
bin_pg="$build/gemmini_bench_pg"

# Runs one workload pass; its per-metric detail lands in $build/results/.
run_one() {
  local w="$1" t="$2"
  mkdir -p "$build/results"
  rm -f "$build/results/$w.trace$t.json"
  local args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
              --reps "$reps" --detail "$build/results/$w.trace$t.json")
  if [ "$t" = 1 ]; then
    # gprof samples only the main thread, so the profile pass runs the sweep
    # on one thread. gmon.out is written to the working directory.
    local prof="$build/profile/$w"
    rm -rf "$prof"
    mkdir -p "$prof"
    (cd "$prof" && "$bin_pg" --workload "$w" --seed "$seed" --profile >&2)
    gprof -b -p "$bin_pg" "$prof/gmon.out" > "$prof/flat.txt"
    args+=(--gprof "$prof/flat.txt" --bench-trace "$build/bench_trace.$w.json")
  fi
  "$bin" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$trace"
  exit
fi

status=0
details=()
for w in $("$bin" --list); do
  for t in 0 1; do
    echo "== $w trace $t" >&2
    run_one "$w" "$t" || status=1
    details+=("$build/results/$w.trace$t.json")
  done
done
out="${out:-$(dirname "$build")/results.json}"
{
  echo "{\"seed\": $seed, \"results\": ["
  sep=""
  for d in "${details[@]}"; do
    if [ -f "$d" ]; then
      printf '%s' "$sep"
      cat "$d"
      sep=","
    fi
  done
  echo "]}"
} > "$out"
echo "wrote $out" >&2
exit "$status"
