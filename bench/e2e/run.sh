#!/usr/bin/env bash
# Builds the end-to-end MD-GAN benchmark into bench/e2e/build and runs it.
#
#   bench/e2e/run.sh [--seed=42] [--json=PATH]
#       every workload, each in its own process, once untraced (the
#       end-to-end metrics) and once traced (the per-layer metrics)
#   bench/e2e/run.sh --workload NAME --seed N --trace 0|1
#       one run of one workload (a `--seconds S` is accepted and ignored:
#       every run measures the same fixed number of rounds)
#   bench/e2e/run.sh --smoke
#       a few rounds of every workload, output checked against
#       BENCHMARK.json (under a minute)
#
# Build output goes to stderr. Standard output carries
# `<workload> <metric> <value> <unit>` lines and ends with one JSON object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
bin="$build/mdgan_e2e"

for arg in "$@"; do
  case "$arg" in
    --smoke) exec "$bin" --benchmark "$root/BENCHMARK.json" "$@" ;;
    --workload | --workload=*) exec "$bin" "$@" ;;
  esac
done

seed=42
json=""
while (($#)); do
  case "$1" in
    --seed=*) seed="${1#*=}" ;;
    --json=*) json="${1#*=}" ;;
    --seed | --json)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      declare "${1#--}=$2"
      shift
      ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

status=0
runs=""
for workload in sim-w8-compute tcp-sync-swap tcp-async-small; do
  for trace in 0 1; do
    out="$build/run-$workload-$trace.out"
    "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
      >"$out" || status=1
    head -n -1 "$out"
    result="$(tail -n 1 "$out")"
    [[ "$result" == "{"* ]] || result=null
    runs+="${runs:+, }{\"workload\": \"$workload\", \"trace\": $trace, \"result\": $result}"
  done
done
summary="{\"seed\": $seed, \"runs\": [$runs]}"
if [[ -n "$json" ]]; then
  printf '%s\n' "$summary" >"$json"
fi
printf '%s\n' "$summary"
exit "$status"
