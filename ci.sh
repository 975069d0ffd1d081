#!/usr/bin/env bash
# Tier-1 verify and the sanitizer passes, all through ctest; run from
# the repo root. `./ci.sh` builds everything and runs the whole suite,
# the drills on real mdgan_node processes included, then smoke-runs the
# straggler bench, the micro-op bench and the end-to-end benchmark.
# `--tsan` covers the concurrency-heavy tests: the compute pool, each
# endpoint's event loop against the engine threads that send into it,
# mark_dead vs close, sinks attached to live endpoints, traced sim runs
# and FL-GAN workers on the pool. `--asan` covers the common/dist/core/
# obs, compute, metrics and integration tests at -O1, which does not
# vectorize (the normal build tests the vector paths). Both then run
# the drills against sanitized nodes and mdgan_trace_merge.
set -euo pipefail
cd "$(dirname "$0")"

# sanitized DIR OPTION REGEX: builds the tree in DIR with OPTION=ON and
# runs the tests REGEX selects in parallel, then the drills on their
# own, so the batch cannot starve their kill and stop timings.
sanitized() {
  cmake -B "$1" -S . -D"$2"=ON -DMDGAN_BUILD_BENCHES=OFF \
    -DMDGAN_BUILD_EXAMPLES=ON -DMDGAN_BUILD_TOOLS=ON
  cmake --build "$1" -j"$(nproc)"
  cd "$1"
  ctest --output-on-failure -j"$(nproc)" -R "$3" -LE drill
  ctest --output-on-failure -L drill
}

if [ "${1:-}" = "--tsan" ]; then
  sanitized build-tsan MDGAN_TSAN '^(common|dist|core|obs)_|^gan_test_fl_gan$'
  exit 0
fi
if [ "${1:-}" = "--asan" ]; then
  sanitized build-asan MDGAN_ASAN \
    '^(common|dist|core|obs|opt|nn|tensor|gan|metrics|integration)_'
  exit 0
fi

cmake -B build -S .
cmake --build build -j"$(nproc)"
cd build && ctest --output-on-failure -j"$(nproc)"

echo "--- smoke: bench_stragglers --tiny"
./bench_stragglers --tiny

echo "--- smoke: bench_micro_ops --tiny"
./bench_micro_ops --tiny --json=BENCH_micro_ops.json

echo "--- smoke: end-to-end benchmark (a few rounds of every workload)"
(cd .. && bash bench/e2e/run.sh --smoke)
