#!/usr/bin/env bash
# Tier-1 verify: configure, build everything, run the full test suite,
# then smoke-run the simulated-time straggler bench (virtual-clock
# path), the micro-op bench, the end-to-end benchmark's workloads, and
# a real loopback TCP training run
# (server + 2 worker processes) checked bit-for-bit against the
# simulator, so neither the clock nor the socket path can silently rot.
# Mirrors the command in ROADMAP.md; run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# serve LOG ARGS...: starts `./mdgan_node --role=server --port=0 ARGS...`
# in the background with its output in LOG, waits until it listens, and
# sets SERVER_PID and PORT.
serve() {
  local log=$1
  shift
  ./mdgan_node --role=server --port=0 "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(grep -oE 'listening on 0.0.0.0:[0-9]+' "$log" \
           | grep -oE '[0-9]+$' || true)
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "mdgan_node server ($log) never listened"; exit 1; }
}

# wait_ok PID...: waits for each process in turn; a bare `wait` would
# mask a failing node's exit code.
wait_ok() {
  for pid in "$@"; do
    wait "$pid" || { echo "mdgan_node process $pid failed"; exit 1; }
  done
}

# `ci.sh --tsan`: ThreadSanitizer pass over the concurrency-heavy
# common/dist/core/obs tests and FL-GAN (the compute pool's callers and
# threads sharing each job's chunks, each endpoint's event loop against
# the engine threads that send into its connection queues and block on
# their backpressure, mark_dead vs close, a sink attached to a live
# endpoint, traced sim runs and FL-GAN local steps fanning their workers
# out on the pool) in its own build tree, then a
# heartbeat-enabled loopback run — the ping/pong timer, the liveness
# tracker and the event loops all under the race detector at once — and
# exit.
if [ "${1:-}" = "--tsan" ]; then
  cmake -B build-tsan -S . -DMDGAN_TSAN=ON \
    -DMDGAN_BUILD_BENCHES=OFF -DMDGAN_BUILD_EXAMPLES=ON
  cmake --build build-tsan -j"$(nproc)"
  cd build-tsan && ctest --output-on-failure \
    -R '^(common|dist|core|obs)_|^gan_test_fl_gan$'
  echo "--- tsan smoke: heartbeat-enabled loopback run"
  HB_FLAGS="--workers=2 --iters=3 --heartbeat-ms=50 --suspect-ms=300 \
    --grace-ms=2000 --recv-timeout=60"
  serve tsan_hb_server.log $HB_FLAGS
  ./mdgan_node --role=worker --id=1 --connect=127.0.0.1:"$PORT" $HB_FLAGS &
  W1_PID=$!
  ./mdgan_node --role=worker --id=2 --connect=127.0.0.1:"$PORT" $HB_FLAGS &
  W2_PID=$!
  wait_ok "$W1_PID" "$W2_PID" "$SERVER_PID"
  cat tsan_hb_server.log
  grep -q 'finite=yes' tsan_hb_server.log || {
    echo "FAIL: tsan heartbeat run did not finish finite"; exit 1; }
  echo "tsan pass clean"
  exit 0
fi

# `ci.sh --asan`: AddressSanitizer pass over the common/dist/core/obs
# tests, the opt/nn/tensor/gan compute tests and the metrics and
# integration tests in its own build tree — the scoring classifier, the
# evaluator and the full standalone/FL/MD pipeline read layer results
# by reference, so a use after a resize shows there — then a traced sim
# run fed through the trace-merge tool — the JSON parser and merger chew
# on real generated input under the allocator checks — and exit. The
# tree builds at -O1, which does not vectorize; the optimizer and
# activation tests cover the vector paths in the normal build.
if [ "${1:-}" = "--asan" ]; then
  cmake -B build-asan -S . -DMDGAN_ASAN=ON \
    -DMDGAN_BUILD_BENCHES=OFF -DMDGAN_BUILD_EXAMPLES=ON
  cmake --build build-asan -j"$(nproc)"
  cd build-asan && ctest --output-on-failure \
    -R '^(common|dist|core|obs|opt|nn|tensor|gan|metrics|integration)_'
  echo "--- asan smoke: traced sim run through the trace merger"
  ./mdgan_node --role=sim --workers=2 --iters=2 \
    --trace-out=asan_trace.json --metrics-out=asan_metrics.jsonl \
    --flight-out=asan_flight.jsonl
  ./mdgan_trace_merge --out=asan_merged.json --time=virtual \
    asan_trace.json
  echo "asan pass clean"
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

echo "--- smoke: mdgan_node loopback TCP (server + 2 workers vs sim)"
# Both the sim and the TCP server run with telemetry on: the checksum
# comparison below then also proves tracing/metrics do not perturb
# training, and the python3 block validates the emitted files.
./mdgan_node --role=sim --workers=2 --iters=2 \
  --trace-out=trace_sim.json --metrics-out=metrics_sim.jsonl \
  | tee mdgan_node_sim.log
serve mdgan_node_server.log --workers=2 --iters=2 \
  --trace-out=trace_tcp.json --metrics-out=metrics_tcp.jsonl
./mdgan_node --role=worker --id=1 --connect=127.0.0.1:"$PORT" \
  --workers=2 --iters=2 &
W1_PID=$!
./mdgan_node --role=worker --id=2 --connect=127.0.0.1:"$PORT" \
  --workers=2 --iters=2 &
W2_PID=$!
wait_ok "$W1_PID" "$W2_PID" "$SERVER_PID"
cat mdgan_node_server.log
SIM_SUM=$(grep -oE 'generator_fnv1a=[0-9a-f]+' mdgan_node_sim.log)
TCP_SUM=$(grep -oE 'generator_fnv1a=[0-9a-f]+' mdgan_node_server.log)
[ "${SIM_SUM#*=}" = "${TCP_SUM#*=}" ] || {
  echo "FAIL: TCP run diverged from the simulator ($SIM_SUM vs $TCP_SUM)"
  exit 1
}
echo "loopback TCP run matches the simulator: ${TCP_SUM#*=}"

echo "--- verify: telemetry artifacts (Chrome trace JSON + metrics JSONL)"
python3 - <<'PY'
import json, re

ITERS = 2
PHASES = {"round", "phase:membership", "phase:broadcast", "phase:local",
          "phase:collect", "phase:swap"}

for label, trace_path, metrics_path, extra_spans in [
    # The sim node runs all workers inline, so worker-side spans
    # (local_step, send:feedback) appear in the same trace.
    ("sim", "trace_sim.json", "metrics_sim.jsonl",
     {"local_step", "send:gen_batches", "send:feedback",
      "recv:gen_batches", "recv:feedback"}),
    # The TCP server only sees its own side of the wire.
    ("tcp", "trace_tcp.json", "metrics_tcp.jsonl",
     {"send:gen_batches", "recv:feedback"}),
]:
    with open(trace_path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    names = {e.get("name") for e in events}
    missing = (PHASES | extra_spans) - names
    assert not missing, f"{label}: trace missing spans {sorted(missing)}"
    rounds = [e for e in events if e.get("name") == "round"]
    assert len(rounds) == ITERS, \
        f"{label}: want {ITERS} round spans, got {len(rounds)}"
    sims = [e for e in events
            if e.get("ph") == "X" and "sim_t0_s" in e.get("args", {})]
    assert sims, f"{label}: no span carries a virtual timestamp"

    with open(metrics_path) as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) >= 2, f"{label}: want snapshot + final metrics lines"
    final = lines[-1]
    assert final["kind"] == "final", f"{label}: last line must be final"
    c = final["counters"]
    assert c["rounds_total"] == ITERS, \
        f"{label}: rounds_total={c['rounds_total']}, want {ITERS}"

# Registry-vs-accountant cross-check: the sim node's traffic summary
# line comes from the transport accountant; the JSONL counters must
# agree byte-for-byte.
log = open("mdgan_node_sim.log").read()
m = re.search(r"traffic c2w=(\d+) w2c=(\d+) w2w=(\d+) bytes", log)
assert m, "sim log lost its traffic summary line"
final = [json.loads(line) for line in open("metrics_sim.jsonl")][-1]
c = final["counters"]
for link, want in zip(("c2w", "w2c", "w2w"), m.groups()):
    got = c[f"bytes_total{{link={link}}}"]
    assert got == int(want), f"bytes_total{{link={link}}}={got}, want {want}"
assert c["feedback_bytes_total{link=w2c}"] == c["bytes_total{link=w2c}"], \
    "W->C must carry only feedback bytes"
print("telemetry OK: traces + metrics parse, spans/rounds/bytes all match")
PY

echo "--- smoke: cluster trace merge (3 workers, per-node traces + flows)"
# Every endpoint writes its own Chrome trace; mdgan_trace_merge must
# fuse them into ONE timeline where each recv:<tag> span is bound to
# its originating send:<tag> span by a flow arrow — broadcast (c2w),
# feedback (w2c) and the relayed swap (w2w) included. The server's file
# goes first: its heartbeat-RTT clock-offset estimates are the
# authority for aligning the worker timelines.
MERGE_FLAGS="--workers=3 --iters=4 --k=2 --heartbeat-ms=100"
serve merge_server.log $MERGE_FLAGS --trace-out=trace_node0.json
for w in 1 2 3; do
  ./mdgan_node --role=worker --id="$w" --connect=127.0.0.1:"$PORT" \
    $MERGE_FLAGS --trace-out=trace_node"$w".json \
    > merge_w"$w".log 2>&1 &
  eval "W${w}_PID=\$!"
done
wait_ok "$W1_PID" "$W2_PID" "$W3_PID" "$SERVER_PID"
./mdgan_trace_merge --out=trace_merged.json \
  trace_node0.json trace_node1.json trace_node2.json trace_node3.json \
  | tee trace_merge.log
python3 - <<'PY'
import json

with open("trace_merged.json") as f:
    doc = json.load(f)
st = doc["mergeStats"]
assert st["files"] == 4, st
assert st["flows_unmatched"] == 0, st
assert st["flows_bound"] > 0, st

events = doc["traceEvents"]
# One process track per node in the merged view.
tracks = {e["args"]["name"] for e in events
          if e.get("name") == "process_name"}
for want in ("node 0 (server)", "node 1 (worker)", "node 2 (worker)",
             "node 3 (worker)"):
    assert want in tracks, f"missing track {want!r} in {sorted(tracks)}"

# Flow-event inventory: arrows come in s/f pairs, one per bound flow,
# and the start of each pair sits on a send while the finish sits on a
# recv carrying the same flow id.
starts = [e for e in events if e.get("ph") == "s"]
finishes = [e for e in events if e.get("ph") == "f"]
assert len(starts) == len(finishes) == st["flows_bound"], (
    len(starts), len(finishes), st)
by_flow = {}
for e in events:
    if e.get("ph") == "X" and e.get("args", {}).get("flow"):
        by_flow.setdefault(e["args"]["flow"], []).append(e["name"])
bound_recvs = set()
for s, f in zip(starts, finishes):
    names = by_flow[s["id"]]
    sends = [n for n in names if n.startswith("send:")]
    recvs = [n for n in names if n.startswith("recv:")]
    assert len(sends) == 1, (s["id"], names)
    assert len(recvs) == 1, (f["id"], names)
    assert sends[0][5:] == recvs[0][5:], names
    bound_recvs.add(recvs[0])
for want in ("recv:gen_batches", "recv:feedback", "recv:disc_swap"):
    assert want in bound_recvs, f"{want} has no flow arrow: {bound_recvs}"
print("trace-merge OK: %d flows bound, arrows for %s" %
      (st["flows_bound"], ", ".join(sorted(bound_recvs))))
PY

echo "--- smoke: mdgan_node async loopback (server receive loop, 2 workers)"
ASYNC_FLAGS="--workers=2 --iters=3 --server-mode=async"
./mdgan_node --role=sim $ASYNC_FLAGS | tee mdgan_async_sim.log
serve mdgan_async_server.log $ASYNC_FLAGS
./mdgan_node --role=worker --id=1 --connect=127.0.0.1:"$PORT" $ASYNC_FLAGS &
W1_PID=$!
./mdgan_node --role=worker --id=2 --connect=127.0.0.1:"$PORT" $ASYNC_FLAGS &
W2_PID=$!
wait_ok "$W1_PID" "$W2_PID" "$SERVER_PID"
cat mdgan_async_server.log
# No checksum diff here: the async server applies one Adam step per
# feedback in ARRIVAL order, which over real sockets is racy by design
# (the §VII-1 inconsistency regime) — only sync mode promises
# bit-identity with the simulator. What must hold: the run completes,
# weights stay finite, and the server applied one update per feedback
# (2 workers x 3 rounds = 6 generator updates, not 3).
grep -q 'mode=async updates=6 finite=yes ' mdgan_async_server.log || {
  echo "FAIL: async server run broken (want updates=6 finite=yes)"
  exit 1
}
grep -q 'mode=async updates=6 finite=yes ' mdgan_async_sim.log || {
  echo "FAIL: async sim run broken (want updates=6 finite=yes)"
  exit 1
}
echo "async loopback run completed barrier-free with 6 updates"

echo "--- smoke: mid-training leave/rejoin (availability schedule, sim)"
# Worker 2 is away for iteration 2 and rejoins at 3; the run must finish
# all 4 iterations without crashing and with finite generator weights.
./mdgan_node --role=sim --workers=2 --iters=4 --absent=2@2-3 \
  | tee mdgan_elastic_sim.log
grep -q 'finite=yes' mdgan_elastic_sim.log || {
  echo "FAIL: leave/rejoin sim run did not complete with finite weights"
  exit 1
}

echo "--- drill: kill -9 a worker mid-run (unscheduled fail-stop + rejoin)"
# Three workers, no schedule announcing anything. Worker 3 is SIGKILLed
# mid-round (the step delay widens the window so the kill lands between
# its receive and its feedback send). The server must fail-stop it from
# the EOF, shrink the affected collect, notify the survivors over the
# control plane, and finish all iterations with finite weights; a probe
# process then re-dials as worker 3 and must be granted a rejoin under
# a bumped membership epoch rather than rejected as a duplicate.
KILL_FLAGS="--workers=3 --iters=30 --k=2 --swap=0 --recv-timeout=15 \
  --log-level=info"
serve kill_server.log $KILL_FLAGS \
  --metrics-out=kill_metrics.jsonl --flight-out=kill_flight.jsonl
./mdgan_node --role=worker --id=1 --connect=127.0.0.1:"$PORT" \
  $KILL_FLAGS --step-delay-ms=60 > kill_w1.log 2>&1 &
W1_PID=$!
./mdgan_node --role=worker --id=2 --connect=127.0.0.1:"$PORT" \
  $KILL_FLAGS --step-delay-ms=60 > kill_w2.log 2>&1 &
W2_PID=$!
./mdgan_node --role=worker --id=3 --connect=127.0.0.1:"$PORT" \
  $KILL_FLAGS --step-delay-ms=60 > kill_w3.log 2>&1 &
W3_PID=$!
# Only start the kill timer once the cluster actually formed.
for _ in $(seq 1 200); do
  grep -q 'all 3 workers connected' kill_server.log && break
  sleep 0.1
done
grep -q 'all 3 workers connected' kill_server.log || {
  echo "kill-drill rendezvous never completed"; exit 1; }
sleep 1.2  # a few rounds in: the kill lands mid-round
kill -9 "$W3_PID"
echo "killed worker 3 (pid $W3_PID)"
# A restart re-dials once the old process is gone. Tearing a killed
# process down can take longer than a fresh one needs to dial, and a
# hello for a still-connected id is a rejected duplicate, so wait for
# the server to see the EOF first.
for _ in $(seq 1 100); do
  grep -q 'node 3 disconnected' kill_server.log && break
  sleep 0.05
done
# While the survivors keep training, a fresh process re-dials as the
# dead id: the control plane must grant the rejoin, ship the !state
# transfer at the next round boundary, and the reborn worker must
# train the remaining rounds and contribute feedback the server folds.
./mdgan_node --role=rejoin --id=3 --connect=127.0.0.1:"$PORT" \
  $KILL_FLAGS --step-delay-ms=60 | tee kill_rejoin.log
wait "$W3_PID" && { echo "worker 3 survived its kill -9?"; exit 1; } || {
  rc=$?
  [ "$rc" -eq 137 ] || { echo "worker 3 exit=$rc, want 137"; exit 1; }
}
wait_ok "$W1_PID" "$W2_PID" "$SERVER_PID"
cat kill_server.log
grep -q 'disconnected, mapping to fail-stop' kill_server.log || {
  echo "FAIL: server never logged the unscheduled fail-stop"; exit 1; }
grep -q 'granting rejoin to worker 3' kill_server.log || {
  echo "FAIL: server never granted the rejoin"; exit 1; }
grep -q 'finite=yes' kill_server.log || {
  echo "FAIL: server did not finish with finite weights"; exit 1; }
grep -q 'granted=yes' kill_rejoin.log || {
  echo "FAIL: rejoin probe was not granted"; exit 1; }
grep -q 'trained from=' kill_rejoin.log || {
  echo "FAIL: rejoin probe never re-entered training"; exit 1; }
for w in 1 2; do
  grep -q 'death notice for worker 3' kill_w"$w".log || {
    echo "FAIL: worker $w never received the death notice"; exit 1; }
done
python3 - <<'PY'
import json
final = [json.loads(l) for l in open("kill_metrics.jsonl")][-1]
c, g = final["counters"], final["gauges"]
assert c.get("peer_deaths_total", 0) >= 1, c
assert c.get("rejoins_total", 0) >= 1, c
assert c.get("rejoin_admitted_total", 0) >= 1, c
assert c.get("readmitted_feedback_total", 0) >= 1, c
assert g.get("membership_epoch", 0) >= 2, g
print("kill-drill metrics OK: deaths=%d rejoins=%d admitted=%d "
      "readmitted_fb=%d epoch=%g" %
      (c["peer_deaths_total"], c["rejoins_total"],
       c["rejoin_admitted_total"], c["readmitted_feedback_total"],
       g["membership_epoch"]))

# The flight recorder must tell the same story as a causal sequence:
# worker 3's death, then the rejoin grant, then its admission back
# into training — in that order, in one JSONL artifact.
events = [json.loads(l) for l in open("kill_flight.jsonl")]
assert events, "flight recorder left no events"
def first_index(kind, node):
    for i, e in enumerate(events):
        if e["kind"] == kind and e["node"] == node:
            return i
    raise AssertionError(f"no {kind!r} event for node {node}: "
                         f"{[(e['kind'], e['node']) for e in events]}")
death = first_index("death", 3)
grant = first_index("rejoin_grant", 3)
admit = first_index("admission", 3)
assert death < grant < admit, (death, grant, admit)
assert any(e["kind"] == "epoch" for e in events), "no epoch bump recorded"
print("kill-drill flight OK: %d events, death@%d < grant@%d < admit@%d" %
      (len(events), death, grant, admit))
PY
echo "kill-drill OK: a killed worker was re-admitted back into training"

echo "--- drill: transient partition inside the grace window (SIGSTOP)"
# Two workers with heartbeats on. Worker 2 is SIGSTOPped past the
# suspect threshold but resumed well inside the grace window: the
# server must SUSPECT it (logged + counted) yet never declare it dead —
# no !death fan-out to the survivor, no epoch churn, no rejoin cycle —
# and the run must finish every round with finite weights. 40 rounds
# of 40 ms steps keep the run going well past the stop on a fast host.
PART_FLAGS="--workers=2 --iters=40 --k=2 --swap=0 --recv-timeout=20 \
  --heartbeat-ms=100 --suspect-ms=400 --grace-ms=6000 --log-level=info"
serve part_server.log $PART_FLAGS --metrics-out=part_metrics.jsonl
./mdgan_node --role=worker --id=1 --connect=127.0.0.1:"$PORT" \
  $PART_FLAGS --step-delay-ms=40 > part_w1.log 2>&1 &
W1_PID=$!
./mdgan_node --role=worker --id=2 --connect=127.0.0.1:"$PORT" \
  $PART_FLAGS --step-delay-ms=40 > part_w2.log 2>&1 &
W2_PID=$!
for _ in $(seq 1 200); do
  grep -q 'all 2 workers connected' part_server.log && break
  sleep 0.1
done
grep -q 'all 2 workers connected' part_server.log || {
  echo "partition-drill rendezvous never completed"; exit 1; }
sleep 0.8  # a couple of rounds in
kill -STOP "$W2_PID"
echo "partitioned worker 2 (SIGSTOP, pid $W2_PID)"
sleep 1.2  # past suspect-ms=400, far inside grace-ms=6000
kill -CONT "$W2_PID"
echo "healed the partition (SIGCONT)"
wait_ok "$W1_PID" "$W2_PID" "$SERVER_PID"
cat part_server.log
grep -q 'silent past the suspect threshold' part_server.log || {
  echo "FAIL: server never suspected the partitioned worker"; exit 1; }
grep -q 're-seated' part_server.log || {
  echo "FAIL: the healed partition was never re-seated"; exit 1; }
grep -q 'finite=yes' part_server.log || {
  echo "FAIL: partition-drill run did not finish finite"; exit 1; }
# The liveness machinery must never have escalated the stall: no
# grace-window death, no rejoin cycle. (Teardown EOFs at process exit
# are ordinary fail-stop noise and take neither path.)
grep -q 'silent past the grace window' part_server.log && {
  echo "FAIL: a transient partition was escalated to a death"; exit 1; }
grep -q 'granting rejoin' part_server.log && {
  echo "FAIL: the re-seat went through a death/rejoin cycle"; exit 1; }
python3 - <<'PY'
import json
final = [json.loads(l) for l in open("part_metrics.jsonl")][-1]
c, h = final["counters"], final["histograms"]
assert c.get("suspects_total", 0) >= 1, c
assert c.get("rejoins_total", 0) == 0, c
rtt = h.get("heartbeat_rtt_seconds")
assert rtt and rtt["count"] >= 1, "no heartbeat RTTs were observed"
print("partition-drill metrics OK: suspects=%d rejoins=0 rtt_samples=%d" %
      (c["suspects_total"], rtt["count"]))
PY
echo "partition-drill OK: suspect re-seated inside the grace window"
