#!/usr/bin/env bash
# Runs the ingest benchmarks and records machine-readable reports:
#
#   BENCH_ingest.json      — in-process sharded runtime (bench_ingest)
#   BENCH_net_ingest.json  — loopback network stack (bench_net_ingest)
#   BENCH_wal.json         — durable (WAL-on) runtime (bench_wal)
#   BENCH_seq.json         — class-scope sequencer scaling (bench_seq)
#
# Then checks three acceptance bars, each computed against a baseline
# carried inside the same benchmark binary so the ratio compares identical
# runtime settings within one process run:
#   PR-3: at every shards x batch point with batch >= 128, the loopback
#         path must reach >= 50% of the in-process events/sec.
#   PR-6: at every batch >= 128 point, durable ingest under the default
#         group-commit policy (fsync every-N) must reach >= 50% of the
#         in-memory (WAL-off) events/sec.
#   PR-8: class-scope ingest through the sequencer must scale: 4 shards
#         >= 2x the 1-shard events/sec on hosts with >= 4 CPUs (on
#         smaller hosts the bar degrades to "sharding must not collapse":
#         4-shard >= 0.6x 1-shard).
#   PR-10: no head-of-line blocking: with one peer wedged on a kBlock-full
#         shard, a healthy client must sustain >= 80% of its unstalled
#         loopback events/sec.
#
# Usage: bench/run_ingest_bench.sh [build-dir] [output-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
REPS="${BENCH_REPS:-1}"

for bench in bench_ingest bench_net_ingest bench_wal bench_seq; do
  if [ ! -x "${BUILD_DIR}/bench/${bench}" ]; then
    echo "run_ingest_bench: ${BUILD_DIR}/bench/${bench} not built" >&2
    echo "  (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} --target ${bench})" >&2
    exit 2
  fi
done

"${BUILD_DIR}/bench/bench_ingest" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_out="${OUT_DIR}/BENCH_ingest.json" \
  --benchmark_out_format=json

"${BUILD_DIR}/bench/bench_net_ingest" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_out="${OUT_DIR}/BENCH_net_ingest.json" \
  --benchmark_out_format=json

"${BUILD_DIR}/bench/bench_wal" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_out="${OUT_DIR}/BENCH_wal.json" \
  --benchmark_out_format=json

"${BUILD_DIR}/bench/bench_seq" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_out="${OUT_DIR}/BENCH_seq.json" \
  --benchmark_out_format=json

python3 - "${OUT_DIR}/BENCH_net_ingest.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

# items_per_second keyed by (name, shards, batch), aggregate rows skipped.
rates = {}
for b in doc["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    base = b["name"].split("/")[0]
    key = (int(b["shards"]), int(b["batch"]))
    rates.setdefault(base, {})[key] = b["items_per_second"]

net = rates.get("BM_NetIngestLoopback", {})
ref = rates.get("BM_NetBaselineInProcess", {})
failures = []
print(f"{'shards':>6} {'batch':>6} {'net ev/s':>12} {'in-proc ev/s':>13} {'ratio':>6}")
for key in sorted(net):
    if key not in ref:
        continue
    ratio = net[key] / ref[key]
    shards, batch = key
    bar = " <-- FAIL (< 0.50 at batch >= 128)" if batch >= 128 and ratio < 0.5 else ""
    print(f"{shards:>6} {batch:>6} {net[key]:>12.0f} {ref[key]:>13.0f} {ratio:>6.2f}{bar}")
    if bar:
        failures.append(key)

if failures:
    print(f"run_ingest_bench: FAIL: loopback below 50% of in-process at {failures}")
    sys.exit(1)
print("run_ingest_bench: ok: loopback >= 50% of in-process at every batch >= 128 point")

# PR-10: a peer parked on a kBlock-full shard must not drag down healthy
# connections — the stalled-peer variant holds >= 80% of the baseline
# (means across repetitions, since single runs on a loaded host are noisy).
def mean_rate(name):
    vals = [b["items_per_second"] for b in doc["benchmarks"]
            if b.get("run_type") == "iteration"
            and b["name"].split("/")[0] == name]
    return sum(vals) / len(vals) if vals else 0.0

base_rate = mean_rate("BM_NetHealthyBaseline")
stalled_rate = mean_rate("BM_NetHealthyWithStalledPeer")
if base_rate == 0.0 or stalled_rate == 0.0:
    print("run_ingest_bench: FAIL: BENCH_net_ingest.json missing stalled-peer rows")
    sys.exit(1)
ratio = stalled_rate / base_rate
print(f"stalled-peer: healthy {base_rate:.0f} ev/s, with stalled peer "
      f"{stalled_rate:.0f} ev/s, ratio {ratio:.2f}")
if ratio < 0.8:
    print(f"run_ingest_bench: FAIL: stalled-peer ratio {ratio:.2f} < 0.80 "
          "(head-of-line blocking)")
    sys.exit(1)
print("run_ingest_bench: ok: healthy connections hold >= 80% of baseline with a stalled peer")
EOF

python3 - "${OUT_DIR}/BENCH_wal.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

rates = {}
for b in doc["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    base = b["name"].split("/")[0]
    key = (int(b["shards"]), int(b["batch"]))
    rates.setdefault(base, {})[key] = b["items_per_second"]

durable = rates.get("BM_WalDurableEveryN", {})
ref = rates.get("BM_WalBaselineInMemory", {})
failures = []
print(f"{'shards':>6} {'batch':>6} {'wal ev/s':>12} {'in-mem ev/s':>13} {'ratio':>6}")
for key in sorted(durable):
    if key not in ref:
        continue
    ratio = durable[key] / ref[key]
    shards, batch = key
    bar = " <-- FAIL (< 0.50 at batch >= 128)" if batch >= 128 and ratio < 0.5 else ""
    print(f"{shards:>6} {batch:>6} {durable[key]:>12.0f} {ref[key]:>13.0f} {ratio:>6.2f}{bar}")
    if bar:
        failures.append(key)

if failures:
    print(f"run_ingest_bench: FAIL: durable ingest below 50% of in-memory at {failures}")
    sys.exit(1)
print("run_ingest_bench: ok: durable ingest >= 50% of in-memory at every batch >= 128 point")
EOF

python3 - "${OUT_DIR}/BENCH_seq.json" <<'EOF'
import json
import os
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

rates = {}
for b in doc["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    base = b["name"].split("/")[0]
    rates.setdefault(base, {})[int(b["shards"])] = b["items_per_second"]

seq = rates.get("BM_SeqClassScope", {})
print(f"{'shards':>6} {'seq ev/s':>12} {'vs 1-shard':>10}")
for shards in sorted(seq):
    scale = seq[shards] / seq[1] if 1 in seq and seq[1] > 0 else 0.0
    print(f"{shards:>6} {seq[shards]:>12.0f} {scale:>10.2f}")

cpus = os.cpu_count() or 1
# The shard axis needs cores: the full >= 2x bar only means something when
# 4 shard workers (plus the merge thread) can actually run in parallel.
bar, why = (2.0, ">= 4 CPUs") if cpus >= 4 else (0.6, f"only {cpus} CPU(s); no-collapse bar")
if 1 not in seq or 4 not in seq:
    print("run_ingest_bench: FAIL: BENCH_seq.json missing 1- or 4-shard class-scope rows")
    sys.exit(1)
ratio = seq[4] / seq[1]
if ratio < bar:
    print(f"run_ingest_bench: FAIL: class-scope 4-shard/1-shard = {ratio:.2f} < {bar} ({why})")
    sys.exit(1)
print(f"run_ingest_bench: ok: class-scope 4-shard/1-shard = {ratio:.2f} >= {bar} ({why})")
EOF
