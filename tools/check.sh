#!/usr/bin/env bash
# Repo check: tier-1 build + tests, the full workspace, clippy, and a
# type-check of benchmarks/dqbench — its own package, which nothing else
# compiles: deleting public API must not pass here and break the scorer.
#
# The environment has no registry access; all external deps are vendored
# path crates under crates/shims/, so --offline always works (and guards
# against accidental network resolution).
#
# --bench-smoke additionally runs the read_path microbench at a tiny
# size; the bench exits non-zero if the zero-copy view traversal copies
# at least as many bytes as the decode traversal, so a read-path
# regression fails the check. The wrapper then enforces four ratio
# floors from the smoke figures — batched-vs-scalar overlap geometry
# and patched-vs-rebuilt inserts must both stay >= 1.0x (ratios are
# machine-portable where absolute throughputs are not), so a regression
# that makes the SoA kernel slower than the scalar loop it replaced, or
# the page-editing insert slower than the node rebuild it replaced,
# fails the check; and a PDQ leaf
# expansion over a 360-piece trajectory must stay >= 2.0x the
# all-pieces loop, so a piece index that decays into a scan fails it
# too; and a packed rebuild must stay >= 2.0x one insert per record, so
# a rebuild that goes back to inserting fails it. The smoke output goes
# to target/figures/ and never clobbers the committed
# BENCH_read_path.json baseline. It then runs benchmarks/smoke.sh
# (every dqbench workload at 1/20 size, schema and correctness, no
# timing) and dqbench's own unit tests, in the release build the smoke
# just made — one of them holds BENCHMARK.json to the in-code metric and
# workload tables, and nothing else in this gate runs it.
#
# --obs-smoke runs the observability reconciliation end to end: a small
# exp_service sweep (whose hard asserts check tree level counters ==
# session QueryStats + writer reads == pool hits+misses, and pool misses
# == pager IoStats reads) plus the instrumented read_path bench, whose
# view/decode speedup must stay within tolerance of the committed
# BENCH_read_path.json baseline (DQ_OBS_SPEEDUP_TOL, default 0.25 —
# ratios are machine-portable where absolute throughputs are not).
#
# --shard-smoke runs the region-partitioned serving path end to end:
# the partition integration suite (seam exactly-once oracle, partitioned
# serve == partitioned serve_serial over 2 and 4 regions, per-region
# reconciliation identities), then the exp_service regions sweep whose
# hard asserts re-check the per-region identities; the wrapper verifies
# the load distribution — no region may carry more than 2x the mean
# region load under the uniform workload.
#
# --chaos-smoke runs the fault-tolerance path end to end: the chaos
# integration suite (seeded fault schedules vs a fault-free oracle),
# then exp_service twice — fault-free baseline and under a 1 % seeded
# transient-fault rate with pool-level retry. The faulted run carries
# the same hard reconciliation asserts (they must survive injection:
# failed reads never reach the device counters) plus all-sessions-Ok,
# and its best concurrent throughput must stay within 2x of baseline.
#
# --clock-smoke runs the per-region frame-clock protocol end to end:
# the clock integration suite (ragged schedule lengths, join-mid-run
# watermarks, a recut during an active serve, mid-run panic containment,
# frame-report reconciliation out of lockstep), then the straggler
# experiment — one deliberately slow session on region 0 — whose figure
# the wrapper gates: every non-stalled region must keep >= 0.9x its
# clean-run frames/s, and the straggler itself must actually have been
# slowed (< 0.5x), or the run proves nothing.
#
# --net-smoke runs the network front door end to end: a grep gate that
# no thread under crates/server/src sleeps or reads a poll interval
# (lines tagged `sleep-ok:` — the accept-error back-off, a test hint —
# excepted), the server crate's suites (codec round-trip + adversarial
# proptests, the loopback socket suite with its no-timer regression,
# in-process stream identity) in the debug and the optimised build,
# then the exp_service_net experiment — interleaved clean and chaos
# runs, the chaos runs adding a stalling and a vanishing client — whose
# figure the wrapper gates: both misbehaving clients must be evicted, the
# healthy sessions' aggregate frames/s must keep >= 0.9x the clean
# runs' (per-session ratios are informational: on a loaded host they
# carry scheduler noise the aggregate averages out) with bit-identical
# results, and no completed session's p99 frame latency may exceed the
# ceiling (DQ_NET_P99_US, default 50000 us — half the eviction write
# deadline would already be pathological on loopback).
#
# --wal-smoke runs the durable write path end to end: the WAL unit
# suite, the durability module suite, and the chaos crash-point matrix
# (recovered record multiset == committed prefix and a rebuilt server
# answering like the fault-free oracle at every crash point and
# torn/bit-flipped tail, full-device backlog recovery, rebuild under 1
# and 3 regions, checkpoints past a failed region writer, the random
# crash-point differential), then exp_service with DQ_DURABLE=1 — whose
# hard asserts rebuild from the post-run durable image and require the
# served server's records and equivalent answers, on every sweep
# configuration — and exp_checkpoint, which fails unless checkpointing a
# fixed delta over a 4x larger base costs <= 2.0x what it costs over the
# 1x base (a checkpoint that reads the index sits near 4).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
OBS_SMOKE=0
CHAOS_SMOKE=0
SHARD_SMOKE=0
WAL_SMOKE=0
CLOCK_SMOKE=0
NET_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --obs-smoke) OBS_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --shard-smoke) SHARD_SMOKE=1 ;;
    --wal-smoke) WAL_SMOKE=1 ;;
    --clock-smoke) CLOCK_SMOKE=1 ;;
    --net-smoke) NET_SMOKE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cargo build --release --offline
cargo test -q --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo check --release --offline --manifest-path benchmarks/dqbench/Cargo.toml

if [ "$BENCH_SMOKE" = 1 ]; then
  # Absolute output path: cargo runs bench binaries with the package
  # directory as cwd, not the workspace root.
  DQ_READ_PATH_OBJECTS=300 DQ_READ_PATH_MS=50 \
    DQ_READ_PATH_OUT="$PWD/target/figures/read_path_smoke.json" \
    cargo bench --offline -p bench --bench read_path
  echo "OK: read_path bench smoke passed (view path copies fewer bytes than decode)."
  python3 - "$PWD/target/figures/read_path_smoke.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
def ratio(label):
    row = next(r for r in rows if r[0].startswith(label))
    return float(next(c for c in row[1:] if c.strip()).rstrip("x"))
for label, floor, what in [
    ("batched/scalar", 1.0, "SoA overlap kernel vs the scalar loop"),
    ("patched/rebuilt", 1.0, "page-editing insert vs the node rebuild"),
    ("indexed/all-pieces", 2.0, "indexed trajectory pieces vs solving every piece"),
    ("packed/inserted", 2.0, "packed rebuild vs one insert per record"),
]:
    r = ratio(label)
    if r < floor:
        sys.exit(f"FAIL: {label} speedup {r:.2f}x fell below {floor:.1f}x — "
                 f"{what} regressed")
    print(f"OK: {label} speedup {r:.2f}x (floor {floor:.1f}x).")
PY
  benchmarks/smoke.sh > target/figures/dqbench_smoke.txt
  cargo test --release --offline --quiet --manifest-path benchmarks/dqbench/Cargo.toml
  echo "OK: dqbench builds against the workspace crates, its smoke run is correct on every workload, and its unit tests pass."
fi

if [ "$OBS_SMOKE" = 1 ]; then
  # exp_service carries the reconciliation asserts internally: it aborts
  # if the tree's level counters, the engines' QueryStats (+ writer
  # attribution), the pool's hit/miss totals, and the pager's IoStats
  # ever disagree. A quick run exercises serial + concurrent modes over
  # every pool size.
  DQ_SCALE=quick DQ_SESSIONS=4 cargo run -q --offline --release -p bench --bin exp_service \
    > target/figures/exp_service_obs_smoke.txt
  echo "OK: exp_service counters reconcile (levels == stats+writer == pool hits+misses == IoStats)."

  # read_path at a moderate size, then compare its view/decode speedup
  # against the committed baseline: the instrumented read path must not
  # have slowed relative to the uninstrumented decode path.
  DQ_READ_PATH_OBJECTS=2000 DQ_READ_PATH_MS=150 \
    DQ_READ_PATH_OUT="$PWD/target/figures/read_path_obs_smoke.json" \
    cargo bench --offline -p bench --bench read_path
  python3 - "$PWD/target/figures/read_path_obs_smoke.json" "$PWD/BENCH_read_path.json" <<'PY'
import json, os, sys
def speedup(path):
    rows = json.load(open(path))["rows"]
    row = next(r for r in rows if r[0].startswith("view/decode"))
    return float(next(c for c in row[1:] if c.strip()).rstrip("x"))
smoke, base = speedup(sys.argv[1]), speedup(sys.argv[2])
tol = float(os.environ.get("DQ_OBS_SPEEDUP_TOL", "0.25"))
if smoke < base * (1.0 - tol):
    sys.exit(f"FAIL: view/decode speedup {smoke:.2f}x fell below baseline "
             f"{base:.2f}x by more than {tol:.0%} — obs instrumentation "
             "slowed the read path")
print(f"OK: instrumented speedup {smoke:.2f}x vs baseline {base:.2f}x (tol {tol:.0%}).")
PY
fi

if [ "$SHARD_SMOKE" = 1 ]; then
  # Seam exactly-once oracle + partitioned-vs-serial determinism +
  # per-region reconciliation, as tests.
  cargo test -q --offline --test partition
  echo "OK: partition suite green (seam exactly-once, serve == serve_serial, region identities)."

  # The regions sweep re-asserts the per-region identities internally;
  # here we additionally bound the load skew: under the uniform
  # workload no region may pull more than 2x the mean region load.
  DQ_SCALE=quick DQ_SESSIONS=4 DQ_REGIONS=1,2,4 \
    cargo run -q --offline --release -p bench --bin exp_service \
    > target/figures/exp_service_shard_smoke.txt
  python3 - "$PWD/target/figures/exp_service_regions.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
for r in rows:
    regions, skew = int(r[0]), float(r[-1])
    if skew > 2.0:
        sys.exit(f"FAIL: with {regions} regions the hottest region pulls "
                 f"{skew:.2f}x the mean load (> 2x) under a uniform workload")
    print(f"OK: {regions} region(s), max/mean load {skew:.2f}x (bound 2.0x).")
PY
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  # Seeded fault schedules against the fault-free serial oracle:
  # transient-only runs must be bit-identical, corruption must be
  # contained to the sessions that touch it.
  cargo test -q --offline --test chaos
  echo "OK: chaos suite green (oracle equality + blast-radius containment)."

  # exp_service under injection: the run's internal asserts enforce the
  # reconciliation identities and all-Ok outcomes; the wrapper compares
  # throughput against a fault-free baseline taken on this machine just
  # before, so the bound tracks current load rather than a stale figure.
  DQ_SCALE=quick DQ_SESSIONS=4 cargo run -q --offline --release -p bench --bin exp_service \
    > target/figures/exp_service_chaos_base.txt
  DQ_SCALE=quick DQ_SESSIONS=4 DQ_FAULT_RATE=0.01 DQ_FAULT_SEED=7 \
    cargo run -q --offline --release -p bench --bin exp_service \
    > target/figures/exp_service_chaos_smoke.txt
  python3 - "$PWD/target/figures/exp_service.json" "$PWD/target/figures/exp_service_chaos.json" <<'PY'
import json, sys
def best_concurrent(path):
    rows = json.load(open(path))["rows"]
    return max(float(r[2]) for r in rows if r[0] == "concurrent")
base, chaos = best_concurrent(sys.argv[1]), best_concurrent(sys.argv[2])
if chaos < base / 2.0:
    sys.exit(f"FAIL: best concurrent throughput under 1% faults "
             f"({chaos:.0f} frames/s) degraded more than 2x vs the "
             f"fault-free baseline ({base:.0f} frames/s)")
print(f"OK: 1% transient faults cost {base / chaos:.2f}x "
      f"({base:.0f} -> {chaos:.0f} frames/s), identities held.")
PY
fi

if [ "$CLOCK_SMOKE" = 1 ]; then
  # The ragged-lifecycle suite: every concurrent run checked against the
  # serial reference protocol bit for bit.
  cargo test -q --offline --test clock
  echo "OK: clock suite green (ragged windows, joiners, live recut, panic containment)."

  # One slow session on region 0; regions 1..3 must be unaffected.
  cargo run -q --offline --release -p bench --bin exp_service_straggler \
    > target/figures/exp_service_straggler.txt
  python3 - "$PWD/target/figures/exp_service_straggler.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
for r in rows:
    region, ratio, stalled = int(r[0]), float(r[4]), r[-1] == "yes"
    if stalled:
        if ratio >= 0.5:
            sys.exit(f"FAIL: the straggler (region {region}) kept {ratio:.2f}x "
                     "of its clean-run frames/s -- the injected delay did not "
                     "bite, the isolation claim is untested")
        print(f"OK: straggler region {region} slowed to {ratio:.2f}x (as injected).")
    else:
        if ratio < 0.9:
            sys.exit(f"FAIL: non-stalled region {region} dropped to {ratio:.2f}x "
                     "of its clean-run frames/s (floor 0.9x) -- the straggler's "
                     "back-pressure leaked across regions")
        print(f"OK: region {region} unaffected at {ratio:.2f}x (floor 0.9x).")
PY
fi

if [ "$NET_SMOKE" = 1 ]; then
  # The server crate bottom up: codec round-trip + adversarial
  # proptests (no byte stream panics the decoder), the loopback socket
  # suite (bit-identity, typed admission rejections, slow-reader /
  # vanished / garbage containment, shutdown-drain recovery), and the
  # in-process stream-identity check the socket path rests on.
  if grep -rnE 'thread::sleep|poll_interval' crates/server/src | grep -v 'sleep-ok:'; then
    echo "FAIL: crates/server/src sleeps or polls (see above); hand-offs must be blocking wake-ups" >&2; exit 1
  fi
  cargo test -q --offline -p server
  cargo test -q --offline --release -p server
  echo "OK: server suites green in debug and release (codec, sockets, no-timer, stream identity)."

  # Clean vs chaos over a real loopback socket. The binary's internal
  # asserts already enforce eviction of both misbehaving clients, wire
  # results bit-identical to the serial oracle, and the 0.9x aggregate
  # healthy fps floor; the wrapper re-checks the emitted figure and
  # bounds the p99 frame latency of every completed session.
  cargo run -q --offline --release -p bench --bin exp_service_net \
    > target/figures/exp_service_net_smoke.txt
  python3 - "$PWD/target/figures/exp_service_net.json" <<'PY'
import json, os, sys
rows = json.load(open(sys.argv[1]))["rows"]
ceiling = float(os.environ.get("DQ_NET_P99_US", "50000"))
evicted = 0
agg = {"clean": 0.0, "chaos": 0.0}
for mode, session, region, fps, p99, ratio, outcome in rows:
    if mode == "chaos" and outcome != "done":
        evicted += 1
        continue
    if outcome != "done":
        sys.exit(f"FAIL: {mode} session {session} ended '{outcome}'")
    if float(p99) > ceiling:
        sys.exit(f"FAIL: {mode} session {session} p99 frame latency "
                 f"{float(p99):.0f} us exceeds the {ceiling:.0f} us ceiling")
    if region != "0":
        agg[mode] += float(fps)
if evicted != 2:
    sys.exit(f"FAIL: expected both misbehaving clients gone, saw {evicted}")
agg_ratio = agg["chaos"] / agg["clean"]
if agg_ratio < 0.9:
    sys.exit(f"FAIL: the healthy sessions' aggregate frames/s fell to "
             f"{agg_ratio:.2f}x of the clean runs' (floor 0.9x)")
done_p99 = max(float(r[4]) for r in rows if r[6] == "done")
print(f"OK: 2 misbehaving clients evicted, aggregate healthy fps "
      f"{agg_ratio:.2f}x of clean (floor 0.9x), worst done-session p99 "
      f"{done_p99:.0f} us (ceiling {ceiling:.0f} us).")
PY
fi

if [ "$WAL_SMOKE" = 1 ]; then
  # The durable write path, bottom up: WAL framing/replay units, the
  # DurableLog/checkpoint/recovery units, then the crash-point matrix
  # (chaos_g..chaos_l: committed-prefix recovery at every crash point,
  # torn/truncated/bit-flipped tails landing on the last complete group
  # commit, full-device backlog recovery, rebuild under 1 and 3 regions,
  # folds past a failed region writer, random crash-point differential).
  cargo test -q --offline -p storage wal
  cargo test -q --offline -p mobiquery durability
  cargo test -q --offline --test chaos -- chaos_g chaos_h chaos_i chaos_j chaos_k chaos_l
  echo "OK: WAL + durability units and the crash-point matrix are green."

  # exp_service with durability attached: every sweep configuration
  # group-commits each frame, checkpoints on cadence, then recovers from
  # the durable image and asserts record- and result-equivalence.
  DQ_SCALE=quick DQ_SESSIONS=4 DQ_DURABLE=1 \
    cargo run -q --offline --release -p bench --bin exp_service \
    > target/figures/exp_service_wal_smoke.txt
  echo "OK: durable exp_service sweep recovered result-equivalently on every configuration."

  # A periodic logical checkpoint must cost the delta, not the index;
  # the binary carries the ratio bound and exits non-zero past it.
  cargo run -q --offline --release -p bench --bin exp_checkpoint \
    > target/figures/exp_checkpoint_smoke.txt
  echo "OK: logical checkpoint cost is flat in the base size (4x base <= 2.0x)."
fi

echo "OK: build, tests, clippy and the dqbench type-check all green."
