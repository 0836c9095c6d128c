#!/usr/bin/env bash
# Repo check: tier-1 build + tests, the full workspace, clippy, and a
# type-check of benchmarks/dqbench — its own package, which nothing else
# compiles: deleting public API must not pass here and break the scorer.
#
# The environment has no registry access; all external deps are vendored
# path crates under crates/shims/, so --offline always works (and guards
# against accidental network resolution).
#
#   tools/check.sh                the above
#   tools/check.sh --smoke        ... then every smoke group below
#   tools/check.sh --only <name>  release build, then that one group —
#                                 no tests, no clippy: for iterating
#
# A smoke group is a few suites and experiment binaries plus the rows of
# tools/gates.py that read the figures those binaries write (bounds and
# what each measures are in that table; the binaries' own hard asserts —
# the reconciliation identities, result equality with the serial oracle —
# fail the group by exit status). Figures and logs go to target/figures/
# and never clobber the committed BENCH_read_path.json baseline.
#
#   bench  the read_path microbench at a tiny size (it exits non-zero if
#          the zero-copy view traversal copies at least as many bytes as
#          the decode traversal) and its four ratio floors; then
#          benchmarks/smoke.sh (every dqbench workload at 1/20 size,
#          schema and correctness, no timing) and dqbench's own unit
#          tests in the release build the smoke just made — one of them
#          holds BENCHMARK.json to the in-code metric and workload
#          tables, and nothing else in this gate runs it.
#   obs    the observability reconciliation end to end: a small
#          exp_service sweep (tree level counters == session QueryStats +
#          writer reads == pool hits+misses, pool misses == pager
#          IoStats reads) and the instrumented read_path bench, whose
#          view/decode speedup must stay within DQ_OBS_SPEEDUP_TOL
#          (default 0.25) of the committed baseline.
#   shard  the partition suite (seam exactly-once oracle, partitioned
#          serve == serve_serial over 2 and 4 regions, per-region
#          identities) and the exp_service regions sweep: no region may
#          carry more than 2x the mean load under the uniform workload.
#   chaos  the chaos suite (seeded fault schedules vs a fault-free
#          oracle), then exp_service fault-free and under a 1 % seeded
#          transient-fault rate with pool-level retry: same identities,
#          all sessions Ok, best concurrent throughput within 2x of the
#          baseline taken on this machine just before.
#   clock  the clock suite (ragged schedule lengths, join-mid-run
#          watermarks, mid-run panic containment, frame-report
#          reconciliation out of lockstep) and the straggler experiment —
#          one deliberately slow session on region 0: every other region
#          keeps >= 0.9x its clean-run frames/s and the straggler itself
#          was actually slowed.
#   net    a grep gate that no thread under crates/server/src sleeps or
#          reads a poll interval (lines tagged `sleep-ok:` excepted), the
#          server crate's suites in the debug and the optimised build,
#          then exp_service_net — interleaved clean and chaos runs over a
#          loopback socket, the chaos runs adding a stalling and a
#          vanishing client: both evicted, the healthy sessions' aggregate
#          frames/s >= 0.9x the clean runs' with bit-identical results,
#          no completed session's p99 frame latency above DQ_NET_P99_US
#          (default 50000 us).
#   wal    the WAL and durability unit suites and the chaos crash-point
#          matrix (chaos_g..chaos_l), exp_service with DQ_DURABLE=1 —
#          which rebuilds from the post-run durable image on every sweep
#          configuration and requires the served server's records and
#          equivalent answers — and exp_checkpoint, which fails unless
#          checkpointing a fixed delta over a 4x larger base costs <=
#          2.0x what it costs over the 1x base.
#   updates
#          the §4.1 update protocol measured against something that is
#          not the shared-engine oracle: exp_updates at quick scale — a
#          PDQ over an index that grows while it runs must deliver what a
#          PDQ over the finished index delivers, for <= 1.05x its disk
#          accesses per frame, dropping at most a quarter as many
#          duplicate queue entries as it delivers objects.
#   tpr    the one §4.1 engine over the second index family: exp_tpr at
#          quick scale (seeded, a few seconds) must reproduce the
#          committed results/figures_smoke/exp_tpr.json — the TPR-tree's
#          disk accesses, distance computations and delivered objects,
#          summed over the overlap sweep — and deliver over the TPR-tree
#          exactly what PDQ delivers over NSI in the same run.
#   paper  the reproduction held to the paper: Figs. 6 and 10 (PDQ and
#          NPDQ disk accesses against the naive baseline) and Fig. 11
#          (NPDQ distance computations) at quick scale — seeded, counts
#          only, a few seconds — must reproduce the committed
#          results/figures_smoke/fig06.json, fig10.json and fig11.json
#          cell for cell and keep §5's shape: PDQ's and NPDQ's first
#          query costs what the naive one does, PDQ's subsequent queries
#          cost less than naive's at every overlap and less the higher
#          the overlap, and NPDQ's never cost more than naive's.
set -euo pipefail
cd "$(dirname "$0")/.."

GROUPS_ALL="bench obs shard chaos clock net wal updates tpr paper"
SMOKE=""
ONLY=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=$GROUPS_ALL ;;
    --only)
      ONLY=${2:-}; shift
      case " $GROUPS_ALL " in
        *" $ONLY "*) SMOKE=$ONLY ;;
        *) echo "--only takes one of: $GROUPS_ALL" >&2; exit 2 ;;
      esac ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
want() { for g in "$@"; do case " $SMOKE " in *" $g "*) return 0 ;; esac; done; return 1; }
# Run a release binary of the bench crate, stdout to target/figures/$1.txt.
bench_bin() { local log=$1 bin=$2; shift 2; env "$@" cargo run -q --offline --release -p bench --bin "$bin" > "target/figures/$log.txt"; }
# The read_path microbench. Absolute output path: cargo runs bench
# binaries with the package directory as cwd, not the workspace root.
read_path() { DQ_READ_PATH_OBJECTS=$2 DQ_READ_PATH_MS=$3 DQ_READ_PATH_OUT="$PWD/target/figures/$1.json" cargo bench --offline -p bench --bench read_path; }

cargo build --release --offline
if [ -z "$ONLY" ]; then
  cargo test -q --offline
  cargo test -q --offline --workspace
  cargo clippy --offline --workspace --all-targets -- -D warnings
  cargo check --release --offline --manifest-path benchmarks/dqbench/Cargo.toml
fi
mkdir -p target/figures

if want bench; then
  read_path read_path_smoke 300 50
  tools/gates.py bench
  benchmarks/smoke.sh > target/figures/dqbench_smoke.txt
  cargo test --release --offline --quiet --manifest-path benchmarks/dqbench/Cargo.toml
  echo "OK: dqbench builds against the workspace crates, its smoke run is correct on every workload, and its unit tests pass."
fi

if want shard; then
  cargo test -q --offline --test partition
  bench_bin exp_service_shard_smoke exp_service DQ_SCALE=quick DQ_SESSIONS=4 DQ_REGIONS=1,2,4
  tools/gates.py shard
fi

# The quick fault-free exp_service sweep, serial + concurrent over every
# pool size: obs wants its asserts, chaos its throughput as the baseline
# (so nothing else that writes exp_service.json runs in between).
if want obs chaos; then
  bench_bin exp_service_smoke exp_service DQ_SCALE=quick DQ_SESSIONS=4
  echo "OK: exp_service counters reconcile (levels == stats+writer == pool hits+misses == IoStats)."
fi

if want obs; then
  read_path read_path_obs_smoke 2000 150
  tools/gates.py obs
fi

if want chaos; then
  cargo test -q --offline --test chaos
  bench_bin exp_service_chaos_smoke exp_service DQ_SCALE=quick DQ_SESSIONS=4 DQ_FAULT_RATE=0.01 DQ_FAULT_SEED=7
  tools/gates.py chaos
fi

if want clock; then
  cargo test -q --offline --test clock
  bench_bin exp_service_straggler exp_service_straggler
  tools/gates.py clock
fi

if want net; then
  if grep -rnE 'thread::sleep|poll_interval' crates/server/src | grep -v 'sleep-ok:'; then
    echo "FAIL: crates/server/src sleeps or polls (see above); hand-offs must be blocking wake-ups" >&2; exit 1
  fi
  cargo test -q --offline -p server
  cargo test -q --offline --release -p server
  bench_bin exp_service_net_smoke exp_service_net
  tools/gates.py net
fi

if want wal; then
  cargo test -q --offline -p storage wal
  cargo test -q --offline -p mobiquery durability
  cargo test -q --offline --test chaos -- chaos_g chaos_h chaos_i chaos_j chaos_k chaos_l
  bench_bin exp_service_wal_smoke exp_service DQ_SCALE=quick DQ_SESSIONS=4 DQ_DURABLE=1
  echo "OK: durable exp_service sweep recovered result-equivalently on every configuration."
  bench_bin exp_checkpoint_smoke exp_checkpoint
  echo "OK: logical checkpoint cost is flat in the base size (4x base <= 2.0x)."
fi

if want updates; then
  bench_bin exp_updates_smoke exp_updates DQ_SCALE=quick
  tools/gates.py updates
fi

if want tpr; then
  bench_bin exp_tpr_smoke exp_tpr DQ_SCALE=quick
  tools/gates.py tpr
fi

if want paper; then
  bench_bin fig06_smoke fig06_pdq_io DQ_SCALE=quick
  bench_bin fig10_smoke fig10_npdq_io DQ_SCALE=quick
  bench_bin fig11_smoke fig11_npdq_cpu DQ_SCALE=quick
  tools/gates.py paper
fi

if [ -n "$ONLY" ]; then
  echo "OK: smoke group '$ONLY' green (tests and clippy not run)."
else
  echo "OK: build, tests, clippy and the dqbench type-check all green${SMOKE:+, and every smoke group}."
fi
