#!/usr/bin/env bash
# Repo check: the tier-1 release build, every workspace suite (the root
# package's tier-1 tests among them), the staged-kernel suite again in
# the optimised build (crates/rtree/tests/prop_kernels.rs: the debug
# build does not vectorise, so only this run tests the loops that ship),
# clippy, a type-check of
# benchmarks/dqbench — its own package, which nothing else
# compiles: deleting public API must not pass here and break the scorer —
# and thirteen grep gates: no Rust under crates tests examples src calls
# `.free(` (no store frees a page, and `PageStore::free` is a no-op kept
# only because benchmarks/dqbench forwards it), nor `.read_node(` (every
# descent reads through `RTree::try_read_node`, which checks the level
# the parent implies; the un-levelled `read_node` is kept only because
# benchmarks/dqbench calls it), nor names a struct-of-arrays overlap
# kernel outside crates/stkit (every engine solves an entry through the
# scalar forms and `Trajectory::overlap_by`; `RectBatch` and
# `SegmentBatch` are kept only because benchmarks/dqbench times them);
# no root suite but the
# served oracle waits with a timeout; no `zigzag` (nor a `truth`) is
# defined outside tests/support — a name guard only: a copy of the
# record-list truth under another name passes it; the router keeps
# three `serve` entry points (`serve`, `serve_plans_streamed`,
# `serve_serial_plans`); and the served path builds no visibility set:
# crates/mobiquery/src/router.rs and router/ name no `.visibility`,
# `TimeSet`, `try_get_next` or `drain_window` (a PDQ lane pops entries
# with `PdqEngine::try_next_entry` and merges by entry time); and
# crates/mobiquery/src/clock.rs holds exactly one `.wait(`, the one
# timed loop every `FrameClock` wait goes through, so no rule hides in
# a wait loop of its own (the rules are `ClockState::enabled`/`apply`);
# and nothing under crates tests examples src names `durability_loop`,
# `advance_committed`, `wait_committed` or `AwaitCommit`: writers commit
# the log through a frame before they apply it, so no thread commits
# ahead of them and no clock watermark orders the two; and clock.rs
# defines no participant model (no `struct World`, `enum Who` or
# `enum Op`): the checker of every interleaving runs the writer and
# session programs of crates/mobiquery/src/router/participants.rs
# themselves, so no hand copy of their order can drift from the code;
# and crates/mobiquery/src/router/ has exactly one thread-spawn site (the
# workers driver's pool, which starts the spares too) and names no
# `FrameClock`: a serve runs its programs as tasks on one worker per
# CPU, so no thread-per-participant path comes back behind a flag; and
# the non-test part of router/participants.rs assigns no `.busy`,
# `.held`, `.idle` or `.spares` outside `impl SchedState` and has no
# `left` field: the scheduler's counters change only in its transitions,
# which the checker runs, and the programs left are derived; and
# nothing under crates tests examples src names `TraceEvent`,
# `TraceRing`, `take_thread_trace`, `thread_trace_dropped`,
# `QueueOpKind` or `obs::trace`: a per-thread event ring is read by no
# one once participants move between workers, so the obs counters are
# the serve's one instrument until a collector carried by the task
# replaces it. And ChooseLeaf stages no internal node from its page
# bytes per insert: nothing under crates outside crates/rtree/src/node.rs
# and staged.rs names `Stage::choose` or `internal_entry_bytes` (the
# bytes a node is staged from), and staged.rs has one `fn choose`, the
# kept staged node's, so the descent reads the columns the tree keeps
# between inserts and stages a page only on a write or when it is
# missing or stale (`KeptPage::fresh`); and the tree keeps each fact
# about a page once: crates/rtree/src names no `StagedNodes` (a second
# by-page table beside the page records), no `type Block` (a second
# staged layout beside the kept node's), no `fn reserve` (a stage grown
# per insert instead of sized with the tree) and no `pub min_fill` or
# `pub bulk_fill` (the paper's fills are constants, not knobs). Last,
# BENCH_trajectory.json — one row per workload and seed of each PR's
# A/B, appended by `tools/ab.py --record PR` — must keep its schema and
# never lower a PR number down the file (`tools/ab.py --check-trajectory`).
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
# what each measures are in that table). The serving core's isolation,
# reconciliation, fault and recovery claims are not here: they are
# deterministic tests the default check already runs (the served
# oracle, tests/support/served.rs, over tests/service.rs's property and
# the cases pinned in tests/{concurrency,partition,clock,chaos}.rs;
# the durability units; crates/server/tests). Nor are the library
# engines': the engine oracle, tests/support/engines.rs, holds PDQ,
# SPDQ, TPR and NPDQ to the same record-list truth
# (tests/support/truth.rs) over tests/engines.rs's property and the
# cases pinned in tests/end_to_end.rs, all in the tier-1 root suites. Every gates.py row compares counts; the one perf
# harness is benchmarks/dqbench, and its smoke run checks correctness
# only. Figures and logs go to target/figures/.
#
# The node split's identity gates: both prop_patch suites (pages vs the
# rebuild reference), prop_tree's split oracle (Quadratic and Linear
# `split` == the uncached PickSeeds/PickNext kept in
# crates/rtree/tests/support/oracle.rs, and `cover_volume` ==
# `cover().volume()` bit for bit), prop_kernels (the staged ChooseLeaf
# and quadratic split == that oracle, choice for choice, in the debug
# and the optimised build), and the figures
# built by inserting — ablation_split (extensions), exp_updates
# (updates), exp_tpr (tpr). A split that changes a partition must fail
# here, not pass with a re-pinned figure. A descent that loops on a
# child id corrupted into a cycle fails the suite instead of hanging it:
# the served oracle runs every concurrent and wire serve — drawn by
# tests/service.rs or pinned, corrupt pages included — under one bound
# in tests/support/served.rs, the one place a root suite waits with a
# timeout, and the rtree descent tests wait a bounded time of their own.
#
#   bench  benchmarks/smoke.sh (every dqbench workload at 1/20 size,
#          schema and correctness, no timing) and dqbench's own unit
#          tests in the release build the smoke just made — one of them
#          holds BENCHMARK.json to the in-code metric and workload
#          tables, and nothing else in this gate runs it.
#   net    three grep gates — no thread under crates/server/src sleeps
#          or reads a poll interval (lines tagged `sleep-ok:` excepted);
#          crates/server/src names no `spawn_scoped` or `thread::scope`;
#          and the non-test code of crates/server/src/{server,pool}.rs
#          has exactly three `.spawn(` sites (listener, coordinator,
#          pool): a served wire session's sink writes its deltas and
#          reads its credit on the serving worker, so no socket thread
#          per session comes back — then the server crate's suites in
#          the debug and the optimised build, and the wire suite
#          (crates/server/tests/net.rs) again in the optimised build
#          under `taskset -c 0`: on one CPU the serve has one worker,
#          so a sink's wait for credit must lend it to a spare (the
#          shape dqbench's `wire` runs) or the stalled-client case
#          stalls the whole serve.
#   updates
#          the §4.1 update protocol measured against something that is
#          not the shared-engine oracle: exp_updates at quick scale — a
#          PDQ over an index that grows while it runs must deliver what a
#          PDQ over the finished index delivers, for <= 1.05x its disk
#          accesses per frame, dropping at most a quarter as many
#          duplicate queue entries as it delivers objects — and the whole
#          figure must reproduce the committed
#          results/figures_smoke/exp_updates.json cell for cell, its NPDQ
#          row being the one figure row §4.2's update rule drives: a
#          child written since the previous frame is read, and an
#          unwritten one skipped by the motion-bounded discard
#          (crates/mobiquery/src/npdq.rs), so a change to either moves
#          its disk/query cell.
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
#          the overlap, and NPDQ's never cost more than naive's. Then
#          ablation_npdq_clustering (§4.2's discard over three
#          clusterings, instant and open-ended queries), which asserts
#          every NPDQ frame against naive's newly visible set, must
#          reproduce results/figures_smoke/ablation_npdq_clustering.json
#          and read no more than naive on every row.
#   extensions
#          every extension kept beside the paper's engines, held to the
#          claim that justifies it: exp_spdq, exp_join, ablation_psi,
#          ablation_split and ablation_buffer at quick scale (seeded,
#          counts only, a few seconds) must reproduce the committed
#          results/figures_smoke/ figures cell for cell and keep their
#          EXPERIMENTS.md claims — SPDQ's cost never falls as δ grows,
#          the join compares less than brute force, PSI reads more than
#          NSI, r-star < quadratic < linear, and unbuffered PDQ reads less
#          than naive behind any LRU; exp_join and ablation_psi also assert
#          their answers against brute force and NSI. Then five examples
#          (optimised build), each asserting what it prints: flythrough and
#          convoy_analysis the client cache and the COUNT profile against
#          naive queries, dead_reckoning §3.1's update/error trade-off and
#          that the threshold-inflated window misses no truly-in-window
#          segment, vicinity_monitor the kNN against a brute-force ranking,
#          partitioned_serving every PDQ and NPDQ stream over four regions
#          against the single tree's, order included, none repeating.
set -euo pipefail
cd "$(dirname "$0")/.."

GROUPS_ALL="bench net updates tpr paper extensions"
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
want() { case " $SMOKE " in *" $1 "*) return 0 ;; esac; return 1; }
# Run a release binary of the bench crate, stdout to target/figures/$1.txt.
bench_bin() { local log=$1 bin=$2; shift 2; env "$@" cargo run -q --offline --release -p bench --bin "$bin" > "target/figures/$log.txt"; }

cargo build --release --offline
if [ -z "$ONLY" ]; then
  cargo test -q --offline --workspace
  cargo test --release --offline -q -p rtree --test prop_kernels
  cargo clippy --offline --workspace --all-targets -- -D warnings
  cargo check --release --offline --manifest-path benchmarks/dqbench/Cargo.toml
  if grep -rn --include='*.rs' '\.free(' crates tests examples src; then
    echo "FAIL: a call to PageStore::free (see above); page ids are dense and nothing frees" >&2; exit 1
  fi
  if git grep -nE '\.read_node\(' -- crates tests examples src; then
    echo "FAIL: an un-levelled RTree::read_node (see above); read through try_read_node(page, level)" >&2; exit 1
  fi
  if git grep -nE 'RectBatch|SegmentBatch|StagedPage|overlap_batch_into|TpBoxBatch' -- crates tests examples src ':!crates/stkit'; then
    echo "FAIL: a batched overlap kernel outside crates/stkit (see above); solve each entry through the scalar forms" >&2; exit 1
  fi
  if git grep -nE 'recv_timeout|RecvTimeoutError' -- tests ':!tests/support/served.rs'; then
    echo "FAIL: a root suite waits with its own timeout (see above); the hang bound lives in tests/support/served.rs" >&2; exit 1
  fi
  if git grep -nE '^(pub )?fn (zigzag|truth)\b' -- tests crates | grep -v '^tests/support/'; then
    echo "FAIL: a zigzag or truth defined outside tests/support (see above); the ones there are the only copies" >&2; exit 1
  fi
  if [ "$(grep -c 'pub fn serve' crates/mobiquery/src/router.rs)" != 3 ]; then
    echo "FAIL: crates/mobiquery/src/router.rs has $(grep -c 'pub fn serve' crates/mobiquery/src/router.rs) serve entry points, not 3" >&2; exit 1
  fi
  if git grep -nE '\.visibility|TimeSet|try_get_next|drain_window' -- crates/mobiquery/src/router.rs crates/mobiquery/src/router; then
    echo "FAIL: the served path names a visibility set (see above); a PDQ lane pops with try_next_entry" >&2; exit 1
  fi
  if [ "$(grep -c '\.wait(' crates/mobiquery/src/clock.rs)" != 1 ]; then
    echo "FAIL: crates/mobiquery/src/clock.rs has $(grep -c '\.wait(' crates/mobiquery/src/clock.rs) condvar waits, not 1; every wait goes through FrameClock's one loop" >&2; exit 1
  fi
  if git grep -nE 'durability_loop|advance_committed|wait_committed|AwaitCommit' -- crates tests examples src; then
    echo "FAIL: a durability thread or a committed watermark (see above); writers commit the log before they apply" >&2; exit 1
  fi
  if git grep -nE '\b(struct World|enum Who|enum Op)\b' -- crates/mobiquery/src/clock.rs; then
    echo "FAIL: crates/mobiquery/src/clock.rs defines a participant model (see above); check the programs in router/participants.rs instead" >&2; exit 1
  fi
  spawns=$(git grep -nE 'spawn\(' -- crates/mobiquery/src/router | wc -l)
  if [ "$spawns" != 1 ] || git grep -n 'FrameClock' -- crates/mobiquery/src/router; then
    git grep -nE 'spawn\(' -- crates/mobiquery/src/router >&2
    echo "FAIL: crates/mobiquery/src/router/ has $spawns thread-spawn sites, not 1, or names FrameClock (see above); run participants as tasks on the workers driver's pool" >&2; exit 1
  fi
  outside_sched=$(awk '/^#\[cfg\(test\)\]/ { exit } /^impl<.*> SchedState<.*> \{/ { inside = 1 } !inside { print FILENAME ":" NR ": " $0 } inside && /^\}/ { inside = 0 }' crates/mobiquery/src/router/participants.rs)
  if grep -E '\.(busy|held|idle|spares)[[:space:]]*(\+=|-=|=[^=>])|\bleft:' <<< "$outside_sched"; then
    echo "FAIL: crates/mobiquery/src/router/participants.rs changes a scheduler counter outside impl SchedState, or keeps a left count (see above); make it a SchedState transition" >&2; exit 1
  fi
  if git grep -nE 'TraceEvent|TraceRing|take_thread_trace|thread_trace_dropped|QueueOpKind|obs::trace\b' -- crates tests examples src; then
    echo "FAIL: a per-thread trace ring or its events (see above); count with obs metrics, or scope a collector to the task" >&2; exit 1
  fi
  if git grep -nE 'Stage::choose|internal_entry_bytes' -- crates ':!crates/rtree/src/node.rs' ':!crates/rtree/src/staged.rs' \
      || [ "$(git grep -c 'fn choose' -- crates/rtree/src/staged.rs | cut -d: -f2)" != 1 ] \
      || git grep -nE 'StagedNodes|type Block|fn reserve|pub (min_fill|bulk_fill)' -- crates/rtree/src; then
    echo "FAIL: an internal node staged from its page bytes outside staged.rs, a second ChooseLeaf kernel in staged.rs, or in crates/rtree/src a second by-page table, a second staged layout, a stage grown per insert or a fill knob (see above); descend from the kept staged nodes, one record per page, one staged layout" >&2; exit 1
  fi
  if ! tools/ab.py --check-trajectory; then
    echo "FAIL: BENCH_trajectory.json breaks its schema or lowers a PR number (see above); rows come from tools/ab.py --record" >&2; exit 1
  fi
fi
mkdir -p target/figures

if want bench; then
  benchmarks/smoke.sh > target/figures/dqbench_smoke.txt
  cargo test --release --offline --quiet --manifest-path benchmarks/dqbench/Cargo.toml
  echo "OK: dqbench builds against the workspace crates, its smoke run is correct on every workload, and its unit tests pass."
fi

if want net; then
  if grep -rnE 'thread::sleep|poll_interval' crates/server/src | grep -v 'sleep-ok:'; then
    echo "FAIL: crates/server/src sleeps or polls (see above); hand-offs must be blocking wake-ups" >&2; exit 1
  fi
  if git grep -nE 'spawn_scoped|thread::scope' -- crates/server/src; then
    echo "FAIL: crates/server/src starts scoped threads (see above); a session's sink does its own socket work" >&2; exit 1
  fi
  spawn_sites() { for f in crates/server/src/server.rs crates/server/src/pool.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /\.spawn\(/ { print FILENAME ":" FNR ": " $0 }' "$f"; done; }
  if [ "$(spawn_sites | wc -l)" != 3 ]; then
    spawn_sites >&2
    echo "FAIL: crates/server/src/{server,pool}.rs have $(spawn_sites | wc -l) thread-spawn sites, not 3 (listener, coordinator, pool)" >&2; exit 1
  fi
  cargo test -q --offline -p server
  cargo test -q --offline --release -p server
  taskset -c 0 cargo test -q --offline --release -p server --test net
  echo "OK: nothing under crates/server/src sleeps or starts a socket thread per session, and the server suites pass in debug and release, and the wire suite on one CPU."
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
  bench_bin ablation_npdq_clustering_smoke ablation_npdq_clustering DQ_SCALE=quick
  tools/gates.py paper
fi

if want extensions; then
  for bin in exp_spdq exp_join ablation_psi ablation_split ablation_buffer; do
    bench_bin "${bin}_smoke" "$bin" DQ_SCALE=quick
  done
  tools/gates.py extensions
  for ex in flythrough convoy_analysis dead_reckoning vicinity_monitor partitioned_serving; do
    cargo run -q --offline --release --example "$ex" > "target/figures/$ex.txt"
  done
  echo "OK: the flythrough, convoy_analysis, dead_reckoning, vicinity_monitor and partitioned_serving examples assert what they print."
fi

if [ -n "$ONLY" ]; then
  echo "OK: smoke group '$ONLY' green (tests and clippy not run)."
else
  echo "OK: build, tests, clippy and the dqbench type-check all green${SMOKE:+, and every smoke group}."
fi
