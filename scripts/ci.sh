#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the tier-1 verify.
# Run before every push; the build environment has no network, so this is
# the whole pipeline.
#
# usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (solver + MC + dist + trace libs, deny unwrap) =="
# The hot-path libraries must not panic on recoverable failures: every
# solver error has to reach the recovery ladder / quarantine instead,
# a coordinator must never die because one worker misbehaved, and a
# corrupt trace file must be a TraceError, not a backtrace.
cargo clippy -p issa-num -p issa-circuit -p issa-core -p issa-dist -p issa-trace --lib -- -D warnings -D clippy::unwrap-used

echo "== cargo clippy (bench binaries, deny unwrap) =="
# The campaign and bench binaries are the operator surface: a bad flag or a
# missing net must die with a message, not a bare unwrap backtrace.
cargo clippy -p issa-bench --bins -- -D warnings -D clippy::unwrap-used

echo "== tier-1: cargo build --release && cargo test =="
cargo build --release
cargo test -q

echo "== member crates: unit, integration and doc tests of every workspace crate =="
# The root `cargo test` covers only the `issa` package; this runs the
# rest (issa-num, issa-circuit, issa-core, issa-dist, issa-trace, rand,
# ...), including the suites the per-area steps below used to name
# one by one.
cargo test -q --workspace --exclude issa

echo "== release bench binaries (campaign smoke needs them) =="
cargo build --release --workspace

echo "== batched lockstep suites (scalar-vs-batched) =="
cargo test -q --test determinism batched

echo "== hotpath bench identity guard (reference vs fast vs batched) =="
# A small hotpath_bench run; the estimator work must never break the
# fast/batched bit-identity contract, so the artifact's flags are
# asserted explicitly (the binary also exits nonzero on divergence).
# Runs in a scratch directory so the checked-in results/ artifact keeps
# its full-size numbers. The default seed and a held-out one (977): the
# guided offset search must return the cold bisection's cell on
# populations it was not tuned on, too.
HOTPATH_BIN=$PWD/target/release/hotpath_bench
GUARD_DIR=$(mktemp -d)
trap 'rm -rf "$GUARD_DIR"' EXIT
(
  cd "$GUARD_DIR"
  "$HOTPATH_BIN" --samples 6 >hotpath.log 2>&1 || { tail -20 hotpath.log; exit 1; }
  grep -q '"bit_identical_reference_vs_fast": true' results/BENCH_hotpath.json
  grep -q '"bit_identical_batched_vs_fast": true' results/BENCH_hotpath.json
  rm results/BENCH_hotpath.json
  "$HOTPATH_BIN" --samples 6 --seed 977 >hotpath977.log 2>&1 || { tail -20 hotpath977.log; exit 1; }
  grep -q '"bit_identical_reference_vs_fast": true' results/BENCH_hotpath.json
  grep -q '"bit_identical_batched_vs_fast": true' results/BENCH_hotpath.json
  echo "hotpath guard: fast and batched modes bit-identical to reference (seeds default, 977)"
)
rm -rf "$GUARD_DIR"
trap - EXIT

echo "== fault injection / recovery suite =="
cargo test -q --test fault_quarantine

echo "== durability / cancellation suites =="
cargo test -q --test checkpoint_durability
cargo test -q --test campaign_resume

echo "== trace suites (format durability, replay stress, campaign determinism) =="
# The ISSA-TRC format must hold to the checkpoint standard (every
# truncation and bit flip rejected), measured duties must match the
# closed-form compiler bit for bit, and trace-driven campaigns must be
# invariant to threads/lanes/resume.
cargo test -q --test trace_durability
cargo test -q --test array_trace

echo "== distribution suites (loopback fleet) =="
cargo test -q --test dist_loopback
cargo test -q --test dist_perf_attribution

echo "== benchmark suite (dist_table2 == service_table2 bit for bit, exact counts repeat) =="
# The repository benchmark's own tests: every workload emits every
# declared metric, the dist and service paths agree digest for digest,
# and an injected wrong digest or forced recompute trips the check.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== kill-and-resume smoke (SIGKILL mid-campaign) =="
# Start a real campaign, SIGKILL it mid-flight, resume from the
# checkpoint, and demand a byte-identical CSV versus a fresh
# uninterrupted run. Runs in a scratch directory so it cannot touch the
# checked-in results/.
CAMPAIGN_BIN=$PWD/target/release/campaign
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
(
  cd "$SMOKE_DIR"
  "$CAMPAIGN_BIN" --samples 24 --artifacts table2 --flush-every 1 \
    >first.log 2>&1 &
  pid=$!
  sleep 2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  # Resume (a no-op replay if the first run finished before the kill).
  "$CAMPAIGN_BIN" --samples 24 --artifacts table2 --flush-every 1 \
    >resume.log 2>&1
  cp results/table2.csv table2_resumed.csv
  "$CAMPAIGN_BIN" --samples 24 --artifacts table2 --fresh \
    >fresh.log 2>&1
  cmp table2_resumed.csv results/table2.csv
  echo "kill-and-resume: byte-identical table2.csv"
)

echo "== distributed smoke (3 loopback workers, coordinator SIGKILL + resume) =="
# Serve the same table through the coordinator with a three-worker
# loopback fleet, SIGKILL the coordinator mid-run, re-serve from its
# checkpoint, and demand the CSV byte-identical to the single-process
# run above.
DIST_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR"' EXIT
(
  cd "$DIST_DIR"
  cp "$SMOKE_DIR/results/table2.csv" table2_local.csv
  "$CAMPAIGN_BIN" serve --samples 24 --artifacts table2 --flush-every 1 \
    --loopback 3 --unit-samples 4 >serve_first.log 2>&1 &
  pid=$!
  sleep 2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  # Resume under a fresh coordinator (a no-op replay if the first serve
  # finished before the kill).
  "$CAMPAIGN_BIN" serve --samples 24 --artifacts table2 --flush-every 1 \
    --loopback 3 --unit-samples 4 >serve_resume.log 2>&1
  cmp results/table2.csv table2_local.csv
  echo "distributed kill-and-resume: byte-identical table2.csv"
)

echo "== batched distributed smoke (3 loopback workers, --batch-lanes 8) =="
# The same serve with the lockstep engine enabled on every worker must
# still produce a CSV byte-identical to the scalar single-process run.
BATCH_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR"' EXIT
(
  cd "$BATCH_DIR"
  cp "$SMOKE_DIR/results/table2.csv" table2_local.csv
  "$CAMPAIGN_BIN" serve --samples 24 --artifacts table2 --batch-lanes 8 \
    --loopback 3 --unit-samples 4 >serve_batched.log 2>&1
  cmp results/table2.csv table2_local.csv
  echo "batched distributed: byte-identical table2.csv"
)

echo "== paper record guard (campaign prints every table and figure, CSVs match results/) =="
# The one reproduction path at the paper's 400 samples per corner, on the
# lockstep engine (bit-identical to scalar, about twice as fast): its
# four CSVs must equal the committed ones byte for byte — the numbers
# EXPERIMENTS.md quotes, which tests/experiments_record.rs ties to them
# — and its log must carry the Fig. 4-6 strips and the Fig. 7 verdict.
RESULTS_DIR=$PWD/results
RECORD_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR" "$RECORD_DIR"' EXIT
(
  cd "$RECORD_DIR"
  started=$SECONDS
  "$CAMPAIGN_BIN" --artifacts table2,table3,table4,fig7 --batch-lanes 8 \
    >record.log 2>&1 || { tail -20 record.log; exit 1; }
  for csv in table2.csv table3.csv table4.csv fig7_delay_aging.csv; do
    cmp "results/$csv" "$RESULTS_DIR/$csv"
  done
  for figure in 'Fig. 4 view:' 'Fig. 5 view:' 'Fig. 6 view:' 'crossover observed at t = '; do
    grep -q "^$figure" record.log || { echo "record guard: no '$figure' line"; exit 1; }
  done
  echo "paper record guard: CSVs byte-identical to results/, Figs. 4-7 printed ($((SECONDS - started)) s)"
)
rm -rf "$RECORD_DIR"
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR"' EXIT

echo "== tail determinism suites (thread/lane/worker invariance, weighted resume) =="
# Importance-sampled tail mode: pilot-prefix identity with the classic
# engine, thread/lane invariance, abort-and-resume bit-identity with
# checkpointed weights, and loopback worker-count invariance.
cargo test -q --test tail_estimation

echo "== tail kill-and-resume smoke (SIGKILL mid-campaign, weighted checkpoint) =="
# A real tail campaign killed mid-flight must resume from its weighted
# checkpoint to a CSV byte-identical to a fresh uninterrupted run, and a
# three-worker distributed serve of the same config must match both.
# Loose CI target + small cap keep it fast; determinism is what's gated.
TAIL_FLAGS="--samples 24 --artifacts table2 --tail-fr 1e-9 --ci-target 0.5 --max-samples 48"
TAIL_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR" "$TAIL_DIR"' EXIT
(
  cd "$TAIL_DIR"
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" $TAIL_FLAGS --flush-every 1 >tail_first.log 2>&1 &
  pid=$!
  sleep 2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" $TAIL_FLAGS --flush-every 1 >tail_resume.log 2>&1
  cp results/table2.csv tail_resumed.csv
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" $TAIL_FLAGS --fresh >tail_fresh.log 2>&1
  cmp tail_resumed.csv results/table2.csv
  cp results/table2.csv tail_local.csv
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" serve $TAIL_FLAGS --fresh --loopback 3 --unit-samples 4 \
    >tail_serve.log 2>&1
  cmp results/table2.csv tail_local.csv
  # Serve -> local: SIGKILL a 3-worker serve mid-run and finish its
  # checkpoint with the local engine (a no-op replay if the serve
  # finished before the kill): one checkpoint, either driver.
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" serve $TAIL_FLAGS --fresh --flush-every 1 --loopback 3 \
    >tail_serve_first.log 2>&1 &
  pid=$!
  sleep 2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  # shellcheck disable=SC2086
  "$CAMPAIGN_BIN" $TAIL_FLAGS --flush-every 1 >tail_serve_resume.log 2>&1
  cmp results/table2.csv tail_local.csv
  echo "tail kill-and-resume: byte-identical table2.csv (local resume, 3-worker serve, serve -> local resume)"
)
rm -rf "$TAIL_DIR"
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR"' EXIT

echo "== array-trace smoke (generate -> replay -> campaign -> resume, byte-identical) =="
# The full trace pipeline end to end: generate the three trace classes,
# replay them, age array + decoder, and demand the onset gate passes.
# Then abort a checkpointed run mid-campaign and resume it on a
# different thread count: the JSON must be byte-identical to the
# uninterrupted single-threaded run.
ARRAY_BIN=$PWD/target/release/array_trace
ARRAY_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR" "$ARRAY_DIR"' EXIT
(
  cd "$ARRAY_DIR"
  "$ARRAY_BIN" --threads 1 >fresh.log 2>&1 || { tail -20 fresh.log; exit 1; }
  grep -q '"mitigation_ok": true' results/BENCH_array_trace.json
  cp results/BENCH_array_trace.json fresh.json
  "$ARRAY_BIN" --checkpoint at.ckpt --abort-after 40 >abort.log 2>&1
  grep -q "campaign aborted" abort.log
  [ -s at.ckpt ]
  "$ARRAY_BIN" --checkpoint at.ckpt --threads 2 >resume.log 2>&1
  cmp fresh.json results/BENCH_array_trace.json
  echo "array-trace smoke: onset gate passed, resume byte-identical across threads"
)
rm -rf "$ARRAY_DIR"
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR"' EXIT

echo "== chaos soak (full fault schedule, coordinator SIGKILL + resume) =="
# One seeded chaos run: solver faults, checkpoint I/O faults, wire
# faults, a crash-looping flaky worker, a straggler with speculation,
# and a real SIGKILL of the coordinator child. The binary performs the
# kill/resume/compare itself and exits nonzero on any byte mismatch.
# The step budget never trips; it runs every leg (child coordinator,
# workers, resume, clean reference) on the budgeted scalar route and
# checks that the child receives the same fingerprinted budget.
CHAOS_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR" "$CHAOS_DIR"' EXIT
(
  cd "$CHAOS_DIR"
  "$CAMPAIGN_BIN" chaos --samples 24 --chaos-seed 7 --step-budget 1000000000 >chaos.log 2>&1 \
    || { tail -40 chaos.log; exit 1; }
  grep "chaos soak PASS" chaos.log
)

echo "== campaign service soak (SIGKILL + journal replay, cache-hit duplicate) =="
# Submit three campaigns to the supervised service (the third a
# fingerprint-duplicate of the first), SIGKILL the service mid-flight,
# restart it on the same state directory, and demand: every campaign
# completes, the duplicate is served from the result cache, and each
# CSV is byte-identical to a single-process run. Then corrupt the cache
# entry in place and demand quarantine + bit-identical recompute.
SVC_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$DIST_DIR" "$BATCH_DIR" "$CHAOS_DIR" "$SVC_DIR"' EXIT
(
  cd "$SVC_DIR"
  # Single-process reference for the 16-sample config (the 24-sample
  # reference is the kill-and-resume smoke's CSV above).
  mkdir ref16
  (cd ref16 && "$CAMPAIGN_BIN" --samples 16 --artifacts table2 >ref.log 2>&1)

  "$CAMPAIGN_BIN" service --dir state --listen 127.0.0.1:0 --port-file port \
    --max-campaigns 1 --flush-every 1 >service_first.log 2>&1 &
  pid=$!
  for _ in $(seq 100); do [ -s port ] && break; sleep 0.1; done
  addr=$(cat port)
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 24 --artifacts table2 >submit1.json
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 16 --artifacts table2 >submit2.json
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 24 --artifacts table2 >submit3.json
  sleep 2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true

  # Restart on the same directory: journal replay must requeue all
  # three and resume the killed campaign from its checkpoint.
  rm -f port
  "$CAMPAIGN_BIN" service --dir state --listen 127.0.0.1:0 --port-file port \
    --max-campaigns 1 --flush-every 1 \
    --cache-max-mb 64 --cache-max-age-s 86400 >service_second.log 2>&1 &
  pid=$!
  for _ in $(seq 100); do [ -s port ] && break; sleep 0.1; done
  addr=$(cat port)
  "$CAMPAIGN_BIN" fetch --connect "$addr" --id c0001 --wait >fetch1.json
  "$CAMPAIGN_BIN" fetch --connect "$addr" --id c0002 --wait >fetch2.json
  "$CAMPAIGN_BIN" fetch --connect "$addr" --id c0003 --wait >fetch3.json
  grep -q '"cache_hit":false' fetch1.json
  grep -q '"cache_hit":true' fetch3.json
  cmp state/results/c0001/table2.csv "$SMOKE_DIR/results/table2.csv"
  cmp state/results/c0002/table2.csv ref16/results/table2.csv
  cmp state/results/c0003/table2.csv "$SMOKE_DIR/results/table2.csv"

  # Corrupt the 24-sample cache entry in place; a fourth (duplicate)
  # submission must quarantine it and recompute bit-identically.
  fp=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' submit1.json)
  size=$(wc -c <"state/cache/$fp.ckpt")
  printf 'CORRUPT' | dd of="state/cache/$fp.ckpt" bs=1 seek=$((size / 2)) \
    conv=notrunc status=none
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 24 --artifacts table2 \
    --wait >submit4.json
  grep -q '"cache_hit":false' submit4.json
  id4=$(sed -n 's/.*"id":"\(c[0-9]*\)".*/\1/p' submit4.json | head -n 1)
  cmp "state/results/$id4/table2.csv" "$SMOKE_DIR/results/table2.csv"
  "$CAMPAIGN_BIN" health --connect "$addr" >health.json
  grep -Eq '"cache_quarantined":[1-9]' health.json
  grep -q '"cache":{' health.json
  ls state/cache | grep -q quarantined

  # Tail flags ride through the submit path and join the fingerprint:
  # an identical tail resubmission must be a cache hit.
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 8 \
    --artifacts table2 --tail-fr 0.01 --ci-target 0.5 --max-samples 64 \
    --wait >tail1.json
  grep -q '"cache_hit":false' tail1.json
  "$CAMPAIGN_BIN" submit --connect "$addr" --tenant ci --samples 8 \
    --artifacts table2 --tail-fr 0.01 --ci-target 0.5 --max-samples 64 \
    --wait >tail2.json
  grep -q '"cache_hit":true' tail2.json
  "$CAMPAIGN_BIN" shutdown --connect "$addr" >/dev/null
  # The drain must end on its own: a lost acceptor wake would otherwise
  # hang CI here instead of failing it.
  for _ in $(seq 100); do kill -0 "$pid" 2>/dev/null || break; sleep 0.1; done
  if kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    echo "service soak: service still running 10 s after shutdown"
    exit 1
  fi
  wait "$pid"
  echo "service soak: replay byte-identical, duplicate cache_hit, corruption quarantined + recomputed, tail submit cached"
)

echo "CI_OK"
