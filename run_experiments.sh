#!/usr/bin/env bash
# Regenerates every table/figure at paper-faithful sample counts.
#
# Everything it writes under results/ is deterministic, so a run on a
# correct tree leaves `git status` clean. The benchmark records come
# from benches this script does not run: hotpath_bench writes wall
# times to results/BENCH_hotpath.json, and tail_bench takes minutes
# to write results/BENCH_tail.json.
#
# Each experiment logs to results/<name>.txt; a failing experiment aborts
# the run with a nonzero exit and names the log that holds the evidence.
# The paper tables (2/3/4) and Fig. 7 are driven through the durable
# `campaign` binary, so a killed run can be resumed by re-running this
# script: completed samples are replayed from results/campaign.ckpt.
set -euo pipefail
cd "$(dirname "$0")"
BIN=./target/release
mkdir -p results
cargo build --release --workspace

run_exp() {
  local exp=$1
  shift
  echo "=== $exp ==="
  local status=0
  "$BIN/$exp" "$@" >"results/$exp.txt" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "EXPERIMENT_FAILED: $exp (exit $status) -- see results/$exp.txt" >&2
    tail -n 20 "results/$exp.txt" >&2
    exit "$status"
  fi
  tail -n 5 "results/$exp.txt"
}

for exp in table1_truth overhead ablate_switch_period ablate_integrator; do
  run_exp "$exp"
done

# Tables 2-4 with the Fig. 4-6 strips, and Fig. 7, under the
# checkpointing campaign engine — the one path that writes their CSVs.
# Exit 3 means the campaign was interrupted and left a resumable
# checkpoint — surface that distinctly instead of burying it in a log.
echo "=== campaign (tables 2-4, fig7) ==="
status=0
"$BIN/campaign" --artifacts table2,table3,table4,fig7 \
  >results/campaign.txt 2>&1 || status=$?
if [ "$status" -ne 0 ]; then
  if [ "$status" -eq 3 ]; then
    echo "CAMPAIGN_PARTIAL: interrupted; re-run to resume from results/campaign.ckpt" >&2
  else
    echo "EXPERIMENT_FAILED: campaign (exit $status) -- see results/campaign.txt" >&2
  fi
  tail -n 20 results/campaign.txt >&2
  exit "$status"
fi
tail -n 8 results/campaign.txt

# Array-level trace campaigns (DESIGN.md §17): generates the three trace
# classes, replays them through the array, ages array + decoder, writes
# results/BENCH_array_trace.json, and exits nonzero unless input
# switching delays the read-failure onset on every class. Checkpointed,
# so re-running this script resumes an interrupted sweep.
run_exp array_trace --checkpoint results/array_trace.ckpt

for exp in ablate_idle_stress ablate_swing_policy hci_extension lifetime_extension; do
  run_exp "$exp"
done
echo ALL_EXPERIMENTS_DONE
