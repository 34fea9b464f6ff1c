#!/bin/sh
# Runs every reproduced table/figure/ablation with its default (publication)
# parameters, writing results into results/.
#
#   scripts/run_all_benches.sh [build-dir] [results-dir]
#
# The figure, table and most ablation sweeps are bsp-sweep campaigns: each
# writes its JSONL store (one record per simulation, checkpointed so a
# rerun resumes instead of restarting) and prints its paper rendering.
# The trace studies and the ablations that need machine overrides a
# campaign cannot express yet still run as bench drivers.
set -eu

BUILD="${1:-build}"
OUT="${2:-results}"
mkdir -p "$OUT"

CAMPAIGNS="
fig11
table1
abl_slice_width
abl_seeds
abl_extensions
abl_sam
"

for c in $CAMPAIGNS; do
  echo "== campaign $c"
  "$BUILD/tools/bsp-sweep" --campaign "$c" --out "$OUT/$c.jsonl" \
    --no-progress > "$OUT/$c.txt" 2>&1
done

BENCHES="
table_operand_profile
fig2_lsq_disambiguation
fig4_partial_tag
fig6_early_branch
abl_lsq_depth
abl_way_policy
abl_stability
abl_predictor
abl_fp_corner
abl_window
"

for b in $BENCHES; do
  echo "== $b"
  "$BUILD/bench/$b" > "$OUT/$b.txt" 2>&1
done
echo "done: $OUT/"
