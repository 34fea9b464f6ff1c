#!/bin/sh
# Distributed-sweep acceptance smoke: one coordinator, three localhost
# workers, one of them SIGKILLed mid-campaign. The coordinator must exit 0,
# the store must hold every task exactly once (re-dispatch may not
# duplicate), and the per-task SimStats must be byte-identical to a
# single-host reference run of the same spec — the distributed plumbing
# has to be invisible to the physics. The --status-endpoint snapshot is
# schema-checked by scripts/validate_status.py while the campaign runs.
#
#   scripts/sweep_serve_smoke.sh [build-dir] [out-dir]
#
# Environment: N (instructions per task, default 20000), W (workload,
# default li; the fig11 campaign narrows to 13 tasks per workload),
# WARMUP (warm-up commits, default 0) and DETAILED_WARMUP (optional
# --detailed-warmup). With DETAILED_WARMUP below WARMUP the tasks warm
# functionally, and a process-isolated (--worker-json) run joins the
# comparison, so thread, process and remote workers must all agree.
set -eu

BUILD=${1:-build}
OUT=${2:-sweep-serve-smoke}
N=${N:-20000}
W=${W:-li}
WARMUP=${WARMUP:-0}
SWEEP=$BUILD/tools/bsp-sweep
SCRIPTS=$(dirname "$0")
EXPECT_TASKS=13
SPEC="--campaign fig11 -n $N --warmup $WARMUP -w $W"
[ -n "${DETAILED_WARMUP:-}" ] && SPEC="$SPEC --detailed-warmup $DETAILED_WARMUP"

[ -x "$SWEEP" ] || { echo "no bsp-sweep at $SWEEP" >&2; exit 1; }
mkdir -p "$OUT"
rm -f "$OUT"/ports "$OUT"/*.jsonl "$OUT"/*.out

# Single-host reference: same spec, plain local run.
# shellcheck disable=SC2086  # $SPEC is a flag list
"$SWEEP" $SPEC --fresh --no-progress \
  --out "$OUT/reference.jsonl" > "$OUT/reference.out"
grep -q "$EXPECT_TASKS ran ($EXPECT_TASKS ok, 0 failed" "$OUT/reference.out"
if [ -n "${DETAILED_WARMUP:-}" ]; then
  # shellcheck disable=SC2086
  "$SWEEP" $SPEC --fresh --no-progress --isolate process \
    --out "$OUT/process.jsonl" > "$OUT/process.out"
  grep -q "$EXPECT_TASKS ran ($EXPECT_TASKS ok, 0 failed" "$OUT/process.out"
fi

# Coordinator: ephemeral ports, advertised through --port-file.
# shellcheck disable=SC2086
"$SWEEP" $SPEC --fresh --no-progress \
  --serve 127.0.0.1:0 --status-endpoint 127.0.0.1:0 \
  --port-file "$OUT/ports" \
  --out "$OUT/distributed.jsonl" > "$OUT/serve.out" 2>&1 &
COORD=$!

i=0
while [ ! -s "$OUT/ports" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "coordinator never wrote $OUT/ports" >&2; exit 1; }
  kill -0 "$COORD" 2>/dev/null || { cat "$OUT/serve.out" >&2; exit 1; }
  sleep 0.1
done
PORT=$(sed -n 's/^port=//p' "$OUT/ports")
STATUS_PORT=$(sed -n 's/^status_port=//p' "$OUT/ports")
echo "coordinator on :$PORT (status :$STATUS_PORT)"

# Validate the status snapshot before any worker connects: the campaign
# cannot finish (and close the endpoint) while the fleet is empty, so this
# poll is race-free. 13 tasks pending, zero workers — still schema-valid.
python3 "$SCRIPTS/validate_status.py" "http://127.0.0.1:$STATUS_PORT" \
  --expect-campaign fig11 --expect-total "$EXPECT_TASKS"

"$SWEEP" --connect "127.0.0.1:$PORT" -j 2 > "$OUT/worker1.out" 2>&1 &
W1=$!
"$SWEEP" --connect "127.0.0.1:$PORT" -j 2 > "$OUT/worker2.out" 2>&1 &
W2=$!
"$SWEEP" --connect "127.0.0.1:$PORT" -j 2 > "$OUT/worker3.out" 2>&1 &
W3=$!

# SIGKILL worker 2 while the campaign is (most likely) still in flight.
# Whatever tasks it held must be re-dispatched; the guarantees below hold
# regardless of kill timing.
sleep 0.3
kill -KILL "$W2" 2>/dev/null || true
echo "worker 2 (pid $W2) SIGKILLed"

rc=0
wait "$COORD" || rc=$?
[ "$rc" -eq 0 ] || { echo "coordinator exited $rc" >&2
                     cat "$OUT/serve.out" >&2; exit 1; }
wait "$W1" || { echo "worker 1 failed" >&2; cat "$OUT/worker1.out" >&2
                exit 1; }
wait "$W2" 2>/dev/null || true  # the one we shot
wait "$W3" || { echo "worker 3 failed" >&2; cat "$OUT/worker3.out" >&2
                exit 1; }
grep -q "$EXPECT_TASKS ran ($EXPECT_TASKS ok, 0 failed" "$OUT/serve.out" || {
  echo "coordinator summary disagrees:" >&2; cat "$OUT/serve.out" >&2; exit 1
}

# Exactly-once in the store, and byte-identical stats vs the reference.
python3 - "$OUT" "$EXPECT_TASKS" <<'EOF'
import json, os, sys
out, expect = sys.argv[1], int(sys.argv[2])

def stats(path):
    recs = {}
    for line in open(path):
        rec = json.loads(line)
        assert rec["task"] not in recs, f"duplicate record: {rec['task']}"
        assert rec["status"] == "ok", f"{rec['task']}: {rec['status']}"
        recs[rec["task"]] = rec["stats"]
    return recs

ref = stats(f"{out}/reference.jsonl")
assert len(ref) == expect, f"reference has {len(ref)} tasks"
others = ["distributed"]
if os.path.exists(f"{out}/process.jsonl"):
    others.append("process")
for name in others:
    got = stats(f"{out}/{name}.jsonl")
    assert ref.keys() == got.keys(), \
        f"{name}: task sets differ: {sorted(ref.keys() ^ got.keys())}"
    for tid in ref:
        assert ref[tid] == got[tid], f"{name}: stats diverged for {tid}"
fw = sum("/fw=" in tid for tid in ref)
print(f"distributed smoke: {len(ref)} tasks exactly once ({fw} warmed "
      f"functionally), {' and '.join(others)} stats identical to "
      "single-host reference")
EOF
