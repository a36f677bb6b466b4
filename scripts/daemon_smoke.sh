#!/bin/sh
# Daemon smoke: the same fleet replayed twice through the real mlopsd
# binary — once through the in-process node under a 1 MiB memory budget
# that spills evicted DIMM state to disk, once as a control plane + two
# loopback node daemons with no budget — must produce byte-identical alarm
# logs and the same per-month alarm counts and live precision/recall.
# Exercises the full process topology the distributed_test covers
# in-memory: join, deterministic partition, binary tick fan-out, artifact
# pulls on promotion, checkpointed journal truncation with checkpoint
# chains (a full frame and its deltas) in a real on-disk store, and
# graceful SIGTERM shutdown of the daemons.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
CP=""; N1=""; N2=""; WATCH=""
cleanup() {
    for pid in "$CP" "$N1" "$N2" "$WATCH"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/mlopsd" ./cmd/mlopsd

PORT=19647
REF="$TMP/ref.alarms"
DIST="$TMP/dist.alarms"

# Reference: single process, in-process node, with a budget tight enough
# to freeze DIMMs constantly and a spill dir their records must reach.
mkdir -p "$TMP/local-spill"
"$TMP/mlopsd" -platform Intel_Purley -scale 0.03 -seed 31 \
    -membudget 1 -spill-dir "$TMP/local-spill" \
    -alarm-log "$REF" > "$TMP/ref.log"
if ! ls "$TMP/local-spill"/dimm%2F*.spill >/dev/null 2>&1; then
    echo "daemon-smoke: no evicted DIMM state reached the local spill dir" >&2
    exit 1
fi

# Distributed: control plane + two node daemons on the loopback, with an
# aggressive checkpoint cadence and an on-disk spill store so the journal
# lifecycle (truncate + spill) actually runs at smoke scale.
mkdir -p "$TMP/spill"
"$TMP/mlopsd" -platform Intel_Purley -scale 0.03 -seed 31 \
    -alarm-log "$DIST" -addr 127.0.0.1:$PORT -nodes 2 \
    -checkpoint-every 8 -spill-dir "$TMP/spill" > "$TMP/dist.log" &
CP=$!
"$TMP/mlopsd" -node -join "http://127.0.0.1:$PORT" -name smoke-n1 > "$TMP/n1.log" &
N1=$!
"$TMP/mlopsd" -node -join "http://127.0.0.1:$PORT" -name smoke-n2 > "$TMP/n2.log" &
N2=$!
# Each node's stored checkpoint is a chain: a full frame (ckpt%2F<node>)
# and the deltas taken on it (ckpt%2F<node>%2F<i>), deleted when the next
# full frame starts a new chain. Where a chain stands when the replay ends
# follows delivery timing, so watch the directory while it runs.
(
    until ls "$TMP/spill"/ckpt%2F*%2F*.spill >/dev/null 2>&1; do sleep 0.05; done
    : > "$TMP/saw-delta"
) &
WATCH=$!

if ! wait "$CP"; then
    echo "daemon-smoke: control-plane replay failed:" >&2
    tail -5 "$TMP/dist.log" "$TMP/n1.log" "$TMP/n2.log" >&2
    CP=""
    exit 1
fi
CP=""

# Graceful shutdown path: SIGTERM must exit 0 after closing the listener.
kill -TERM "$N1" "$N2"
wait "$N1" || { echo "daemon-smoke: node 1 did not exit cleanly" >&2; exit 1; }
wait "$N2" || { echo "daemon-smoke: node 2 did not exit cleanly" >&2; exit 1; }
N1=""; N2=""

if ! [ -s "$REF" ]; then
    echo "daemon-smoke: reference replay emitted no alarms" >&2
    exit 1
fi
if ! cmp "$REF" "$DIST"; then
    echo "daemon-smoke: alarm logs differ between 1-process and 2-node replay" >&2
    exit 1
fi

# Each month's line attributes that month's alarms in both runs. (PSI is
# left out: a daemon's share is as fresh as its last heartbeat.)
months() {
    sed -n 's/^\(\[month [0-9]*\] alarms=[0-9]*  live P=[0-9.]* R=[0-9.]*\).*/\1/p' "$1"
}
months "$TMP/ref.log" > "$TMP/ref.months"
months "$TMP/dist.log" > "$TMP/dist.months"
if ! [ -s "$TMP/ref.months" ] || ! cmp "$TMP/ref.months" "$TMP/dist.months"; then
    echo "daemon-smoke: month lines differ between 1-process and 2-node replay:" >&2
    diff "$TMP/ref.months" "$TMP/dist.months" >&2 || true
    exit 1
fi

# The journal must have actually truncated behind stored checkpoints, not
# just grown for the whole replay.
JOURNAL=$(grep '^journal:' "$TMP/dist.log" || true)
case "$JOURNAL" in
    *" truncations=0 "*|"")
        echo "daemon-smoke: journal never truncated: ${JOURNAL:-no summary line}" >&2
        exit 1 ;;
esac
if ! ls "$TMP/spill"/ckpt%2F*.spill >/dev/null 2>&1; then
    echo "daemon-smoke: no node checkpoints reached the spill dir" >&2
    exit 1
fi
kill "$WATCH" 2>/dev/null || true
wait "$WATCH" 2>/dev/null || true
WATCH=""
if ! [ -e "$TMP/saw-delta" ] && ! ls "$TMP/spill"/ckpt%2F*%2F*.spill >/dev/null 2>&1; then
    echo "daemon-smoke: no checkpoint delta reached the spill dir" >&2
    exit 1
fi
echo "daemon-smoke: $(wc -l < "$REF" | tr -d ' ') alarms byte-identical across in-process and 2-node replay ($JOURNAL)"
