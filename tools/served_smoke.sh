#!/usr/bin/env bash
# Soak-smoke for the optdm_served daemon, run by ctest (optdm_served_smoke)
# and CI: launch a daemon on an ephemeral port, drive it with concurrent
# clients, and pin the service contract end to end —
#   * a cold remote run is byte-identical to the cold local run,
#   * concurrent clients all receive the same schedule bytes,
#   * the second wave hits the shared cache (hit-rate > 0 in --stats),
#   * a shutdown frame stops the daemon cleanly (exit 0, farewell line).
#
# Usage: served_smoke.sh <optdm_served> <optdm_compile> <optdm_sim>
set -euo pipefail

SERVED=$1
COMPILE=$2
SIM=$3

workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# Created before the daemon starts: the poll below reads the file, and a
# background job's redirection may not have created it yet.
: > "$workdir/served.out"
"$SERVED" --listen=0 --workers=4 \
  > "$workdir/served.out" 2> "$workdir/served.err" &
pid=$!

# The daemon prints its kernel-assigned port once the socket is live.
port=""
for _ in $(seq 100); do
  port=$(sed -n \
    's/^optdm_served: listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "$workdir/served.out")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: daemon never announced its port" >&2
  cat "$workdir/served.err" >&2
  exit 1
fi
addr="127.0.0.1:$port"

"$SERVED" --ping="$addr" | grep -q "pong from $addr"

# One API, two transports: the remote run of a cold request is
# byte-identical to the local run of the same request.
"$SIM" --pattern=ring --slots=1 > "$workdir/local.txt"
"$SIM" --pattern=ring --slots=1 --connect="$addr" > "$workdir/remote.txt"
diff "$workdir/local.txt" "$workdir/remote.txt"

# Wave 1: concurrent clients compile the same pattern.  The shared engine
# pays at most one compile; every client gets identical schedule bytes.
clients=()
for i in 1 2 3 4; do
  "$COMPILE" --pattern=transpose --connect="$addr" \
    --out="$workdir/sched.$i.txt" > "$workdir/compile.$i.txt" &
  clients+=("$!")
done
for c in "${clients[@]}"; do
  wait "$c"
done
for i in 2 3 4; do
  diff "$workdir/sched.1.txt" "$workdir/sched.$i.txt"
done

# Wave 2: the same request again must hit the warm shared cache.
"$COMPILE" --pattern=transpose --connect="$addr" > "$workdir/warm.txt"
grep -Eq "cache: +hit \(memory\)" "$workdir/warm.txt"

"$SERVED" --stats="$addr" > "$workdir/stats.txt"
cat "$workdir/stats.txt"
rate=$(sed -n 's/^cache-hit-rate //p' "$workdir/stats.txt")
awk -v r="$rate" 'BEGIN { exit (r > 0) ? 0 : 1 }' \
  || { echo "FAIL: cache-hit-rate not positive: '$rate'" >&2; exit 1; }

# The queue saw at least one job (peak is monotone over the daemon's life).
peak=$(sed -n 's/^queue-peak //p' "$workdir/stats.txt")
[ -n "$peak" ] && [ "$peak" -ge 1 ] \
  || { echo "FAIL: queue-peak not reported or zero: '$peak'" >&2; exit 1; }

# Striped cache accounting: the per-shard hit counters must sum to the
# aggregate hits (memory + disk) — stripes never lose or double-count.
mem_hits=$(sed -n 's/^cache-memory-hits //p' "$workdir/stats.txt")
disk_hits=$(sed -n 's/^cache-disk-hits //p' "$workdir/stats.txt")
shard_sum=$(awk '$1 == "cache-shard-hits" { s += $3 } END { print s + 0 }' \
  "$workdir/stats.txt")
if [ "$shard_sum" -ne $((mem_hits + disk_hits)) ]; then
  echo "FAIL: per-shard hits ($shard_sum) != aggregate hits" \
    "($mem_hits + $disk_hits)" >&2
  exit 1
fi

# Clean shutdown via the protocol, acknowledged before the socket closes.
"$SERVED" --shutdown="$addr" | grep -q "acknowledged shutdown"
wait "$pid"
pid=""
grep -q "optdm_served: shutdown complete" "$workdir/served.out"

echo "optdm_served soak-smoke OK (port $port)"
