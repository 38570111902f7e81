#!/usr/bin/env bash
# Smoke for tools/optdm_loadgen, run by ctest (optdm_loadgen_smoke) and
# CI: boot an optdm_served daemon on an ephemeral port, drive a short
# 4-connection warm run through the load generator, and pin the gate —
#   * the loadgen exits 0 (no request errors),
#   * warm-phase RPS is reported and nonzero,
#   * every connection received byte-identical schedule bytes
#     (schedule-bytes-identical 1),
#   * the daemon shuts down cleanly afterwards.
#
# Usage: loadgen_smoke.sh <optdm_served> <optdm_loadgen>
set -euo pipefail

SERVED=$1
LOADGEN=$2

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

# Exit status is itself a gate: nonzero on any request error or a
# byte-identity violation.
"$LOADGEN" --connect="$addr" --connections=4 --requests=25 --patterns=4 \
  --mix=mixed > "$workdir/loadgen.txt"
cat "$workdir/loadgen.txt"

rps=$(sed -n 's/^warm-rps //p' "$workdir/loadgen.txt")
awk -v r="$rps" 'BEGIN { exit (r > 0) ? 0 : 1 }' \
  || { echo "FAIL: warm-rps not positive: '$rps'" >&2; exit 1; }

grep -q '^schedule-bytes-identical 1$' "$workdir/loadgen.txt" \
  || { echo "FAIL: schedule bytes differ across connections" >&2; exit 1; }

grep -q '^errors 0$' "$workdir/loadgen.txt" \
  || { echo "FAIL: loadgen reported request errors" >&2; exit 1; }

"$SERVED" --shutdown="$addr" | grep -q "acknowledged shutdown"
wait "$pid"
pid=""
grep -q "optdm_served: shutdown complete" "$workdir/served.out"

echo "optdm_loadgen smoke OK (port $port, warm rps $rps)"
