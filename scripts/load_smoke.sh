#!/usr/bin/env bash
# CI load smoke (runnable locally): serve a small graph with ccspd, run
# ccload against it for ~5s of mixed closed-loop traffic, assert every
# request came back successfully (zero errors of any kind - against a
# healthy daemon even typed errors are bugs), and lint the /metrics
# exposition on both the serving port and the -debug-addr listener.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:8957
dbg=127.0.0.1:8958

awk 'BEGIN { n=16; for (v=0; v<n; v++) print v, (v+1)%n, 1+v%5; print 0,8,9; print 3,11,2 }' > "$tmp/g.txt"

go build -o "$tmp/ccspd" ./cmd/ccspd
go build -o "$tmp/ccload" ./cmd/ccload

"$tmp/ccspd" -graph "$tmp/g.txt" -addr "$addr" -debug-addr "$dbg" &
pid=$!

echo "== 5s mixed closed-loop workload"
"$tmp/ccload" -targets "http://$addr" -duration 5s -concurrency 4 -format json \
  | tee "$tmp/load.json"

# errors_by_code is omitted from the JSON only when the census is empty.
if grep -q '"errors_by_code"' "$tmp/load.json"; then
  echo "load run reported errors against a healthy daemon"
  exit 1
fi
if grep -q '"ok": 0,' "$tmp/load.json"; then
  echo "load run completed zero requests"
  exit 1
fi
echo "workload clean"

echo "== /metrics parses on the serving port and the debug listener"
curl -fs "http://$addr/metrics" > "$tmp/metrics.txt"
./scripts/promlint.sh "$tmp/metrics.txt"
curl -fs "http://$dbg/metrics" | ./scripts/promlint.sh
# The three instrumented layers all surface on one page: serving
# counters, per-endpoint latency histograms, engine query counters.
grep -q '^ccspd_requests_total ' "$tmp/metrics.txt"
grep -q '^ccspd_http_request_seconds_bucket' "$tmp/metrics.txt"
grep -q '^ccsp_engine_queries_total' "$tmp/metrics.txt"
# ...and pprof profiles answer on the debug listener only; the serving
# port exposes nothing about the process (no pprof, no expvar page).
curl -fs "http://$dbg/debug/pprof/cmdline" > /dev/null
for path in /debug/pprof/cmdline /debug/vars; do
  if curl -fs "http://$addr$path" > /dev/null 2>&1; then
    echo "$path must not be mounted on the public serving port"
    exit 1
  fi
done
echo "metrics + pprof placement ok"

kill -TERM "$pid"
wait "$pid"
pid=""
echo "LOAD SMOKE PASS"
