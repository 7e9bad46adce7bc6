#!/usr/bin/env bash
# End-to-end smoke test of the snapshot + serving pipeline (run by CI,
# runnable locally): build a graph, answer an MSSP query with the one-shot
# CLI, persist the engine as a (simulated-built) snapshot, serve it with
# ccspd - which serves every snapshot with the direct kernels - and assert
# the daemon's distance answers (POST /v1/query) match the CLI's distances
# exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
pid2=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:8947

# q ADDR BODY: POST one api.Request to the daemon's /v1/query and print the
# response on one line.
q() { curl -fs "http://$1/v1/query" -d "$2" | tr -d ' \n'; }
# dist ADDR FROM TO: the distance the daemon answers for one pair.
dist() {
  q "$1" "{\"kind\":\"distance\",\"distance\":{\"from\":$2,\"to\":$3}}" \
    | grep -o '"distance":-\?[0-9][0-9]*' | cut -d: -f2
}

cat > "$tmp/g.txt" <<'EOF'
# smoke graph: a weighted ring with chords
0 1 2
1 2 3
2 3 1
3 4 4
4 5 2
5 6 5
6 7 1
7 0 3
0 4 9
1 5 2
2 6 7
EOF

go build -o "$tmp/ccsp" ./cmd/ccsp
go build -o "$tmp/ccspd" ./cmd/ccspd

echo "== one-shot CLI MSSP from node 0 (and snapshot save)"
"$tmp/ccsp" -graph "$tmp/g.txt" -algo mssp -sources 0 -save "$tmp/warm.snap" | tee "$tmp/cli.out"
test -s "$tmp/warm.snap"

echo "== serving the snapshot (built simulated, served direct)"
"$tmp/ccspd" -load "$tmp/warm.snap" -addr "$addr" &
pid=$!

for _ in $(seq 50); do
  curl -fs "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "http://$addr/healthz" | grep -q '"status": *"ok"'
echo "healthz ok"

# Every node's distance-to-0 from the daemon must equal the CLI's MSSP
# column: both run the same Theorem 3 query over the same artifact, the
# CLI in the simulator and the daemon in the direct kernels, so this is
# the simulated == direct differential end to end over the serving stack.
fail=0
for v in 0 1 2 3 4 5 6 7; do
  cli=$(awk -v v="$v" '$1 == v { print $2 }' "$tmp/cli.out")
  http=$(dist "$addr" 0 "$v")
  if [ "$cli" != "$http" ]; then
    echo "MISMATCH node $v: cli=$cli http=$http"
    fail=1
  fi
done
[ "$fail" = 0 ]
echo "distance agreement ok (8 pairs)"
# Distances cannot tell the modes apart; stats can: the daemon loaded
# the simulated-built snapshot into the direct executor.
q "$addr" '{"kind":"distance","distance":{"from":0,"to":5}}' | grep -q '"total_rounds":0[,}]'
echo "served direct ok (total_rounds 0)"

q "$addr" '{"kind":"diameter"}' | grep -q '"estimate"'
curl -fs "http://$addr/v1/stats" | grep -q '"preprocess"'
echo "diameter + stats ok"

echo "== typed query plane: POST /v1/query + mixed /v1/batch"
q "$addr" '{"kind":"distance","distance":{"from":0,"to":5}}' | grep -q '"kind":"distance"'
curl -fs "http://$addr/v1/batch" -d '{"requests":[{"kind":"diameter"},{"kind":"sssp","sssp":{"source":0}}]}' \
  | grep -q '"responses"'
echo "query plane endpoints ok"

# A mixed batch over every algorithm family, answered three ways: the
# local engine batch (ccsp -load -batch → Engine.Batch, on a direct-built
# copy of the graph's snapshot, because the daemon answers direct), the
# remote batch (ccsp -server -batch → one POST /v1/batch), and - for the
# MSSP member - the sequential (simulated) CLI answers from the top of
# this script. All three must agree exactly.
cat > "$tmp/q.txt" <<'EOF'
mssp 0
sssp 0
diameter
knearest 2
apsp3
sourcedetect 0,3 4 2
distance 0 5
EOF
"$tmp/ccsp" -exec direct -graph "$tmp/g.txt" -save "$tmp/direct.snap" -quiet > /dev/null
"$tmp/ccsp" -load "$tmp/direct.snap" -batch "$tmp/q.txt" > "$tmp/local.out"
"$tmp/ccsp" -server "http://$addr" -batch "$tmp/q.txt" > "$tmp/remote.out"
# Strip the mode-specific headers/footers (preprocess ledger, summary
# line); every per-query answer and stats line must match byte for byte.
grep -v '^preprocess\|^  \|^batch:' "$tmp/local.out" > "$tmp/local.cmp"
grep -v '^batch:' "$tmp/remote.out" > "$tmp/remote.cmp"
if ! diff "$tmp/local.cmp" "$tmp/remote.cmp"; then
  echo "local Engine.Batch and remote /v1/batch outputs differ"
  exit 1
fi
# The batch's "mssp 0" rows equal the sequential CLI's distance rows.
sed -n '/^query "mssp 0"/q;p' "$tmp/remote.out" \
  | awk -F'\t' 'NF>=2 && $1 ~ /^[0-9]+$/' > "$tmp/batch_mssp.txt"
awk -F'\t' 'NF>=2 && $1 ~ /^[0-9]+$/' "$tmp/cli.out" > "$tmp/cli_mssp.txt"
if ! diff "$tmp/batch_mssp.txt" "$tmp/cli_mssp.txt"; then
  echo "batch MSSP answers differ from sequential CLI answers"
  exit 1
fi
echo "mixed batch ok (local == remote == sequential CLI)"

echo "== dynamic update plane: POST /v1/update bumps the epoch and changes answers"
# Reweight the {1,5} chord from 2 to 100: dist(0,5) must leave the
# 4-range answer behind, the epoch must tick 0 -> 1, and the mutated
# daemon must agree with a cold CLI run on the mutated graph - the
# rebuild-equals-cold-build differential, end to end over HTTP.
pre=$(dist "$addr" 0 5)
curl -fs "http://$addr/v1/epoch" | grep -q '"epoch": *0'
curl -fs "http://$addr/v1/update" -d '{"updates":[{"u":1,"v":5,"w":100}]}' \
  | grep -q '"epoch": *1'
curl -fs "http://$addr/v1/epoch" | grep -q '"epoch": *1'
post=$(dist "$addr" 0 5)
if [ "$pre" = "$post" ]; then
  echo "dist(0,5) unchanged ($pre) after reweighting its shortest path"
  exit 1
fi
sed 's/^1 5 2$/1 5 100/' "$tmp/g.txt" > "$tmp/g2.txt"
"$tmp/ccsp" -graph "$tmp/g2.txt" -algo mssp -sources 0 > "$tmp/cli2.out"
fail=0
for v in 0 1 2 3 4 5 6 7; do
  cli=$(awk -v v="$v" '$1 == v { print $2 }' "$tmp/cli2.out")
  http=$(dist "$addr" 0 "$v")
  if [ "$cli" != "$http" ]; then
    echo "UPDATE MISMATCH node $v: cold-cli=$cli mutated-daemon=$http"
    fail=1
  fi
done
[ "$fail" = 0 ]
echo "update differential ok (epoch 1, rebuilt == cold build, 8 pairs)"

# The CLI's -update flag drives the same endpoint: delete the {0,7}
# edge through it and the epoch ticks again.
"$tmp/ccsp" -server "http://$addr" -update "0,7,-1" > "$tmp/upd.out"
grep -q 'epoch 2' "$tmp/upd.out"
curl -fs "http://$addr/v1/epoch" | grep -q '"epoch": *2'
post2=$(dist "$addr" 0 7)
if [ "$post2" = "3" ]; then
  echo "dist(0,7) still 3 after deleting the direct edge"
  exit 1
fi
echo "ccsp -update ok (epoch 2, deletion visible)"

kill -TERM "$pid"
wait "$pid"
pid=""
echo "graceful shutdown ok"

# ring_graph N: a weighted ring with chords v -> 7v+3, N nodes.
ring_graph() {
  awk -v n="$1" 'BEGIN {
    for (v = 0; v < n; v++) print v, (v+1)%n, 1+v%7
    for (v = 0; v < n; v++) print v, (v*7+3)%n, 1+v%5
  }'
}

echo "== overload: concurrency >> admission limit sheds typed 503s, health stays green"
# One execution slot, no wait queue, cache off: a 40-way parallel burst
# must shed most requests as typed 503s carrying Retry-After, while
# /healthz (which bypasses admission) answers 200 throughout. The graph
# has n=1024 so that a query holds its slot while the burst arrives: on
# the 8-node smoke graph a direct query returns before the next one
# arrives, and a burst rarely sheds at all.
ring_graph 1024 > "$tmp/over.txt"
addr3=127.0.0.1:8950
"$tmp/ccspd" -graph "$tmp/over.txt" -addr "$addr3" -max-inflight 1 -max-queue=-1 -cache=-1 &
pid2=$!
for _ in $(seq 50); do
  curl -fs "http://$addr3/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "http://$addr3/readyz" | grep -q '"ready": *true'

burst() {
  # shellcheck disable=SC2046
  # -o consumes one URL each, so every URL brings its own /dev/null sink.
  curl -s --no-progress-meter --parallel --parallel-max 40 \
    -d '{"kind":"mssp","mssp":{"sources":[0,1,2,3]}}' \
    -w '%{http_code} %header{retry-after}\n' \
    $(for _ in $(seq 40); do printf -- '-o /dev/null http://%s/v1/query ' "$addr3"; done)
}
got503=0
for attempt in $(seq 5); do
  ( for _ in $(seq 10); do
      curl -s -o /dev/null -w '%{http_code}\n' "http://$addr3/healthz"
    done ) > "$tmp/health_during.txt" &
  health_pid=$!
  burst > "$tmp/burst.txt"
  wait "$health_pid"
  if grep -q '^503' "$tmp/burst.txt"; then
    got503=1
    break
  fi
  echo "burst $attempt: no shed yet, retrying"
done
[ "$got503" = 1 ] || { echo "no 503 in $attempt overload bursts"; exit 1; }
# Nothing but admitted 200s and typed 503s; every 503 carries the hint.
if grep -vq '^200 \|^503 1$' "$tmp/burst.txt"; then
  echo "unexpected status or missing Retry-After in overload burst:"
  grep -v '^200 \|^503 1$' "$tmp/burst.txt"
  exit 1
fi
if grep -vq '^200$' "$tmp/health_during.txt"; then
  echo "/healthz flapped during overload:"
  cat "$tmp/health_during.txt"
  exit 1
fi
# The shed path is typed end to end: body code + counter both say so.
curl -s "http://$addr3/v1/stats" | grep -q '"shed": *[1-9]'
echo "overload ok ($(grep -c '^503' "$tmp/burst.txt") shed of 40, healthz stayed 200)"

kill -TERM "$pid2"
wait "$pid2"
pid2=""

echo "== SIGINT mid-preprocess must not leave a (partial) snapshot"
# A graph large enough that the direct build takes seconds (n=8192: about
# 2 s on 2 cores); the INT is sent as soon as /healthz answers
# "starting", so it lands while the build is in flight. The daemon must
# unwind at the build's next cancellation poll, exit cleanly, say it was
# interrupted during startup (a build that won the race fails here, not
# silently), and never create the -save target (the atomic
# temp-file+rename write only runs after a *completed* build).
ring_graph 8192 > "$tmp/big.txt"
"$tmp/ccspd" -graph "$tmp/big.txt" -save "$tmp/big.snap" -addr 127.0.0.1:8948 2> "$tmp/big.log" &
pid=$!
for _ in $(seq 200); do
  curl -s "http://127.0.0.1:8948/healthz" 2>/dev/null | grep -q '"status": *"starting"' && break
  sleep 0.01
done
kill -INT "$pid"
if ! wait "$pid"; then
  echo "ccspd exited non-zero after SIGINT during preprocess"
  cat "$tmp/big.log"
  exit 1
fi
pid=""
if ! grep -q 'interrupted during startup' "$tmp/big.log"; then
  echo "SIGINT did not land mid-build:"
  cat "$tmp/big.log"
  exit 1
fi
if [ -e "$tmp/big.snap" ]; then
  echo "interrupted preprocess left a snapshot at the -save path"
  exit 1
fi
if ls "$tmp"/.ccsp-snap-* >/dev/null 2>&1; then
  echo "interrupted preprocess left temp snapshot files"
  exit 1
fi
echo "kill-mid-preprocess ok (INT landed mid-build, no partial snapshot)"
echo "SMOKE PASS"
