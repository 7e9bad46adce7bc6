#!/usr/bin/env bash
# End-to-end smoke test of the sharded serving tier (run by CI, runnable
# locally): snapshot three graphs, place them onto a 3-replica cluster
# with ccring (owner-only, plus one graph replicated to its ring
# successor), serve each shard's snapshots with a multi-graph ccspd, and
# assert that cluster-routed answers equal single-engine answers for
# every request kind - including after one replica is SIGKILLed, where
# the replicated graph fails over and the dead replica's exclusive
# graphs return typed "unavailable" errors.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

members="http://127.0.0.1:9161,http://127.0.0.1:9162,http://127.0.0.1:9163"
graphs="alpha beta gamma delta"

go build -o "$tmp/ccsp" ./cmd/ccsp
go build -o "$tmp/ccspd" ./cmd/ccspd
go build -o "$tmp/ccring" ./cmd/ccring

echo "== build one snapshot per graph (distinct sizes and weights)"
awk 'BEGIN { n=8;  for (v=0; v<n; v++) { print v, (v+1)%n, 1+v%5 }; print 0,4,9; print 1,5,2 }' > "$tmp/alpha.txt"
awk 'BEGIN { n=10; for (v=0; v<n; v++) { print v, (v+1)%n, 2+v%3 }; print 0,5,1; print 2,7,4 }' > "$tmp/beta.txt"
awk 'BEGIN { n=12; for (v=0; v<n; v++) { print v, (v+1)%n, 1+v%7 }; print 0,6,3; print 3,9,2 }' > "$tmp/gamma.txt"
awk 'BEGIN { n=9;  for (v=0; v<n; v++) { print v, (v+1)%n, 3 };      print 0,4,1; print 2,6,5 }' > "$tmp/delta.txt"
for g in $graphs; do
  "$tmp/ccsp" -graph "$tmp/$g.txt" -save "$tmp/$g.snap" -algo diameter -quiet > /dev/null
done

echo "== place graphs with ccring (alpha gets a failover copy on its successor)"
"$tmp/ccring" -members "$members" $graphs | tee "$tmp/placement.txt"
mkdir -p "$tmp/shard1" "$tmp/shard2" "$tmp/shard3"
shard_dir() {
  case "$1" in
    *9161) echo "$tmp/shard1" ;;
    *9162) echo "$tmp/shard2" ;;
    *9163) echo "$tmp/shard3" ;;
    *) echo "unknown member $1" >&2; exit 1 ;;
  esac
}
while read -r g owner; do
  cp "$tmp/$g.snap" "$(shard_dir "$owner")/$g.snap"
done < "$tmp/placement.txt"
# alpha's owner and first successor both hold it: k=2 redundancy.
read -r _ alpha_owner alpha_succ < <("$tmp/ccring" -members "$members" -succ 2 alpha)
cp "$tmp/alpha.snap" "$(shard_dir "$alpha_succ")/alpha.snap"

echo "== start the 3 replicas (multi-graph, -graphs dir)"
i=1
for port in 9161 9162 9163; do
  "$tmp/ccspd" -graphs "$tmp/shard$i" -addr "127.0.0.1:$port" &
  pids+=($!)
  i=$((i+1))
done
for port in 9161 9162 9163; do
  for _ in $(seq 50); do
    curl -fs "http://127.0.0.1:$port/readyz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fs "http://127.0.0.1:$port/readyz" | grep -q '"ready": *true'
done
echo "all replicas ready"

echo "== /metrics exposition parses on every replica"
for port in 9161 9162 9163; do
  curl -fs "http://127.0.0.1:$port/metrics" > "$tmp/metrics.$port.txt"
  ./scripts/promlint.sh "$tmp/metrics.$port.txt"
  grep -q '^ccspd_ready 1$' "$tmp/metrics.$port.txt"
  grep -q '^ccspd_requests_total ' "$tmp/metrics.$port.txt"
done
echo "replica metrics ok (3 replicas linted)"

# Every request kind, answered three ways per graph: a local direct
# engine on the graph file (ccsp -exec direct -batch → Engine.Batch, the
# mode the daemons serve the simulated-built snapshots in), the owner
# daemon directly (-server -graphid), and the routed cluster (-cluster
# -graphid). All three outputs must match byte for byte, stats lines
# included (modulo mode headers/footers).
cat > "$tmp/q.txt" <<'EOF'
mssp 0,2
sssp 1
apsp
apsp3
distance 0 5
diameter
knearest 2
sourcedetect 0,3 4 2
EOF
strip() { grep -v '^preprocess\|^  \|^batch:\|^saved engine' "$1"; }

echo "== cluster answers == owner answers == local engine answers, all kinds"
for g in $graphs; do
  owner=$(awk -v g="$g" '$1 == g { print $2 }' "$tmp/placement.txt")
  "$tmp/ccsp" -exec direct -graph "$tmp/$g.txt" -batch "$tmp/q.txt" > "$tmp/$g.local.out"
  "$tmp/ccsp" -server "$owner" -graphid "$g" -batch "$tmp/q.txt" > "$tmp/$g.owner.out"
  "$tmp/ccsp" -cluster "$members" -graphid "$g" -batch "$tmp/q.txt" > "$tmp/$g.cluster.out"
  strip "$tmp/$g.local.out"   > "$tmp/$g.local.cmp"
  strip "$tmp/$g.owner.out"   > "$tmp/$g.owner.cmp"
  strip "$tmp/$g.cluster.out" > "$tmp/$g.cluster.cmp"
  if ! diff "$tmp/$g.local.cmp" "$tmp/$g.cluster.cmp"; then
    echo "graph $g: cluster answers differ from the local engine"
    exit 1
  fi
  if ! diff "$tmp/$g.owner.cmp" "$tmp/$g.cluster.cmp"; then
    echo "graph $g: cluster answers differ from the owner daemon"
    exit 1
  fi
done
echo "3-way agreement ok ($(echo $graphs | wc -w) graphs x 8 kinds)"

echo "== SIGKILL alpha's owner: failover + typed unavailability"
victim_pid=""
case "$alpha_owner" in
  *9161) victim_pid=${pids[0]} ;;
  *9162) victim_pid=${pids[1]} ;;
  *9163) victim_pid=${pids[2]} ;;
esac
kill -9 "$victim_pid"

# Graphs exclusively on the dead replica must fail with the typed
# unavailable error; everything else keeps answering correctly.
dead_graphs=""
live_graphs=""
for g in $graphs; do
  owner=$(awk -v g="$g" '$1 == g { print $2 }' "$tmp/placement.txt")
  if [ "$owner" = "$alpha_owner" ] && [ "$g" != "alpha" ]; then
    dead_graphs="$dead_graphs $g"
  else
    live_graphs="$live_graphs $g"
  fi
done

# alpha survives via its successor copy; other live graphs via their
# untouched owners - and the answers still equal the local engine's.
for g in $live_graphs; do
  "$tmp/ccsp" -cluster "$members" -graphid "$g" -batch "$tmp/q.txt" > "$tmp/$g.after.out"
  strip "$tmp/$g.after.out" > "$tmp/$g.after.cmp"
  if ! diff "$tmp/$g.local.cmp" "$tmp/$g.after.cmp"; then
    echo "graph $g: answers changed after killing $alpha_owner"
    exit 1
  fi
done
echo "survivor agreement ok (alpha failed over to $alpha_succ)"

for g in $dead_graphs; do
  if "$tmp/ccsp" -cluster "$members" -graphid "$g" -algo diameter 2> "$tmp/$g.err"; then
    echo "graph $g: query succeeded with its only replica dead"
    exit 1
  fi
  grep -q "unavailable" "$tmp/$g.err"
done
if [ -n "$dead_graphs" ]; then
  echo "dead-shard graphs return typed unavailable ok ($dead_graphs )"
else
  echo "note: no graph was exclusive to the killed replica this placement"
fi
echo "SMOKE PASS"
