package cc

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/congestedclique/ccsp/internal/pool"
)

// mixedWorkload exercises every collective kind: sync fan-out, broadcast,
// unbalanced routes, a global sort, charges and phase labels. Outputs are
// written to caller-owned per-node slices.
func mixedWorkload(out [][]int64) Program {
	return func(nd *Node) error {
		n := nd.N
		nd.Phase("fanout")
		// Sync: node v sends v*n+i to each destination i except itself.
		pkts := make([]Packet, 0, n-1)
		for i := 0; i < n; i++ {
			if i == nd.ID {
				continue
			}
			pkts = append(pkts, Packet{Dst: int32(i), M: Msg{A: int64(nd.ID*n + i)}})
		}
		for _, m := range nd.Sync(pkts) {
			out[nd.ID] = append(out[nd.ID], m.A)
		}
		// Broadcast one word.
		vals := nd.BroadcastVal(int64(nd.ID) * 7)
		out[nd.ID] = append(out[nd.ID], vals...)
		nd.Phase("shuffle")
		// Route: a skewed all-to-all (node v sends v+1 messages to each of
		// the first few nodes) plus self-addressed messages.
		var rpkts []Packet
		for i := 0; i <= nd.ID%5; i++ {
			for d := 0; d < n; d += 3 {
				rpkts = append(rpkts, Packet{Dst: int32(d), M: Msg{A: int64(nd.ID), B: int64(i), C: int64(d)}})
			}
		}
		for _, m := range nd.Route(rpkts) {
			out[nd.ID] = append(out[nd.ID], m.A, m.B, m.C)
		}
		// Sort: keys interleave across nodes, with deliberate ties.
		recs := make([]Rec, 0, 4)
		for i := 0; i < 4; i++ {
			recs = append(recs, Rec{Key: int64((nd.ID + i) % 9), M: Msg{A: int64(nd.ID*100 + i)}})
		}
		res := nd.Sort(recs)
		out[nd.ID] = append(out[nd.ID], int64(res.Start), int64(res.BatchSize), int64(res.Total))
		for _, r := range res.Recs {
			out[nd.ID] = append(out[nd.ID], r.Key, r.M.A)
		}
		nd.Charge("blackbox", 3)
		return nil
	}
}

// clearTime strips the observational wall-clock map so Stats can be
// compared with reflect.DeepEqual across worker counts.
func clearTime(s Stats) Stats {
	s.CollectiveTime = nil
	return s
}

// TestWorkersProduceIdenticalRuns: for several clique sizes, every worker
// count must yield byte-identical outputs and deterministic statistics -
// the engine's core parallelism contract. The workers=1 reference is the
// same body at one shard; TestEngineMatchesModel checks it against an
// independent sequential model.
func TestWorkersProduceIdenticalRuns(t *testing.T) {
	for _, n := range []int{3, 5, 16, 33, 64} {
		var refStats Stats
		var refOut [][]int64
		for _, w := range []int{1, 2, 3, 4, 8} {
			out := make([][]int64, n)
			stats, err := Run(context.Background(), Config{N: n, Workers: w}, mixedWorkload(out))
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			if w == 1 {
				refStats, refOut = stats, out
				continue
			}
			if !reflect.DeepEqual(clearTime(stats), clearTime(refStats)) {
				t.Errorf("n=%d workers=%d: stats differ from workers=1:\n%+v\nvs\n%+v", n, w, clearTime(stats), clearTime(refStats))
			}
			if !reflect.DeepEqual(out, refOut) {
				t.Errorf("n=%d workers=%d: outputs differ from workers=1", n, w)
			}
		}
	}
}

// TestWorkersIdenticalInHeldPass: a simulated run started while another
// row pass runs takes only its share of the cores - at GOMAXPROCS 4 a
// collective's shards run two at a time instead of four - and still
// yields the outputs and deterministic statistics of the same run
// started alone, at every worker count.
func TestWorkersIdenticalInHeldPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	run := func(n, w int) (Stats, [][]int64) {
		out := make([][]int64, n)
		stats, err := Run(context.Background(), Config{N: n, Workers: w}, mixedWorkload(out))
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", n, w, err)
		}
		return clearTime(stats), out
	}
	for _, n := range []int{5, 33, 64} {
		for _, w := range []int{1, 2, 4} {
			refStats, refOut := run(n, w)
			// A one-row serial pass runs its row on this goroutine and
			// counts as running for as long as the row takes.
			pool.RunRows(1, 1, func() func(int) {
				return func(int) {
					stats, out := run(n, w)
					if !reflect.DeepEqual(stats, refStats) {
						t.Errorf("n=%d workers=%d: stats in a held pass differ from the run alone:\n%+v\nvs\n%+v", n, w, stats, refStats)
					}
					if !reflect.DeepEqual(out, refOut) {
						t.Errorf("n=%d workers=%d: outputs in a held pass differ from the run alone", n, w)
					}
				}
			})
		}
	}
}

// TestParallelSortProperty mirrors TestSortPropertyRandom on a four-shard
// pool: concatenated batches must be the sorted global multiset.
func TestParallelSortProperty(t *testing.T) {
	prop := func(raw []int16, nRaw uint8) bool {
		n := int(nRaw)%7 + 2
		keys := make([]int64, len(raw))
		for i, k := range raw {
			keys[i] = int64(k)
		}
		batches := make([][]int64, n)
		_, err := Run(context.Background(), Config{N: n, Workers: 4}, func(nd *Node) error {
			var recs []Rec
			for i, k := range keys {
				if i%n == nd.ID {
					recs = append(recs, Rec{Key: k})
				}
			}
			res := nd.Sort(recs)
			out := make([]int64, len(res.Recs))
			for i, r := range res.Recs {
				out[i] = r.Key
			}
			batches[nd.ID] = out
			return nil
		})
		if err != nil {
			return false
		}
		var all []int64
		for _, b := range batches {
			all = append(all, b...)
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return reflect.DeepEqual(all, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelValidation: model violations must be caught on a four-shard
// pool with the error text the sequential model (model_test.go) reports.
func TestParallelValidation(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4, Workers: 4}, func(nd *Node) error {
		nd.Sync([]Packet{{Dst: 1, M: Msg{A: 1}}, {Dst: 1, M: Msg{A: 2}}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "link capacity") {
		t.Errorf("want link capacity error, got %v", err)
	}
	_, err = Run(context.Background(), Config{N: 4, Workers: 4}, func(nd *Node) error {
		nd.Sync([]Packet{{Dst: 99}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sent to invalid destination") {
		t.Errorf("want invalid destination error, got %v", err)
	}
	_, err = Run(context.Background(), Config{N: 4, Workers: 4}, func(nd *Node) error {
		nd.Route([]Packet{{Dst: -1}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "routed to invalid destination") {
		t.Errorf("want routed invalid destination error, got %v", err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{N: 4, Workers: -1}, func(*Node) error { return nil }); err == nil {
		t.Fatal("want error for Workers=-1")
	}
}

// TestCollectiveTimeRecorded: the engine must attribute wall-clock time to
// the collective kinds a run actually used.
func TestCollectiveTimeRecorded(t *testing.T) {
	for _, w := range []int{1, 4} {
		stats, err := Run(context.Background(), Config{N: 8, Workers: w}, func(nd *Node) error {
			nd.Sync(nil)
			nd.BroadcastVal(1)
			nd.Route([]Packet{{Dst: int32((nd.ID + 1) % nd.N)}})
			nd.Sort([]Rec{{Key: int64(nd.ID)}})
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for _, kind := range []string{"sync", "broadcast", "route", "sort"} {
			if _, ok := stats.CollectiveTime[kind]; !ok {
				t.Errorf("workers=%d: no CollectiveTime for %q: %v", w, kind, stats.CollectiveTime)
			}
		}
		if stats.ExecTime() <= 0 {
			t.Errorf("workers=%d: ExecTime=%v, want > 0", w, stats.ExecTime())
		}
	}
}

// TestSpans: shard arithmetic must partition [0, n) exactly, with of() the
// inverse of bounds().
func TestSpans(t *testing.T) {
	for _, n := range []int{1, 2, 5, 7, 16, 100, 101} {
		for _, k := range []int{1, 2, 3, 8, 200} {
			sp := makeSpans(n, k)
			next := 0
			for i := 0; i < sp.k; i++ {
				lo, hi := sp.bounds(i)
				if lo != next {
					t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d", n, k, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d k=%d: shard %d empty-inverted [%d,%d)", n, k, i, lo, hi)
				}
				for x := lo; x < hi; x++ {
					if sp.of(x) != i {
						t.Fatalf("n=%d k=%d: of(%d)=%d, want %d", n, k, x, sp.of(x), i)
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d k=%d: shards cover [0,%d), want [0,%d)", n, k, next, n)
			}
		}
	}
}

// engineStress is the benchmark workload: R route rounds with n messages
// per node, plus a global sort of n records per node, plus broadcasts -
// the collective mix of the paper's distance-product algorithms.
func engineStress(rounds int) Program {
	return func(nd *Node) error {
		n := nd.N
		for rep := 0; rep < rounds; rep++ {
			pkts := make([]Packet, n)
			for i := range pkts {
				pkts[i] = Packet{Dst: int32(i), M: Msg{A: int64(nd.ID ^ rep), B: int64(i)}}
			}
			if got := len(nd.Route(pkts)); got != n {
				return fmt.Errorf("node %d: %d messages, want %d", nd.ID, got, n)
			}
			recs := make([]Rec, n)
			for i := range recs {
				recs[i] = Rec{Key: int64((nd.ID*31 + i*17 + rep) % 1024), M: Msg{A: int64(i)}}
			}
			nd.Sort(recs)
			nd.BroadcastVal(int64(nd.ID))
		}
		return nil
	}
}

// BenchmarkEngineParallel measures the worker pool's wall-clock speedup on
// a collective-heavy workload at n>=256. On multicore hardware workers=P
// should be >=2x faster than workers=1; Stats are identical in both (the
// sub-benchmarks verify this). Single-core machines show parity.
func BenchmarkEngineParallel(b *testing.B) {
	const n = 256
	const rounds = 4
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			var ref string
			for i := 0; i < b.N; i++ {
				stats, err := Run(context.Background(), Config{N: n, Workers: w}, engineStress(rounds))
				if err != nil {
					b.Fatal(err)
				}
				if ref == "" {
					ref = stats.String()
				} else if got := stats.String(); got != ref {
					b.Fatalf("stats changed between runs: %s vs %s", got, ref)
				}
			}
		})
	}
}
