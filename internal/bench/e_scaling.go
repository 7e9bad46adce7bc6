package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/congestedclique/ccsp/internal/cc"
)

func init() {
	register(Experiment{ID: "E13", Title: "Engine scaling: sharded collective execution, workers=1 vs workers=P", Run: e13})
}

// scalingWorkload is a collective-heavy synthetic program with the mix of
// the paper's distance-product algorithms: balanced all-to-all routes
// (n messages per node, the Lenzen [43] sweet spot), global sorts of n
// records per node, and broadcast rounds.
func scalingWorkload(rounds int) cc.Program {
	return func(nd *cc.Node) error {
		n := nd.N
		for rep := 0; rep < rounds; rep++ {
			pkts := make([]cc.Packet, n)
			for i := range pkts {
				pkts[i] = cc.Packet{Dst: int32(i), M: cc.Msg{A: int64(nd.ID), B: int64(i ^ rep)}}
			}
			if got := len(nd.Route(pkts)); got != n {
				return fmt.Errorf("node %d: %d routed messages, want %d", nd.ID, got, n)
			}
			recs := make([]cc.Rec, n)
			for i := range recs {
				recs[i] = cc.Rec{Key: int64((nd.ID*53 + i*29 + rep) % 2048), M: cc.Msg{A: int64(i)}}
			}
			nd.Sort(recs)
			nd.BroadcastVal(int64(nd.ID + rep))
		}
		return nil
	}
}

// e13 measures the sharded collectives of internal/cc (DESIGN.md §5): the
// same workload runs on one shard (workers=1) and on P shards (workers=P),
// reporting wall-clock per collective kind and verifying that the
// deterministic statistics are identical.
func e13(c Config) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Engine scaling - wall-clock per collective kind, workers=1 vs workers=P",
		Columns: []string{"n", "workers", "route ms", "sort ms", "bcast ms", "exec ms", "speedup", "stats equal"},
	}
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		p = 2 // still two shards; no speedup on one core
	}
	const rounds = 4
	for _, n := range sizes(c.Scale, []int{64, 128}, []int{256, 512}) {
		var one cc.Stats
		for _, w := range []int{1, p} {
			stats, err := cc.Run(context.Background(), cc.Config{N: n, Workers: w}, scalingWorkload(rounds))
			if err != nil {
				return nil, err
			}
			exec := stats.ExecTime()
			speedup, equal := "-", "-"
			if w == 1 {
				one = stats
			} else {
				speedup = fmt.Sprintf("%.2f", float64(one.ExecTime())/float64(exec))
				equal = fmt.Sprintf("%t", statsEqual(&one, &stats))
			}
			t.Add(n, w,
				ms(stats.CollectiveTime["route"]), ms(stats.CollectiveTime["sort"]), ms(stats.CollectiveTime["broadcast"]),
				ms(exec), speedup, equal)
		}
	}
	t.Note("P=%d (runtime.GOMAXPROCS); speedup = one-shard exec time / P-shard exec time. Single-core hosts show <=1.", p)
	t.Note("'stats equal' asserts rounds, messages and words are byte-identical across worker counts.")
	return t, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statsEqual compares the deterministic fields of two runs (rounds,
// messages, words, per-tag charges), ignoring wall-clock observations.
func statsEqual(a, b *cc.Stats) bool {
	if a.SimRounds != b.SimRounds || a.Messages != b.Messages ||
		a.TotalRounds() != b.TotalRounds() || a.Words() != b.Words() {
		return false
	}
	if len(a.Charged) != len(b.Charged) {
		return false
	}
	for k, v := range a.Charged {
		if b.Charged[k] != v {
			return false
		}
	}
	return true
}
