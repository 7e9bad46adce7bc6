package cc

import (
	"context"
	"fmt"
	"testing"
)

func TestRouteAllowsParallelMessages(t *testing.T) {
	// Unlike Sync, routing may carry several messages between one pair in
	// one invocation (the primitive models multi-round delivery).
	const n = 4
	stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		var out []Packet
		if nd.ID == 0 {
			for i := 0; i < 5; i++ {
				out = append(out, Packet{Dst: 2, M: Msg{A: int64(i)}})
			}
		}
		in := nd.Route(out)
		if nd.ID == 2 && len(in) != 5 {
			return fmt.Errorf("got %d messages, want 5", len(in))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Charged["route"] < 2 {
		t.Errorf("route charge=%d, want >=2", stats.Charged["route"])
	}
}

func TestRouteInvalidDestination(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 2}, func(nd *Node) error {
		nd.Route([]Packet{{Dst: -1}})
		return nil
	})
	if err == nil {
		t.Fatal("want invalid destination error")
	}
}

func TestSortEmpty(t *testing.T) {
	stats, err := Run(context.Background(), Config{N: 3}, func(nd *Node) error {
		res := nd.Sort(nil)
		if len(res.Recs) != 0 || res.Total != 0 {
			return fmt.Errorf("unexpected sort result: %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRounds() != 0 {
		t.Errorf("empty sort charged %d rounds", stats.TotalRounds())
	}
}

func TestSortUnevenInputs(t *testing.T) {
	// One node contributes everything; batches must still partition the
	// global order with correct Start offsets.
	const n = 4
	const total = 10
	got := make([][]int64, n)
	starts := make([]int, n)
	_, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		var recs []Rec
		if nd.ID == 1 {
			for i := total - 1; i >= 0; i-- {
				recs = append(recs, Rec{Key: int64(i)})
			}
		}
		res := nd.Sort(recs)
		keys := make([]int64, len(res.Recs))
		for i, r := range res.Recs {
			keys[i] = r.Key
		}
		got[nd.ID] = keys
		starts[nd.ID] = res.Start
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	for v := 0; v < n; v++ {
		if starts[v] != len(all) {
			t.Errorf("node %d Start=%d, want %d", v, starts[v], len(all))
		}
		all = append(all, got[v]...)
	}
	for i, k := range all {
		if k != int64(i) {
			t.Fatalf("rank %d has key %d", i, k)
		}
	}
}

func TestManySmallRuns(t *testing.T) {
	// Engine lifecycle: many short runs must not leak goroutines or state.
	for i := 0; i < 50; i++ {
		_, err := Run(context.Background(), Config{N: 3}, func(nd *Node) error {
			nd.BroadcastVal(int64(nd.ID))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleNodeClique(t *testing.T) {
	stats, err := Run(context.Background(), Config{N: 1}, func(nd *Node) error {
		vals := nd.BroadcastVal(7)
		if len(vals) != 1 || vals[0] != 7 {
			return fmt.Errorf("bad broadcast: %v", vals)
		}
		if in := nd.Sync(nil); len(in) != 0 {
			return fmt.Errorf("unexpected inbox")
		}
		res := nd.Sort([]Rec{{Key: 3}, {Key: 1}})
		if len(res.Recs) != 2 || res.Recs[0].Key != 1 {
			return fmt.Errorf("bad sort: %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimRounds != 2 {
		t.Errorf("SimRounds=%d, want 2", stats.SimRounds)
	}
}
