package cc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSyncRing(t *testing.T) {
	// Every node sends its ID to its successor; checks delivery, sender
	// stamping and round accounting.
	const n = 16
	got := make([]int64, n)
	stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		succ := int32((nd.ID + 1) % nd.N)
		in := nd.Sync([]Packet{{Dst: succ, M: Msg{A: int64(nd.ID)}}})
		if len(in) != 1 {
			return fmt.Errorf("node %d: got %d messages, want 1", nd.ID, len(in))
		}
		if want := int32((nd.ID + n - 1) % n); in[0].Src != want {
			return fmt.Errorf("node %d: src=%d, want %d", nd.ID, in[0].Src, want)
		}
		got[nd.ID] = in[0].A
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if got[v] != int64((v+n-1)%n) {
			t.Errorf("node %d received %d, want %d", v, got[v], (v+n-1)%n)
		}
	}
	if stats.SimRounds != 1 {
		t.Errorf("SimRounds=%d, want 1", stats.SimRounds)
	}
	if stats.Messages != n {
		t.Errorf("Messages=%d, want %d", stats.Messages, n)
	}
}

func TestSyncInboxSortedBySender(t *testing.T) {
	const n = 12
	stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		// Everyone sends to node 0.
		var out []Packet
		if nd.ID != 0 {
			out = []Packet{{Dst: 0, M: Msg{A: int64(nd.ID)}}}
		}
		in := nd.Sync(out)
		if nd.ID != 0 {
			return nil
		}
		if len(in) != n-1 {
			return fmt.Errorf("inbox size %d, want %d", len(in), n-1)
		}
		for i := 1; i < len(in); i++ {
			if in[i-1].Src >= in[i].Src {
				return fmt.Errorf("inbox not sorted by sender: %d >= %d", in[i-1].Src, in[i].Src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRounds() != 1 {
		t.Errorf("TotalRounds=%d, want 1", stats.TotalRounds())
	}
}

func TestSyncLinkCapacityViolation(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4}, func(nd *Node) error {
		out := []Packet{{Dst: 1, M: Msg{A: 1}}, {Dst: 1, M: Msg{A: 2}}}
		nd.Sync(out)
		return nil
	})
	if err == nil {
		t.Fatal("want error for two messages on one link in one round")
	}
	if !strings.Contains(err.Error(), "link capacity") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSyncInvalidDestination(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4}, func(nd *Node) error {
		nd.Sync([]Packet{{Dst: 99, M: Msg{}}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid destination") {
		t.Fatalf("want invalid destination error, got %v", err)
	}
}

func TestBroadcastVal(t *testing.T) {
	const n = 10
	stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		vals := nd.BroadcastVal(int64(nd.ID * nd.ID))
		for v := 0; v < n; v++ {
			if vals[v] != int64(v*v) {
				return fmt.Errorf("vals[%d]=%d, want %d", v, vals[v], v*v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimRounds != 1 {
		t.Errorf("SimRounds=%d, want 1", stats.SimRounds)
	}
	if want := int64(n * (n - 1)); stats.Messages != want {
		t.Errorf("Messages=%d, want %d", stats.Messages, want)
	}
}

func TestRouteBalancedChargesConstant(t *testing.T) {
	// Each node sends exactly n messages (one per node): maxSend = n,
	// maxRecv = n, so the charge must be 1+1 = 2 rounds regardless of n.
	for _, n := range []int{4, 16, 64} {
		stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
			out := make([]Packet, n)
			for i := range out {
				out[i] = Packet{Dst: int32(i), M: Msg{A: int64(nd.ID), B: int64(i)}}
			}
			in := nd.Route(out)
			if len(in) != n {
				return fmt.Errorf("node %d received %d, want %d", nd.ID, len(in), n)
			}
			for i, m := range in {
				if m.Src != int32(i) || m.A != int64(i) || m.B != int64(nd.ID) {
					return fmt.Errorf("node %d msg %d corrupted: %+v", nd.ID, i, m)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := stats.Charged["route"]; got != 2 {
			t.Errorf("n=%d: route charge=%d, want 2", n, got)
		}
		if stats.SimRounds != 0 {
			t.Errorf("n=%d: SimRounds=%d, want 0", n, stats.SimRounds)
		}
	}
}

func TestRouteOverloadedChargesProportionally(t *testing.T) {
	// One node sends 3n messages to a single destination: maxSend = 3n and
	// maxRecv = 3n, so the charge is 3+3 = 6.
	const n = 8
	stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		var out []Packet
		if nd.ID == 0 {
			out = make([]Packet, 3*n)
			for i := range out {
				out[i] = Packet{Dst: 1, M: Msg{A: int64(i)}}
			}
		}
		in := nd.Route(out)
		if nd.ID == 1 {
			if len(in) != 3*n {
				return fmt.Errorf("received %d, want %d", len(in), 3*n)
			}
			// Delivery order within one sender preserves submission order.
			for i, m := range in {
				if m.A != int64(i) {
					return fmt.Errorf("msg %d out of order: %+v", i, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Charged["route"]; got != 6 {
		t.Errorf("route charge=%d, want 6", got)
	}
}

func TestRouteEmptyIsFree(t *testing.T) {
	stats, err := Run(context.Background(), Config{N: 4}, func(nd *Node) error {
		if in := nd.Route(nil); len(in) != 0 {
			return fmt.Errorf("unexpected messages: %d", len(in))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRounds() != 0 {
		t.Errorf("TotalRounds=%d, want 0", stats.TotalRounds())
	}
}

func TestSortGlobalOrderAndRanks(t *testing.T) {
	const n = 8
	// Node v submits keys {v, v+n, v+2n, ...}: globally the sorted order is
	// 0..n*perNode-1.
	const perNode = 5
	collected := make([][]int64, n)
	starts := make([]int, n)
	_, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		recs := make([]Rec, perNode)
		for i := range recs {
			key := int64(nd.ID + i*n)
			recs[i] = Rec{Key: key, M: Msg{A: key * 10}}
		}
		res := nd.Sort(recs)
		keys := make([]int64, len(res.Recs))
		for i, r := range res.Recs {
			if r.M.A != r.Key*10 {
				return fmt.Errorf("payload lost: key=%d payload=%d", r.Key, r.M.A)
			}
			keys[i] = r.Key
		}
		collected[nd.ID] = keys
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
		all = append(all, collected[v]...)
	}
	if len(all) != n*perNode {
		t.Fatalf("total records %d, want %d", len(all), n*perNode)
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("global order not sorted")
	}
	for i, k := range all {
		if k != int64(i) {
			t.Fatalf("rank %d holds key %d", i, k)
		}
	}
}

func TestSortStableTieBreakBySender(t *testing.T) {
	const n = 6
	res := make([][]Rec, n)
	_, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
		// All keys equal: order must be by (sender, index).
		recs := []Rec{{Key: 7, M: Msg{A: int64(nd.ID * 2)}}, {Key: 7, M: Msg{A: int64(nd.ID*2 + 1)}}}
		r := nd.Sort(recs)
		res[nd.ID] = r.Recs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var payloads []int64
	for v := 0; v < n; v++ {
		for _, r := range res[v] {
			payloads = append(payloads, r.M.A)
		}
	}
	for i, p := range payloads {
		if p != int64(i) {
			t.Fatalf("tie-break violated at rank %d: payload %d", i, p)
		}
	}
}

func TestChargeAccumulatesByTag(t *testing.T) {
	stats, err := Run(context.Background(), Config{N: 4}, func(nd *Node) error {
		nd.Charge("hitting-set", 27)
		nd.Charge("hitting-set", 27)
		nd.Charge("misc", 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Charged["hitting-set"]; got != 54 {
		t.Errorf("hitting-set=%d, want 54", got)
	}
	if got := stats.Charged["misc"]; got != 1 {
		t.Errorf("misc=%d, want 1", got)
	}
	if stats.TotalRounds() != 55 {
		t.Errorf("TotalRounds=%d, want 55", stats.TotalRounds())
	}
}

func TestMismatchedCollectivesFail(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 2}, func(nd *Node) error {
		if nd.ID == 0 {
			nd.Sync(nil)
		} else {
			nd.BroadcastVal(0)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mismatched collectives") {
		t.Fatalf("want mismatched collectives error, got %v", err)
	}
}

func TestMismatchedChargeFails(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 2}, func(nd *Node) error {
		nd.Charge("x", nd.ID+1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mismatched charge") {
		t.Fatalf("want mismatched charge error, got %v", err)
	}
}

func TestNodeErrorAbortsRun(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := Run(context.Background(), Config{N: 8}, func(nd *Node) error {
		if nd.ID == 3 {
			return wantErr
		}
		// Other nodes block in a collective; they must be released.
		nd.Sync(nil)
		nd.Sync(nil)
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, wantErr) && !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should carry the node failure: %v", err)
	}
}

func TestNodePanicBecomesError(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4}, func(nd *Node) error {
		if nd.ID == 2 {
			panic("kaboom")
		}
		nd.Sync(nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
}

func TestEarlyExitDuringCollectiveFails(t *testing.T) {
	// Whichever order the requests arrive in, a collective involving
	// fewer than all nodes is a protocol violation.
	for i := 0; i < 20; i++ {
		_, err := Run(context.Background(), Config{N: 3}, func(nd *Node) error {
			if nd.ID == 0 {
				return nil // exits while peers enter a collective
			}
			nd.Sync(nil)
			return nil
		})
		if err == nil || (!strings.Contains(err.Error(), "exited while") && !strings.Contains(err.Error(), "after")) {
			t.Fatalf("want early-exit protocol error, got %v", err)
		}
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 2, MaxRounds: 10}, func(nd *Node) error {
		for {
			nd.Sync(nil)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "round budget exceeded") {
		t.Fatalf("want round budget error, got %v", err)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{N: 0}, func(*Node) error { return nil }); err == nil {
		t.Fatal("want error for N=0")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, [][]int64) {
		const n = 10
		out := make([][]int64, n)
		stats, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
			r := rand.New(rand.NewSource(42 + int64(nd.ID)))
			var pkts []Packet
			for i := 0; i < n; i++ {
				pkts = append(pkts, Packet{Dst: int32(i), M: Msg{A: r.Int63n(1000)}})
			}
			in := nd.Route(pkts)
			for _, m := range in {
				out[nd.ID] = append(out[nd.ID], m.A)
			}
			vals := nd.BroadcastVal(out[nd.ID][0])
			out[nd.ID] = append(out[nd.ID], vals...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, out
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1.String() != s2.String() {
		t.Errorf("stats differ: %v vs %v", s1.String(), s2.String())
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Error("outputs differ between identical runs")
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{N: 4, SimRounds: 3, Messages: 10, Charged: map[string]int{"route": 2}}
	b := Stats{N: 4, SimRounds: 1, Messages: 5, Charged: map[string]int{"route": 4, "sort": 3}}
	a.Add(&b)
	if a.SimRounds != 4 || a.Messages != 15 {
		t.Errorf("bad sums: %+v", a)
	}
	if a.Charged["route"] != 6 || a.Charged["sort"] != 3 {
		t.Errorf("bad charged: %+v", a.Charged)
	}
	if a.TotalRounds() != 13 {
		t.Errorf("TotalRounds=%d, want 13", a.TotalRounds())
	}
	if s := a.String(); !strings.Contains(s, "route=6") || !strings.Contains(s, "sort=3") {
		t.Errorf("String misses charges: %s", s)
	}
	var zero Stats
	zero.Add(nil) // must not panic
}

// TestSortPropertyRandom is a property-based check: for random multisets
// spread over nodes, the concatenated batches are the sorted global multiset.
func TestSortPropertyRandom(t *testing.T) {
	prop := func(raw []int16, nRaw uint8) bool {
		n := int(nRaw)%7 + 2
		keys := make([]int64, len(raw))
		for i, k := range raw {
			keys[i] = int64(k)
		}
		batches := make([][]int64, n)
		_, err := Run(context.Background(), Config{N: n}, func(nd *Node) error {
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
