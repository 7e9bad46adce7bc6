package cc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// The sequential model below is an independent statement of what each
// collective delivers and charges: one pass over the senders in ID order,
// no shards, no pool. The engine's one body per collective is checked
// against it at every worker count (TestEngineMatchesModel), so the
// workers=1 engine is not its own reference.

// modelSync is one synchronous round: at most one message per link, every
// destination in range, inboxes sorted by sender.
func modelSync(n int, out [][]Packet) (inbox [][]Msg, msgs int64, err error) {
	inbox = make([][]Msg, n)
	for v, pkts := range out {
		seen := map[int32]bool{}
		for _, p := range pkts {
			if p.Dst < 0 || int(p.Dst) >= n {
				return nil, 0, fmt.Errorf("cc: node %d sent to invalid destination %d", v, p.Dst)
			}
			if seen[p.Dst] {
				return nil, 0, fmt.Errorf("cc: node %d sent two messages to node %d in one round (link capacity is one message per round)", v, p.Dst)
			}
			seen[p.Dst] = true
			m := p.M
			m.Src = int32(v)
			inbox[p.Dst] = append(inbox[p.Dst], m)
			msgs++
		}
	}
	return inbox, msgs, nil
}

// modelRoute is Lenzen's routing [43]: any message set, charged
// ceil(maxSend/n) + ceil(maxRecv/n) rounds when anything moves.
func modelRoute(n int, out [][]Packet) (inbox [][]Msg, charge int, msgs int64, err error) {
	inbox = make([][]Msg, n)
	maxSend := 0
	for v, pkts := range out {
		maxSend = max(maxSend, len(pkts))
		for _, p := range pkts {
			if p.Dst < 0 || int(p.Dst) >= n {
				return nil, 0, 0, fmt.Errorf("cc: node %d routed to invalid destination %d", v, p.Dst)
			}
			m := p.M
			m.Src = int32(v)
			inbox[p.Dst] = append(inbox[p.Dst], m)
			msgs++
		}
	}
	maxRecv := 0
	for _, in := range inbox {
		maxRecv = max(maxRecv, len(in))
	}
	if msgs > 0 {
		charge = ceilDiv(maxSend, n) + ceilDiv(maxRecv, n)
	}
	return inbox, charge, msgs, nil
}

// modelSort is Lenzen's sorting [43]: the union sorted by (key, sender,
// index), node i holding the i-th batch, charged 3 rounds per
// ceil(maxInput/n) when anything moves.
func modelSort(n int, in [][]Rec) (batches []SortResult, charge int, msgs int64) {
	type item struct {
		rec      Rec
		src, idx int
	}
	var all []item
	maxIn := 0
	for v, recs := range in {
		maxIn = max(maxIn, len(recs))
		for i, r := range recs {
			r.M.Src = int32(v)
			all = append(all, item{r, v, i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.rec.Key != b.rec.Key {
			return a.rec.Key < b.rec.Key
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	total := len(all)
	size := ceilDiv(total, n)
	batches = make([]SortResult, n)
	for v := range batches {
		lo, hi := min(v*size, total), min(v*size+size, total)
		recs := make([]Rec, 0, hi-lo)
		for _, it := range all[lo:hi] {
			recs = append(recs, it.rec)
		}
		batches[v] = SortResult{Recs: recs, Start: lo, BatchSize: size, Total: total}
	}
	if total > 0 {
		charge = 3 * ceilDiv(maxIn, n)
	}
	return batches, charge, int64(total)
}

// modelStep is one collective of a random script: its kind and every
// node's input.
type modelStep struct {
	kind    reqKind
	packets [][]Packet // reqSync, reqRoute
	vals    []int64    // reqBcast
	recs    [][]Rec    // reqSort
}

// modelObs is what one node observed from one collective.
type modelObs struct {
	msgs []Msg
	vals []int64
	sort SortResult
}

// modelRun interprets a script sequentially. It returns every node's
// observations, the statistics, and the first violation (which ends the
// run: the violating collective delivers nothing and is not counted).
func modelRun(n int, script []modelStep) (obs [][]modelObs, stats Stats, err error) {
	obs = make([][]modelObs, n)
	stats = Stats{N: n, Charged: map[string]int{}}
	for _, st := range script {
		switch st.kind {
		case reqSync:
			inbox, msgs, err := modelSync(n, st.packets)
			if err != nil {
				return obs, stats, err
			}
			stats.SimRounds++
			stats.Messages += msgs
			for v := range obs {
				obs[v] = append(obs[v], modelObs{msgs: inbox[v]})
			}
		case reqRoute:
			inbox, charge, msgs, err := modelRoute(n, st.packets)
			if err != nil {
				return obs, stats, err
			}
			if msgs > 0 {
				stats.Charged["route"] += charge
				stats.Messages += msgs
			}
			for v := range obs {
				obs[v] = append(obs[v], modelObs{msgs: inbox[v]})
			}
		case reqBcast:
			stats.SimRounds++
			stats.Messages += int64(n) * int64(n-1)
			for v := range obs {
				obs[v] = append(obs[v], modelObs{vals: st.vals})
			}
		case reqSort:
			batches, charge, msgs := modelSort(n, st.recs)
			if msgs > 0 {
				stats.Charged["sort"] += charge
				stats.Messages += msgs
			}
			for v := range obs {
				obs[v] = append(obs[v], modelObs{sort: batches[v]})
			}
		}
	}
	return obs, stats, nil
}

// engineRun executes the same script on the engine.
func engineRun(n, workers int, script []modelStep) (obs [][]modelObs, stats Stats, err error) {
	obs = make([][]modelObs, n)
	stats, err = Run(context.Background(), Config{N: n, Workers: workers}, func(nd *Node) error {
		for _, st := range script {
			var o modelObs
			switch st.kind {
			case reqSync:
				o.msgs = nd.Sync(st.packets[nd.ID])
			case reqRoute:
				o.msgs = nd.Route(st.packets[nd.ID])
			case reqBcast:
				o.vals = nd.BroadcastVal(st.vals[nd.ID])
			case reqSort:
				o.sort = nd.Sort(st.recs[nd.ID])
			}
			obs[nd.ID] = append(obs[nd.ID], o)
		}
		return nil
	})
	return obs, stats, err
}

// randomScript draws a short collective sequence on n nodes with the cases
// a sharded body can get wrong: empty senders, invalid destinations,
// duplicate links, skewed routes and sort keys tied across senders.
func randomScript(rng *rand.Rand, n int) []modelStep {
	script := make([]modelStep, 1+rng.Intn(5))
	for i := range script {
		st := &script[i]
		switch rng.Intn(4) {
		case 0:
			st.kind = reqSync
			st.packets = make([][]Packet, n)
			for v := range st.packets {
				if rng.Intn(4) == 0 {
					continue // empty sender
				}
				for _, d := range rng.Perm(n)[:rng.Intn(n+1)] {
					st.packets[v] = append(st.packets[v], Packet{Dst: int32(d), M: Msg{Kind: uint8(v), A: rng.Int63n(100)}})
				}
				if k := len(st.packets[v]); k > 0 && rng.Intn(20) == 0 {
					st.packets[v] = append(st.packets[v], st.packets[v][rng.Intn(k)]) // duplicate link
				}
				if rng.Intn(20) == 0 {
					st.packets[v] = append(st.packets[v], Packet{Dst: badDst(rng, n)})
				}
			}
		case 1:
			st.kind = reqRoute
			st.packets = make([][]Packet, n)
			for v := range st.packets {
				cnt := rng.Intn(2*n + 1)
				if rng.Intn(4) == 0 {
					cnt = 0
				}
				hot := int32(rng.Intn(n)) // skew: half the packets to one node
				for j := 0; j < cnt; j++ {
					d := int32(rng.Intn(n))
					if rng.Intn(2) == 0 {
						d = hot
					}
					st.packets[v] = append(st.packets[v], Packet{Dst: d, M: Msg{A: int64(j), B: rng.Int63n(100)}})
				}
				if rng.Intn(20) == 0 {
					st.packets[v] = append(st.packets[v], Packet{Dst: badDst(rng, n)})
				}
			}
		case 2:
			st.kind = reqBcast
			st.vals = make([]int64, n)
			for v := range st.vals {
				st.vals[v] = rng.Int63n(1000) - 500
			}
		case 3:
			st.kind = reqSort
			st.recs = make([][]Rec, n)
			for v := range st.recs {
				cnt := rng.Intn(n + 3)
				if rng.Intn(4) == 0 {
					cnt = 0
				}
				for j := 0; j < cnt; j++ {
					st.recs[v] = append(st.recs[v], Rec{Key: rng.Int63n(4) - 1, M: Msg{A: int64(v*1000 + j)}})
				}
			}
		}
	}
	return script
}

func badDst(rng *rand.Rand, n int) int32 {
	return []int32{-1, int32(n), int32(n + 7)}[rng.Intn(3)]
}

// TestEngineMatchesModel: on random scripts, every worker count delivers
// what the sequential model delivers, charges what it charges and reports
// the same first violation.
func TestEngineMatchesModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		script := randomScript(rng, n)
		wantObs, wantStats, wantErr := modelRun(n, script)
		for _, w := range []int{1, 2, 3, 4, 8} {
			obs, stats, err := engineRun(n, w, script)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Logf("seed=%d n=%d workers=%d: error %v, model %v", seed, n, w, err, wantErr)
				return false
			}
			if stats.SimRounds != wantStats.SimRounds || stats.Messages != wantStats.Messages || !reflect.DeepEqual(stats.Charged, wantStats.Charged) {
				t.Logf("seed=%d n=%d workers=%d: stats %v, model %v", seed, n, w, stats, wantStats)
				return false
			}
			if !reflect.DeepEqual(obs, wantObs) {
				t.Logf("seed=%d n=%d workers=%d: deliveries differ from the model", seed, n, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
