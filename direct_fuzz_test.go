package ccsp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/stretch"
)

// FuzzDirectVsSimulated fuzzes the differential oracle: an arbitrary
// byte string decodes to a small graph, a stretch setting, and one query,
// and the direct-mode answer must equal the simulated-mode answer exactly
// - including which calls fail (validation is mode-independent) - and
// hold to the bound its kind promises (checkBound). The committed corpus
// under testdata/fuzz covers every kind; the CI fuzz smoke mutates from
// there.
func FuzzDirectVsSimulated(f *testing.F) {
	f.Add([]byte{8, 0, 0, 1, 2, 0, 1, 3, 1, 2, 5, 2, 3, 1, 0, 4, 7})
	f.Add([]byte{5, 1, 3, 0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1})
	f.Add([]byte{9, 2, 5, 1, 4, 0, 8, 2, 1, 7, 6, 3, 4, 9, 5, 6, 2, 0, 3, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 2 + int(data[0])%9 // 2..10 nodes
		eps := []float64{0.25, 0.5, 1.0}[int(data[1])%3]
		kinds := api.Kinds()
		kind := kinds[int(data[2])%len(kinds)]
		unweighted := data[3]&1 == 1
		pick := int(data[4])

		gr := NewGraph(n)
		for i := 5; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			w := int64(data[i+2])%8 + 1
			if unweighted {
				w = 1
			}
			gr.MustAddEdge(u, v, w)
		}

		req := api.Request{Kind: kind}
		switch kind {
		case api.KindSSSP:
			req.SSSP = &api.SSSPParams{Source: pick % n}
		case api.KindMSSP:
			req.MSSP = &api.MSSPParams{Sources: []int{pick % n, (pick / 2) % n}}
		case api.KindAPSP:
			variants := []api.APSPVariant{api.APSPAuto, api.APSPWeighted, api.APSPWeighted3, api.APSPUnweighted}
			req.APSP = &api.APSPParams{Variant: variants[pick%len(variants)]}
		case api.KindDistance:
			req.Distance = &api.DistanceParams{From: pick % n, To: (pick / 3) % n}
		case api.KindKNearest:
			req.KNearest = &api.KNearestParams{K: pick%n + 1}
		case api.KindSourceDetection:
			req.SourceDetection = &api.SourceDetectionParams{Sources: []int{pick % n}, D: pick%4 + 1, K: pick%3 + 1}
		}

		ctx := context.Background()
		sim, err := newEngine(gr, Options{Epsilon: eps})
		if err != nil {
			t.Fatalf("simulated newEngine: %v", err)
		}
		dir, err := newEngine(gr, Options{Epsilon: eps, Execution: ExecDirect})
		if err != nil {
			t.Fatalf("direct newEngine: %v", err)
		}
		simResp, simErr := sim.Query(ctx, req)
		dirResp, dirErr := dir.Query(ctx, req)
		if (simErr == nil) != (dirErr == nil) {
			t.Fatalf("error mismatch for %s: simulated %v, direct %v", kind, simErr, dirErr)
		}
		if simErr != nil {
			return
		}
		simResp.Stats, dirResp.Stats = nil, nil
		if !reflect.DeepEqual(simResp, dirResp) {
			t.Fatalf("answers differ for %s on n=%d:\nsimulated: %+v\ndirect:    %+v", kind, n, simResp, dirResp)
		}
		checkBound(t, gr, eps, dirResp)
	})
}

// checkBound holds an sssp, mssp, distance or apsp answer to the bound of
// its kind - of the variant it names, for apsp - with stretch.Check.
func checkBound(t *testing.T, gr *Graph, eps float64, resp *api.Response) {
	t.Helper()
	var srcs []int
	var est [][]int64
	b := stretch.OnePlus(eps)
	switch resp.Kind {
	case api.KindSSSP:
		srcs, est, b = []int{resp.SSSP.Source}, column(resp.SSSP.Dist), stretch.Exact()
	case api.KindMSSP:
		srcs, est = resp.MSSP.Sources, fromWire(resp.MSSP.Dist)
	case api.KindDistance:
		// One cell of the source's column is answered; the others are
		// exact, so only that cell can break the bound.
		d := resp.Distance
		col := gr.g.Dijkstra(d.From)
		col[d.To] = d.Distance
		srcs, est = []int{d.From}, column(col)
	case api.KindAPSP:
		est = fromWire(resp.APSP.Dist)
		switch {
		case resp.APSP.Variant == api.APSPWeighted:
			b = stretch.TwoPlusW(eps, gr.MaxWeight())
		case resp.APSP.Variant == api.APSPWeighted3:
			b = stretch.ThreePlus(eps)
		case gr.Unweighted():
			b = stretch.TwoPlus(eps)
		default:
			// Theorem 31 needs unit weights; on other graphs its
			// estimates are only upper bounds.
			b = stretch.Factor(math.Inf(1))
		}
	default:
		return
	}
	if err := stretch.Check(gr.g, srcs, est, b).Err(); err != nil {
		t.Fatalf("%s on n=%d: %v", resp.Kind, gr.N(), err)
	}
}

// column is the one-source estimate table of a distance vector in wire
// form.
func column(dist []int64) [][]int64 {
	est := make([][]int64, len(dist))
	for v, d := range dist {
		est[v] = []int64{d}
	}
	return fromWire(est)
}

// fromWire is rows with api.Unreachable read back as Unreachable.
func fromWire(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	for v, row := range rows {
		out[v] = make([]int64, len(row))
		for i, d := range row {
			if d == api.Unreachable {
				d = Unreachable
			}
			out[v][i] = d
		}
	}
	return out
}
