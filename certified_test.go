package ccsp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/mssp"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Certified cells (DESIGN.md §13): a direct MSSP or distance answer comes
// from one lexicographic search per source over G wherever the hop
// certificate proves it equal to the β-hop panel over G ∪ H, and from
// the panel everywhere else (mssp.RunDirect).

// TestDirectCertifiedBoundary pins the certificate's boundary on G ∪ ∅,
// an artifact with no H edges, where a β-hop cell really differs from d_G.
// On the path 0–1–…–(β+1) of unit edges with a chord 0–(β+1) of weight
// β+2, d_G(0, β+1) = β+1 at β+1 hops, while the β-hop panel reads β+2,
// the chord. At β the query must fall back and serve the panel's β+2; at
// β+1 every cell certifies, and the searches serve β+1, which is the
// panel's value there too. Certifying h <= β+1 fails it.
func TestDirectCertifiedBoundary(t *testing.T) {
	ctx := context.Background()
	const beta = 4
	n := beta + 2
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	g.MustAddEdge(0, n-1, beta+2)
	for _, workers := range diffWorkerCounts(t) {
		d := &directExec{g: g, workers: workers}
		w := d.weightMat()
		for _, tc := range []struct {
			beta      int
			certified bool
			far       int64 // the cell between the path's ends
		}{{beta, false, beta + 2}, {beta + 1, true, beta + 1}} {
			ent := &artifactEntry{art: &hopset.Artifact{N: n, Beta: tc.beta, Rows: make([]matrix.Row[semiring.WH], n)}, base: w, gh: w}
			for _, sources := range [][]int{{0}, {n - 1}, {0, n - 1}} {
				inS, err := sourceSet(n, sources)
				if err != nil {
					t.Fatal(err)
				}
				served := 0
				var certified bool
				d.served = func(c bool) { served, certified = served+1, c }
				plane, _, err := d.mssp(ctx, ent, inS)
				if err != nil {
					t.Fatal(err)
				}
				if served != 1 || certified != tc.certified {
					t.Errorf("workers=%d β=%d sources %v: served %d times, certified %v; want once, %v", workers, tc.beta, sources, served, certified, tc.certified)
				}
				q := len(sources)
				if far := plane[(n-1-sources[0])*q]; far != tc.far {
					t.Errorf("workers=%d β=%d sources %v: d(%d, %d) = %d, want %d", workers, tc.beta, sources, n-1-sources[0], sources[0], far, tc.far)
				}
				p, err := mssp.RunDirectPanel(ctx, w, tc.beta, inS, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(plane, p.W) {
					t.Errorf("workers=%d β=%d sources %v: served %v, the panel %v", workers, tc.beta, sources, plane, p.W)
				}
			}
		}
	}
}

// certifiedFamilies are the graph families of TestDirectCertifiedFamilies
// at n = 64, where ε = 1 gives β = 12: holds says whether every cell of
// every answer the test asks certifies (the hop depth of G stays within
// β) or none of them does (a source has a node past β hops).
func certifiedFamilies() []struct {
	name  string
	gr    *Graph
	holds bool
} {
	w := graphgen.Weights{Max: 9}
	return []struct {
		name  string
		gr    *Graph
		holds bool
	}{
		{"connected", &Graph{g: graphgen.Connected(64, 128, w, 1)}, true},
		{"geometric", &Graph{g: graphgen.Geometric(64, 0.3, w, 2)}, true},
		{"preferential", &Graph{g: graphgen.PreferentialAttachment(64, 2, w, 3)}, true},
		{"grid", &Graph{g: graphgen.Grid(8, 8, w, 4)}, false},
		{"cycle", &Graph{g: graphgen.Cycle(64, w, 5)}, false},
		{"path", &Graph{g: graphgen.Path(64, w, 6)}, false},
	}
}

// certifies is the certificate read off graph.DijkstraAug, independently
// of the searches: every node the sources reach has a least (W, H) of at
// most min(β, n) hops.
func certifies(g *graph.Graph, beta int, sources []int) bool {
	for _, s := range sources {
		for _, wh := range g.DijkstraAug(s) {
			if wh != semiring.InfWH && wh.H > int64(max(min(beta, g.N), 1)) {
				return false
			}
		}
	}
	return true
}

// TestDirectCertifiedFamilies is the differential oracle of the certified
// path across graph families: on each, the served MSSP (q = 1 and 8) and
// distance answers are byte-identical to a simulated engine's and equal
// to the β-hop panel's plane, and the test hook reports the path the
// certificate, read off graph.DijkstraAug, says served them - the
// searches on the connected, geometric and preferential-attachment
// families, the panel on the grid, cycle and path.
func TestDirectCertifiedFamilies(t *testing.T) {
	ctx := context.Background()
	for _, fam := range certifiedFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			n := fam.gr.N()
			sim, err := NewEngine(ctx, fam.gr, Options{Epsilon: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range diffWorkerCounts(t) {
				dir, err := NewEngine(ctx, fam.gr, Options{Epsilon: 1, Workers: workers, Execution: ExecDirect})
				if err != nil {
					t.Fatal(err)
				}
				ent, err := dir.artifact(ctx, dir.baseKey())
				if err != nil {
					t.Fatal(err)
				}
				var served []bool
				dir.exec.(*directExec).served = func(c bool) { served = append(served, c) }
				// expect asserts that the queries since the last call were
				// served by the path the certificate names for sources.
				expect := func(what string, sources []int) {
					t.Helper()
					want := certifies(fam.gr.g, ent.art.Beta, sources)
					if want != fam.holds {
						t.Fatalf("workers=%d %s: the certificate reads %v on a family where it should read %v", workers, what, want, fam.holds)
					}
					if len(served) == 0 {
						t.Errorf("workers=%d %s: the hook heard no query", workers, what)
					}
					for _, c := range served {
						if c != want {
							t.Errorf("workers=%d %s: served by certified=%v, want %v", workers, what, served, want)
							break
						}
					}
					served = served[:0]
				}
				// sameAsSim asks both engines req and compares the bytes.
				sameAsSim := func(req api.Request) *api.Response {
					t.Helper()
					simResp, err := sim.Query(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					dirResp, err := dir.Query(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					simJSON, _ := json.Marshal(stripStats(simResp))
					dirJSON, _ := json.Marshal(stripStats(dirResp))
					if !bytes.Equal(simJSON, dirJSON) {
						t.Errorf("workers=%d %v: answers differ\nsimulated: %s\ndirect:    %s", workers, req, simJSON, dirJSON)
					}
					return dirResp
				}
				panel := func(sources []int) []int64 {
					t.Helper()
					inS, err := sourceSet(n, sources)
					if err != nil {
						t.Fatal(err)
					}
					p, err := mssp.RunDirectPanel(ctx, ent.gh, ent.art.Beta, inS, workers)
					if err != nil {
						t.Fatal(err)
					}
					return p.W
				}
				for _, q := range []int{1, 8} {
					sources := spreadSources(n, q)
					sameAsSim(api.MSSP(sources...))
					res, err := dir.MSSP(ctx, sources)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(slices.Concat(res.Dist...), panel(sources)) {
						t.Errorf("workers=%d q=%d: the served plane differs from the panel's", workers, q)
					}
					expect(fmt.Sprintf("mssp q=%d", q), sources)
				}
				for _, pair := range [][2]int{{1, n - 1}, {0, n / 2}, {n - 1, n / 3}} {
					from, to := pair[0], pair[1]
					got := sameAsSim(api.Distance(from, to)).Distance.Distance
					if got == api.Unreachable {
						got = Unreachable
					}
					if want := panel([]int{from})[to]; got != want {
						t.Errorf("workers=%d distance %d→%d: served %d, the panel %d", workers, from, to, got, want)
					}
					expect(fmt.Sprintf("distance %d→%d", from, to), []int{from})
				}
			}
		})
	}
}

// TestDirectCertifiedAllocs pins what a warm certified distance and a
// warm certified q = 8 MSSP allocate, in objects, at their measured
// values: the searches take their state and their plane from pools, and
// the pass's closures live in that state, so a query allocates no closure
// or slice per source. The panel they replace allocated 20 and 22.
func TestDirectCertifiedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the search state is not reliably warm")
	}
	onePNoGC(t)
	ctx := context.Background()
	const n = 1024
	eng, err := NewEngine(ctx, testGraph(n, 3*n, 10, n), Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	eng.exec.(*directExec).served = func(c bool) {
		if !c {
			t.Fatal("the panel served a query on a graph where every cell certifies")
		}
		served++
	}
	for _, tc := range []struct {
		req  api.Request
		want float64
	}{{api.Distance(1, n/2+3), 12}, {api.MSSP(spreadSources(n, 8)...), 14}} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := eng.Query(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: a warm query allocates %v objects, want <= %v", tc.req.Kind, got, tc.want)
		}
	}
	if served == 0 {
		t.Fatal("no query reached the executor")
	}
}
