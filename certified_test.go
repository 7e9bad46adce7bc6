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

// Certified cells (DESIGN.md §13): every direct β-hop detection - a
// served MSSP or distance, APSP's and diameter's - comes from one
// lexicographic search per source over G wherever the hop certificate
// proves it equal to the β-hop panel over G ∪ H, and from the panel
// everywhere else (clique.Direct.MSSP, mssp.RunDirect).

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
		d := &backend{g: g, opts: Options{Workers: workers, Execution: ExecDirect}}
		w, _ := d.weights()
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
				d.served = func(_ *matrix.Mat[semiring.WH], _ int, _ []bool, c bool) { served, certified = served+1, c }
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
// every MSSP and distance answer the test asks certifies (the hop depth
// of G stays within β) or none of them does (a source has a node past β
// hops). simAll says whether the APSP and diameter answers are held to
// the simulated engine's too, on one family of each kind: the simulator's
// ε/2 builds on G and G′ take seconds, minutes under -race.
func certifiedFamilies() []struct {
	name          string
	gr            *Graph
	holds, simAll bool
} {
	w := graphgen.Weights{Max: 9}
	return []struct {
		name          string
		gr            *Graph
		holds, simAll bool
	}{
		{"connected", &Graph{g: graphgen.Connected(64, 128, w, 1)}, true, true},
		{"geometric", &Graph{g: graphgen.Geometric(64, 0.3, w, 2)}, true, false},
		{"preferential", &Graph{g: graphgen.PreferentialAttachment(64, 2, w, 3)}, true, false},
		{"grid", &Graph{g: graphgen.Grid(8, 8, w, 4)}, false, true},
		{"cycle", &Graph{g: graphgen.Cycle(64, w, 5)}, false, false},
		{"path", &Graph{g: graphgen.Path(64, w, 6)}, false, false},
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

// graphOf is the graph whose augmented weight matrix is w.
func graphOf(w *matrix.Mat[semiring.WH]) *graph.Graph {
	g := graph.New(w.N)
	for v, r := range w.Rows {
		for _, e := range r {
			if int(e.Col) > v {
				g.MustAddEdge(v, int(e.Col), e.Val.W)
			}
		}
	}
	return g
}

// detection is one β-hop detection the test hook heard: the graph and β
// it ran at, its sources, and whether the searches served it.
type detection struct {
	w         *matrix.Mat[semiring.WH]
	beta      int
	sources   []int
	certified bool
}

// TestDirectCertifiedFamilies is the differential oracle of the certified
// path across graph families: on each, the served MSSP (q = 1 and 8) and
// distance answers are byte-identical to a simulated engine's and equal
// to the β-hop panel's plane, and the test hook reports the path the
// certificate, read off graph.DijkstraAug, says served them - the
// searches on the connected, geometric and preferential-attachment
// families, the panel on the grid, cycle and path. Each detection of the
// three APSP variants and the diameter - on G at the ε/2 artifact's β, on
// the unweighted variant's G′ at its own, on G at the base β for the
// diameter - is served by the path the certificate names over that graph
// at that β, and on the connected family and the grid their answers are
// byte-identical to the simulated engine's.
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
			simAnswers := map[string][]byte{}
			for _, workers := range diffWorkerCounts(t) {
				dir, err := NewEngine(ctx, fam.gr, Options{Epsilon: 1, Workers: workers, Execution: ExecDirect})
				if err != nil {
					t.Fatal(err)
				}
				ent, err := dir.artifact(ctx, dir.baseKey())
				if err != nil {
					t.Fatal(err)
				}
				var heard []detection
				dir.exec.served = func(w *matrix.Mat[semiring.WH], beta int, inS []bool, c bool) {
					var sources []int
					for v, in := range inS {
						if in {
							sources = append(sources, v)
						}
					}
					heard = append(heard, detection{w, beta, sources, c})
				}
				// expectEach asserts that the hook heard the given number of
				// detections since the last call, each served by the path the
				// certificate names for its graph, β and sources.
				expectEach := func(what string, detections int) {
					t.Helper()
					if len(heard) != detections {
						t.Errorf("workers=%d %s: the hook heard %d detections, want %d", workers, what, len(heard), detections)
					}
					for i, d := range heard {
						if want := certifies(graphOf(d.w), d.beta, d.sources); d.certified != want {
							t.Errorf("workers=%d %s: detection %d served by certified=%v, the certificate reads %v", workers, what, i, d.certified, want)
						}
					}
					heard = heard[:0]
				}
				// expect asserts that the queries since the last call, from
				// sources, ran one detection each, served by the path the
				// certificate names, and that the certificate reads as the
				// family says it should.
				expect := func(what string, sources []int, queries int) {
					t.Helper()
					if want := certifies(fam.gr.g, ent.art.Beta, sources); want != fam.holds {
						t.Fatalf("workers=%d %s: the certificate reads %v on a family where it should read %v", workers, what, want, fam.holds)
					}
					expectEach(what, queries)
				}
				// sameAsSim asks both engines req and compares the bytes; the
				// simulated engine answers each request once.
				sameAsSim := func(req api.Request) *api.Response {
					t.Helper()
					key := string(req.AppendJSON(nil))
					simJSON, ok := simAnswers[key]
					if !ok {
						simResp, err := sim.Query(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						simJSON, _ = json.Marshal(stripStats(simResp))
						simAnswers[key] = simJSON
					}
					dirResp, err := dir.Query(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
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
					expect(fmt.Sprintf("mssp q=%d", q), sources, 2)
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
					expect(fmt.Sprintf("distance %d→%d", from, to), []int{from}, 1)
				}
				for _, tc := range []struct {
					req        api.Request
					detections int
				}{{api.APSP(api.APSPWeighted), 1}, {api.APSP(api.APSPWeighted3), 1}, {api.APSP(api.APSPUnweighted), 2}, {api.Diameter(), 2}} {
					if fam.simAll {
						sameAsSim(tc.req)
					} else if _, err := dir.Query(ctx, tc.req); err != nil {
						t.Fatal(err)
					}
					expectEach(string(tc.req.AppendJSON(nil)), tc.detections)
				}
			}
		})
	}
}

// TestDirectCertifiedAllocs pins what a warm certified distance and a
// warm certified q = 8 MSSP allocate, in objects, at their measured
// values: the searches take their state and their plane from pools, and
// the pass's closures live in that state, so a query allocates no closure
// or slice per source; the membership vector comes from its pool, and
// neither an owned answer nor a put into a pool allocates a release or a
// box, and their Stats carry no empty charged or phase map (nil is the
// one empty breakdown). What is left is what the owned answer holds: a
// distance's response, stats and pair; an mssp's response, its two result
// structs, stats, source list, row headers and plane. They were 8 and 10
// while a direct run's Stats made a CollectiveTime map that Query drops, a
// distance plan made its one-source MSSP request and the certified pass
// boxed its semiring; the panel they replace allocated 20 and 22.
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
	eng.exec.served = func(_ *matrix.Mat[semiring.WH], _ int, _ []bool, c bool) {
		if !c {
			t.Fatal("the panel served a query on a graph where every cell certifies")
		}
		served++
	}
	for _, tc := range []struct {
		req  api.Request
		want float64
	}{{api.Distance(1, n/2+3), 3}, {api.MSSP(spreadSources(n, 8)...), 7}} {
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
		t.Fatal("no query reached the backend")
	}
}
