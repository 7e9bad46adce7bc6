package ccsp

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/wire"
)

// One bunch stage per graph (DESIGN.md §13): a direct build whose cache
// already holds an artifact differing only in ε runs only the level loop
// over that sibling's bunch stage, and what it builds is what a cold
// build would.

// encodedArtifacts encodes every completed artifact of e, by key.
func encodedArtifacts(e *Engine) map[artifactKey][]byte {
	e.pre.mu.Lock()
	defer e.pre.mu.Unlock()
	out := make(map[artifactKey][]byte, len(e.pre.arts))
	for key, ent := range e.pre.arts {
		var w wire.Writer
		hopset.EncodeArtifact(&w, ent.art)
		out[key] = w.Bytes()
	}
	return out
}

// derivedFrom reports whether e's artifact at key took its bunch stage from
// the one at from: a derived build shares its sibling's read-only InA1, a
// cold build allocates its own.
func derivedFrom(e *Engine, key, from artifactKey) bool {
	e.pre.mu.Lock()
	defer e.pre.mu.Unlock()
	a, b := e.pre.arts[key], e.pre.arts[from]
	return a != nil && b != nil && &a.art.InA1[0] == &b.art.InA1[0]
}

// TestDirectSiblingBuildBothOrders: per APSP variant, a direct engine that
// builds ε then derives ε/2 (NewEngine, then APSP), one that builds ε/2
// cold then derives ε (a lazy engine asked APSP, then MSSP) and one loaded
// from a snapshot holding only ε hold artifacts byte-identical to the
// simulated engine's under every key, answer what it answers, and report
// each build with its own ε, β and edge count. The low-degree artifact has
// no sibling and builds cold.
func TestDirectSiblingBuildBothOrders(t *testing.T) {
	ctx := context.Background()
	for _, fam := range diffFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			sim, err := NewEngine(ctx, fam.gr, Options{Epsilon: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			answers := make(map[api.APSPVariant][][]int64)
			for _, v := range []api.APSPVariant{api.APSPWeighted, api.APSPWeighted3, api.APSPUnweighted} {
				res, err := sim.apspByVariant(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				answers[v] = res.Dist
			}
			want := encodedArtifacts(sim)
			simBuilds := sim.PreprocessStats().Builds
			for _, workers := range diffWorkerCounts(t) {
				opts := Options{Epsilon: 0.5, Workers: workers, Execution: ExecDirect}
				for v, dist := range answers {
					eager, err := NewEngine(ctx, fam.gr, opts)
					if err != nil {
						t.Fatal(err)
					}
					var snap bytes.Buffer
					if err := eager.Save(&snap); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadEngine(ctx, &snap)
					if err != nil {
						t.Fatal(err)
					}
					lazy, err := newEngine(fam.gr, opts)
					if err != nil {
						t.Fatal(err)
					}
					base, half, low := eager.baseKey(), eager.apspKey(), eager.apspLowKey()
					for _, c := range []struct {
						name      string
						eng       *Engine
						key, from artifactKey
					}{{"eager", eager, half, base}, {"loaded", loaded, half, base}, {"lazy", lazy, base, half}} {
						res, err := c.eng.apspByVariant(ctx, v)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := c.eng.MSSP(ctx, []int{0}); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(res.Dist, dist) {
							t.Errorf("%s %s workers=%d: answer differs from the simulated engine's", c.name, v, workers)
						}
						if !derivedFrom(c.eng, c.key, c.from) {
							t.Errorf("%s %s workers=%d: ε'=%g was not derived from ε'=%g", c.name, v, workers, c.key.params.Eps, c.from.params.Eps)
						}
						if derivedFrom(c.eng, low, base) || derivedFrom(c.eng, low, half) {
							t.Errorf("%s %s workers=%d: the low-degree artifact took a bunch stage from G's", c.name, v, workers)
						}
						got := encodedArtifacts(c.eng)
						wantKeys := 2
						if v == api.APSPUnweighted {
							wantKeys = 3
						}
						if len(got) != wantKeys {
							t.Errorf("%s %s workers=%d: %d artifacts, want %d", c.name, v, workers, len(got), wantKeys)
						}
						for key, b := range got {
							if !bytes.Equal(b, want[key]) {
								t.Errorf("%s %s workers=%d: artifact %v differs from the simulated build", c.name, v, workers, key)
							}
						}
						for _, b := range c.eng.PreprocessStats().Builds {
							if !hasBuild(simBuilds, b) {
								t.Errorf("%s %s workers=%d: build %s ε'=%g β=%d edges=%d matches no simulated build",
									c.name, v, workers, b.Kind, b.Eps, b.Beta, b.Edges)
							}
						}
					}
				}
			}
		})
	}
}

// twoHubGrid is a 20×20 grid: its k = 173 nearest leave two A_1 nodes for
// the levels to connect, where below n ≈ 300 one node hits every bunch and
// a level has nothing to do.
func twoHubGrid() *Graph {
	return &Graph{g: graphgen.Grid(20, 20, graphgen.Weights{Max: 6}, 4)}
}

// hasBuild reports whether builds lists one of b's kind, ε, β and edge
// count (Stats differ by execution mode).
func hasBuild(builds []ArtifactBuild, b ArtifactBuild) bool {
	for _, s := range builds {
		if s.Kind == b.Kind && s.Eps == b.Eps && s.Beta == b.Beta && s.Edges == b.Edges {
			return true
		}
	}
	return false
}

// TestDirectSiblingBuildCancel: the first APSP on a fresh engine derives
// ε/2 from ε; canceled at any poll that derived build reaches, it returns
// ErrCanceled over context.Canceled and caches no ε/2 entry, and the next
// APSP derives it again and answers what a cold engine answers.
func TestDirectSiblingBuildCancel(t *testing.T) {
	bg := context.Background()
	gr := twoHubGrid()
	opts := Options{Epsilon: 0.5, Execution: ExecDirect}
	fresh := func() *Engine {
		eng, err := NewEngine(bg, gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	coldEng, err := newEngine(gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldEng.APSPWeighted(bg)
	if err != nil {
		t.Fatal(err)
	}
	polls := func(eng *Engine) int64 {
		ctx := &pollCtx{Context: bg, k: math.MaxInt64}
		if _, err := eng.APSPWeighted(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.calls.Load()
	}
	eng := fresh()
	first := polls(eng)
	build := first - polls(eng) // the warm query polls what the first did, less the build
	if build < 4 {
		t.Fatalf("the derived build polled ctx %d times, want >= 4 (entry and the levels' sweeps)", build)
	}
	for k := int64(1); k <= build; k++ {
		eng := fresh()
		res, err := eng.APSPWeighted(&pollCtx{Context: bg, k: k})
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("canceled at poll %d of %d: got (%v, %v), want ErrCanceled", k, build, res, err)
		}
		if len(encodedArtifacts(eng)) != 1 {
			t.Fatalf("canceled at poll %d of %d: the ε/2 entry was cached", k, build)
		}
		next, err := eng.APSPWeighted(bg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.Dist, cold.Dist) {
			t.Fatalf("the APSP after a cancel at poll %d differs from a cold engine's", k)
		}
		if !derivedFrom(eng, eng.apspKey(), eng.baseKey()) {
			t.Fatalf("the APSP after a cancel at poll %d did not derive ε/2", k)
		}
	}
}

// gateCtx holds the first Err call - the direct frame's entry poll, inside
// the build it governs - until release is closed, so a build can be kept
// in flight while another starts.
type gateCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (g *gateCtx) Err() error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Context.Err()
}

// TestEngineSiblingBuildConcurrent: MSSP and APSP sent together to a lazy
// direct engine build ε and ε/2 in whichever order the scheduler picks -
// one cold and the other derived, or both cold when neither has completed
// when the other starts - and the artifacts are byte-identical to cold
// builds either way. Holding one build in flight forces the both-cold
// interleaving: a build never waits for its sibling.
func TestEngineSiblingBuildConcurrent(t *testing.T) {
	ctx := context.Background()
	gr := twoHubGrid()
	opts := Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 2}
	mssp := func(ctx context.Context, eng *Engine) error { _, err := eng.MSSP(ctx, []int{0, 7}); return err }
	apsp := func(ctx context.Context, eng *Engine) error { _, err := eng.APSPWeighted(ctx); return err }
	asks := []func(context.Context, *Engine) error{mssp, apsp}
	lazy := func() *Engine {
		eng, err := newEngine(gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	want := make(map[artifactKey][]byte) // each artifact built cold, alone
	for _, ask := range asks {
		eng := lazy()
		if err := ask(ctx, eng); err != nil {
			t.Fatal(err)
		}
		maps.Copy(want, encodedArtifacts(eng))
	}
	check := func(what string, eng *Engine) {
		t.Helper()
		if got := encodedArtifacts(eng); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: artifacts differ from cold builds", what)
		}
	}

	for i := 0; i < 4; i++ {
		eng := lazy()
		errs := make([]error, len(asks))
		var wg sync.WaitGroup
		for j, ask := range asks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = ask(ctx, eng)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		check("concurrent", eng)
	}

	for _, order := range []struct {
		name        string
		held, other func(context.Context, *Engine) error
	}{{"ε in flight", mssp, apsp}, {"ε/2 in flight", apsp, mssp}} {
		eng := lazy()
		gate := &gateCtx{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
		held := make(chan error, 1)
		go func() { held <- order.held(gate, eng) }()
		<-gate.entered
		err := order.other(ctx, eng)
		close(gate.release)
		if err := errors.Join(err, <-held); err != nil {
			t.Fatal(err)
		}
		if derivedFrom(eng, eng.apspKey(), eng.baseKey()) {
			t.Errorf("%s: a build took the bunch stage of one still in flight", order.name)
		}
		check(order.name, eng)
	}
}

// sameWindow reports whether a is the leading window of b: a prefix of
// b's storage, or empty.
func sameWindow[E any](a, b []E) bool {
	return len(a) == 0 || (len(a) <= len(b) && &a[0] == &b[0])
}

// TestEngineSiblingSharesRows: a direct engine holds H once. After
// NewEngine, an MSSP and both APSP variants (ε, ε/2 on G, ε/2 on G'),
// built and loaded back from its snapshot, every artifact row is the
// leading window of its entry's G ∪ H row, and every ε/2 row outside A_1 -
// a row equal to the ε artifact's - is the ε entry's own storage, in the
// artifact and in G ∪ H, so the ε/2 artifact allocates only its A_1 rows.
func TestEngineSiblingSharesRows(t *testing.T) {
	ctx := context.Background()
	for _, fam := range append(diffFamilies(), struct {
		name string
		gr   *Graph
	}{"two-hub-grid", twoHubGrid()}) {
		eng, err := NewEngine(ctx, fam.gr, Options{Epsilon: 0.5, Execution: ExecDirect})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.MSSP(ctx, []int{0}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.APSPWeighted(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.APSPUnweighted(ctx); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(ctx, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			eng  *Engine
		}{{"built", eng}, {"loaded", loaded}} {
			if n := len(c.eng.pre.arts); n != 3 {
				t.Fatalf("%s/%s: %d artifacts, want 3", fam.name, c.what, n)
			}
			for key, ent := range c.eng.pre.arts {
				for v, row := range ent.art.Rows {
					if !sameWindow(row, ent.gh.Rows[v]) {
						t.Errorf("%s/%s %s ε′=%g row %d: not a window of its G ∪ H row", fam.name, c.what, key.variant, key.params.Eps, v)
					}
				}
			}
			base, half := c.eng.pre.arts[c.eng.baseKey()], c.eng.pre.arts[c.eng.apspKey()]
			for v, in := range half.art.InA1 {
				if in {
					continue
				}
				if !sameWindow(half.art.Rows[v], base.art.Rows[v]) || len(half.art.Rows[v]) != len(base.art.Rows[v]) ||
					!sameWindow(half.gh.Rows[v], base.gh.Rows[v]) || len(half.gh.Rows[v]) != len(base.gh.Rows[v]) {
					t.Errorf("%s/%s row %d outside A_1: the ε/2 entry does not share the ε entry's storage", fam.name, c.what, v)
				}
			}
		}
	}
}
