package ccsp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"github.com/congestedclique/ccsp/internal/disttools"
	"github.com/congestedclique/ccsp/internal/graphgen"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/matrix"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// entryBytes is the size of one matrix.Entry[semiring.WH]: a 4-byte
// column padded to 8, then the 16-byte (W, H) pair.
const entryBytes = 24

// heapBytes is what an allocation of size pointer-free bytes takes from
// the heap: size rounded up to its size class (pages, past 32 KiB). It
// reads the class off the capacity append gives a fresh slice.
func heapBytes(size int) uint64 {
	if size == 0 {
		return 0
	}
	return uint64(cap(append([]byte(nil), make([]byte, size)...)))
}

// rowBytes is the heap a row of its own allocation takes.
func rowBytes[E any](r matrix.Row[E], size int) uint64 { return heapBytes(cap(r) * size) }

// TestBuildDirectBytes holds a cold direct hopset build at n = 1024 to
// what it must hold: the k-nearest slabs (12·n·k: a 4-byte column and an
// 8-byte rank per kept node), the hitting set's inverted index (4·n·k),
// the bunch stage's mirror index (4 bytes a bunch edge), one G ∪ H, and a
// fixed slack. The slack is the rest of the build: the search's arcs and
// scratch (cold, so every pool is empty), the k-nearest row headers, the
// artifact's vectors, the first pass's row scratch, the level loop's
// detection planes, rows and merges, and headers. On one P with the
// collector off it measures 0.97 MiB on this graph; the budget allows
// 1.25 MiB. The budget comes to 9.6 MB here; the build allocated 12.1 MB
// while H_0 was a slab of its own, with every bunch entry at both
// endpoints, and 27.2 MB before H_0 went into one slab and the level loop
// started sweeping the G ∪ H it returns.
//
// It also counts the build's objects: at most maxObjects, about one per
// G ∪ H row and a few hundred besides (1 270 measured). A semiring boxed
// once per row, where the row passes take it boxed once, costs n more
// (the build made 4 346 while Combine and MergeRows boxed it per row).
// Skipped under -race, where sync.Pool drops Puts.
func TestBuildDirectBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: the build's scratch is not reliably pooled")
	}
	onePNoGC(t)
	const n, slack, maxObjects = 1024, 5 << 18, 1400
	g := graphgen.Connected(n, 3*n, graphgen.Weights{Max: 10}, n+17)
	sr, w := g.AugSemiring(), g.WeightMatrix()
	p := hopset.Practical(0.5)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second collection empties every pool
	runtime.ReadMemStats(&before)
	art, gh, err := hopset.BuildDirectFrom(context.Background(), sr, w, p, nil, nil, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs

	k := art.K
	knear, err := disttools.KNearestAll[semiring.WH](context.Background(), sr, w, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for v, row := range knear.Rows {
		if art.InA1[v] || art.PV[v] < 0 {
			continue
		}
		for _, e := range row {
			if e.Col != int32(v) && (e.Val.W < art.DPV[v].W || e.Col == art.PV[v]) {
				edges++
			}
		}
	}
	var ghBytes uint64
	for v, row := range gh.Rows {
		if len(art.Rows[v]) > 0 { // an empty H row lays out as w's own row
			ghBytes += rowBytes(row, entryBytes)
		}
	}
	kn, index, mirror := uint64(12*n*k), uint64(4*n*k), heapBytes(4*edges)
	if budget := kn + index + mirror + ghBytes + slack; got > budget {
		t.Errorf("a cold BuildDirect at n=%d allocates %d bytes, want <= %d (k-nearest %d + index %d + mirror %d + G ∪ H %d + slack %d)",
			n, got, budget, kn, index, mirror, ghBytes, slack)
	}
	if objects > maxObjects {
		t.Errorf("a cold BuildDirect at n=%d allocates %d objects, want <= %d", n, objects, maxObjects)
	}
	t.Logf("allocated %d bytes: k-nearest %d + index %d + mirror %d + G ∪ H %d + %d over; %d objects", got, kn, index, mirror, ghBytes, int64(got)-int64(kn+index+mirror+ghBytes), objects)
}

// liveBytes is the heap in use once two collections have run: the second
// empties the pools the first moved to their victim caches.
func liveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// entryBytesOf accounts an artifact entry's own storage: the artifact's
// row headers, pivots and (for a cold build) membership, the G ∪ H row
// headers, and every G ∪ H row it does not share with sib (nil: none)
// and does not take from the base matrix. It also reports the rows it
// counted.
func entryBytesOf(ent, sib *artifactEntry) (uint64, []int) {
	n := ent.art.N
	total := 2 * heapBytes(n*24) // art.Rows and gh.Rows headers
	if sib == nil {
		total += heapBytes(n*4) + heapBytes(n*16) + heapBytes(n) // PV, DPV, InA1
	}
	var own []int
	for v, row := range ent.gh.Rows {
		if len(ent.art.Rows[v]) == 0 || sib != nil && len(row) > 0 && len(sib.gh.Rows[v]) > 0 && &row[0] == &sib.gh.Rows[v][0] {
			continue
		}
		total += rowBytes(row, entryBytes)
		own = append(own, v)
	}
	return total, own
}

// TestEngineResidentBytes holds a direct engine's live heap to an exact
// account in each of six states, within 64 KiB for the engine's own small
// structs:
//
//   - fresh, after a certified MSSP: its graph and its weight matrix only,
//     as a host NewEngine builds no hopset and the certified searches need
//     none;
//   - still fresh after a certified APSPWeighted: the same, with no build
//     listed, as its detections run over G at the ε/2 β and read the ε/2
//     entry only when they abort;
//   - still fresh after a warm KNearest(8): the same, with no build
//     listed, as its searches track first hops over the weight matrix
//     itself and keep no routed copy of G;
//   - with the base entry forced (as a fallback or a Save would force
//     it): that and the entry's own storage - no transient slab of the build kept alive by a row pointing
//     into it;
//   - with the ε/2 entry an APSP builds over that base sibling: its own
//     headers and only its A_1 rows, every other row being the ε entry's;
//   - with the ε/2 entry built cold, on a fresh engine: all of its own
//     rows.
//
// Skipped under -race, where sync.Pool drops Puts.
func TestEngineResidentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: pooled scratch may outlive the collections")
	}
	const n, slack = 1024, 64 << 10
	ctx := context.Background()
	opts := Options{Epsilon: 0.5, Execution: ExecDirect}
	gr := testGraph(n, 3*n, 10, 7)
	sources := []int{0, n / 2}
	ready := func() *Engine {
		t.Helper()
		eng, err := NewEngine(ctx, gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !certifies(eng.gr.g, eng.exec.base.beta, sources) {
			t.Fatalf("sources %v do not certify at β = %d", sources, eng.exec.base.beta)
		}
		if _, err := eng.MSSP(ctx, sources); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	within := func(what string, got, want uint64) {
		t.Helper()
		if got > want+slack || want > got+slack {
			t.Errorf("%s: %d bytes, its account %d (want within %d)", what, got, want, slack)
		}
		t.Logf("%s: %d bytes, its account %d", what, got, want)
	}
	warm := ready() // first-use globals
	if err := warm.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.APSPWeighted(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.KNearest(ctx, 8); err != nil {
		t.Fatal(err)
	}
	warm = nil

	start := liveBytes()
	eng := ready()
	fresh := liveBytes()
	g := eng.gr.g
	want := heapBytes(n*24) + heapBytes(2*g.M()*16) // graph: Adj header, one slab of edges
	want += heapBytes(n * 24)                       // weight matrix: header, then a row each
	w, _ := eng.exec.weights()
	for _, row := range w.Rows {
		want += rowBytes(row, entryBytes)
	}
	within("a fresh host engine holds its graph and weight matrix", fresh-start, want)
	if builds := len(eng.PreprocessStats().Builds); builds != 0 {
		t.Errorf("a fresh host engine lists %d builds after a certified MSSP, want 0", builds)
	}

	eng.exec.served = func(_ *matrix.Mat[semiring.WH], _ int, _ []bool, c bool) {
		if !c {
			t.Error("an APSP detection fell back on a graph where every one certifies")
		}
	}
	if _, err := eng.APSPWeighted(ctx); err != nil {
		t.Fatal(err)
	}
	eng.exec.served = nil
	within("a fresh host engine holds its graph and weight matrix after a certified APSP", liveBytes()-start, want)
	if builds := len(eng.PreprocessStats().Builds); builds != 0 {
		t.Errorf("a fresh host engine lists %d builds after a certified APSP, want 0", builds)
	}

	for range 2 { // the first one warms the search state
		if _, err := eng.KNearest(ctx, 8); err != nil {
			t.Fatal(err)
		}
	}
	within("a fresh host engine holds its graph and weight matrix after a warm KNearest(8)", liveBytes()-start, want)
	if builds := len(eng.PreprocessStats().Builds); builds != 0 {
		t.Errorf("a fresh host engine lists %d builds after a KNearest, want 0", builds)
	}

	if _, err := eng.artifact(ctx, eng.baseKey()); err != nil {
		t.Fatal(err)
	}
	built := liveBytes()
	ent := eng.pre.arts[eng.baseKey()]
	own, _ := entryBytesOf(ent, nil)
	within("an engine with its base entry holds its graph, weight matrix and entry", built-start, want+own)

	half, err := eng.artifact(ctx, eng.apspKey())
	if err != nil {
		t.Fatal(err)
	}
	grown := liveBytes()
	own, rows := entryBytesOf(half, ent)
	for _, v := range rows {
		if !half.art.InA1[v] {
			t.Errorf("the ε/2 entry holds its own G ∪ H row %d outside A_1", v)
		}
	}
	within(fmt.Sprintf("the ε/2 entry over its sibling adds its headers and %d own A_1 rows", len(rows)), grown-built, own)

	cold := ready()
	coldStart := liveBytes()
	coldHalf, err := cold.artifact(ctx, cold.apspKey())
	if err != nil {
		t.Fatal(err)
	}
	coldGrown := liveBytes()
	runtime.KeepAlive(gr) // live across every measurement, so in none
	runtime.KeepAlive(eng)
	runtime.KeepAlive(cold)
	own, rows = entryBytesOf(coldHalf, nil)
	within(fmt.Sprintf("the ε/2 entry built cold adds all %d of its own rows", len(rows)), coldGrown-coldStart, own)
}
