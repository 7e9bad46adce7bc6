package ccsp

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/snapshot"
)

// unweightedTestGraph builds a connected unit-weight graph (for the
// low-degree APSP artifact).
func unweightedTestGraph(n int) *Graph {
	gr := NewGraph(n)
	for v := 1; v < n; v++ {
		gr.MustAddEdge(v, v-1, 1)
	}
	for v := 0; v+5 < n; v += 3 {
		gr.MustAddEdge(v, v+5, 1)
	}
	return gr
}

// TestSnapshotRoundTrip is the acceptance criterion of the snapshot
// subsystem: Save → Load round-trips byte-identically, and the loaded
// engine answers every query with results and round-stats equal to the
// freshly preprocessed engine it was saved from.
func TestSnapshotRoundTrip(t *testing.T) {
	gr := testGraph(24, 30, 8, 77)
	opts := Options{Epsilon: 0.5}
	sources := []int{2, 7, 13}

	warm, err := NewEngine(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Populate both weighted artifacts (base + ε/2) before saving.
	wantM, err := warm.MSSP(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := warm.APSPWeighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := warm.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := warm.SSSP(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	// Save is deterministic: saving again produces identical bytes.
	var buf2 bytes.Buffer
	if err := warm.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Error("two Saves of the same engine differ")
	}

	loaded, err := LoadEngine(context.Background(), bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}

	// The loaded engine re-Saves byte-identically (the round-trip
	// fingerprint).
	var buf3 bytes.Buffer
	if err := loaded.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf3.Bytes()) {
		t.Error("Save → Load → Save is not byte-identical")
	}

	// Preprocessing stats survive verbatim (including wall-clock, which
	// is data once recorded).
	if !reflect.DeepEqual(loaded.PreprocessStats(), warm.PreprocessStats()) {
		t.Errorf("loaded PreprocessStats differ:\n got %+v\nwant %+v",
			loaded.PreprocessStats(), warm.PreprocessStats())
	}
	if loaded.Graph().N() != gr.N() || loaded.Graph().M() != gr.M() {
		t.Errorf("loaded graph is %d nodes / %d edges, want %d / %d",
			loaded.Graph().N(), loaded.Graph().M(), gr.N(), gr.M())
	}
	if loaded.Options() != warm.Options() {
		t.Errorf("loaded options %+v, want %+v", loaded.Options(), warm.Options())
	}

	// Every query on the loaded engine matches the warm engine: same
	// distances, same deterministic round-stats, and no new builds.
	gotM, err := loaded.MSSP(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM.Dist, wantM.Dist) || !reflect.DeepEqual(gotM.Sources, wantM.Sources) {
		t.Error("loaded MSSP distances differ")
	}
	statsEqual(t, "loaded MSSP", gotM.Stats, wantM.Stats)

	gotA, err := loaded.APSPWeighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA.Dist, wantA.Dist) {
		t.Error("loaded APSP distances differ")
	}
	statsEqual(t, "loaded APSP", gotA.Stats, wantA.Stats)

	gotD, err := loaded.Diameter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotD.Estimate != wantD.Estimate {
		t.Errorf("loaded diameter %d, want %d", gotD.Estimate, wantD.Estimate)
	}
	statsEqual(t, "loaded diameter", gotD.Stats, wantD.Stats)

	gotS, err := loaded.SSSP(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS.Dist, wantS.Dist) {
		t.Error("loaded SSSP distances differ")
	}
	statsEqual(t, "loaded SSSP", gotS.Stats, wantS.Stats)

	if n := len(loaded.PreprocessStats().Builds); n != 2 {
		t.Errorf("loaded engine ran %d builds after queries, want the snapshot's 2", n)
	}

	// And against a cold engine built from scratch: the snapshot is
	// indistinguishable from fresh preprocessing.
	cold, err := NewEngine(context.Background(), testGraph(24, 30, 8, 77), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldM, err := cold.MSSP(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM.Dist, coldM.Dist) {
		t.Error("loaded MSSP differs from cold-engine MSSP")
	}
	statsEqual(t, "loaded vs cold MSSP", gotM.Stats, coldM.Stats)
}

// TestSnapshotDirectInterop extends the round-trip contract to ExecDirect:
// a direct-mode engine saves and loads like any other (byte-identical
// re-save, verbatim PreprocessStats, preserved execution mode), and the
// answers served from its snapshot are byte-identical to the answers
// served from a simulated-mode snapshot of the same graph and options.
func TestSnapshotDirectInterop(t *testing.T) {
	ctx := context.Background()
	gr := testGraph(24, 30, 8, 77)
	sources := []int{2, 7, 13}

	dir, err := NewEngine(ctx, gr, Options{Epsilon: 0.5, Execution: ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	// Populate both weighted artifacts (base + ε/2) before saving.
	if _, err := dir.MSSP(ctx, sources); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.APSPWeighted(ctx); err != nil {
		t.Fatal(err)
	}

	var dirBuf bytes.Buffer
	if err := dir.Save(&dirBuf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), dirBuf.Bytes()...)
	loadedDir, err := LoadEngine(ctx, bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if got := loadedDir.Options().Execution; got != ExecDirect {
		t.Errorf("loaded engine execution = %v, want direct", got)
	}
	var reBuf bytes.Buffer
	if err := loadedDir.Save(&reBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, reBuf.Bytes()) {
		t.Error("direct-mode Save → Load → Save is not byte-identical")
	}
	if !reflect.DeepEqual(loadedDir.PreprocessStats(), dir.PreprocessStats()) {
		t.Errorf("loaded direct PreprocessStats differ:\n got %+v\nwant %+v",
			loadedDir.PreprocessStats(), dir.PreprocessStats())
	}

	// A simulated-mode snapshot of the same graph and options.
	sim, err := NewEngine(ctx, gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.MSSP(ctx, sources); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.APSPWeighted(ctx); err != nil {
		t.Fatal(err)
	}
	var simBuf bytes.Buffer
	if err := sim.Save(&simBuf); err != nil {
		t.Fatal(err)
	}
	loadedSim, err := LoadEngine(ctx, &simBuf)
	if err != nil {
		t.Fatal(err)
	}

	// Answers from the two snapshots are byte-identical; only the cost
	// reports differ (wall-clock vs rounds).
	dM, err := loadedDir.MSSP(ctx, sources)
	if err != nil {
		t.Fatal(err)
	}
	sM, err := loadedSim.MSSP(ctx, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dM.Dist, sM.Dist) || !reflect.DeepEqual(dM.Sources, sM.Sources) {
		t.Error("MSSP from direct snapshot differs from simulated snapshot")
	}
	if dM.Stats.Exec != ExecDirect || dM.Stats.TotalRounds != 0 {
		t.Errorf("direct snapshot query stats = %+v, want direct tag and zero rounds", dM.Stats)
	}
	dA, err := loadedDir.APSPWeighted(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sA, err := loadedSim.APSPWeighted(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dA.Dist, sA.Dist) {
		t.Error("APSP from direct snapshot differs from simulated snapshot")
	}
	dD, err := loadedDir.Diameter(ctx) // served from the snapshot's base artifact
	if err != nil {
		t.Fatal(err)
	}
	sD, err := loadedSim.Diameter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dD.Estimate != sD.Estimate {
		t.Errorf("diameter from direct snapshot %d, simulated snapshot %d", dD.Estimate, sD.Estimate)
	}
}

// TestSnapshotLowDegreeArtifact round-trips the §6.3 low-degree variant:
// its artifact carries the degree broadcast alongside the hopset.
func TestSnapshotLowDegreeArtifact(t *testing.T) {
	gr := unweightedTestGraph(20)
	warm, err := NewEngine(context.Background(), gr, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := warm.APSPUnweighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(warm.PreprocessStats().Builds); n != 3 {
		t.Fatalf("unweighted APSP engine has %d builds, want 3 (base, ε/2, ε/2 low-degree)", n)
	}

	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.APSPUnweighted(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Error("loaded unweighted APSP distances differ")
	}
	statsEqual(t, "loaded unweighted APSP", got.Stats, want.Stats)
	if n := len(loaded.PreprocessStats().Builds); n != 3 {
		t.Errorf("loaded engine ran %d builds, want the snapshot's 3", n)
	}
}

// TestSnapshotLazyAfterLoad: artifacts missing from a snapshot are built
// lazily by the loaded engine, preserving one-shot-equal results.
func TestSnapshotLazyAfterLoad(t *testing.T) {
	gr := testGraph(18, 20, 5, 42)
	opts := Options{Epsilon: 0.5}
	warm, err := NewEngine(context.Background(), gr, opts) // base artifact only
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(loaded.PreprocessStats().Builds); n != 1 {
		t.Fatalf("loaded engine has %d builds, want 1", n)
	}
	got, err := loaded.APSPWeighted(context.Background()) // needs the ε/2 artifact: lazy build
	if err != nil {
		t.Fatal(err)
	}
	if n := len(loaded.PreprocessStats().Builds); n != 2 {
		t.Errorf("lazy build after load: %d builds, want 2", n)
	}
	want, err := APSPWeighted(context.Background(), gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Error("lazily-built APSP after load differs from one-shot")
	}
}

// TestLoadEngineRejectsBadInput: corruption, truncation, version skew and
// a hopset edge of negative weight all surface as errors through the
// public API.
func TestLoadEngineRejectsBadInput(t *testing.T) {
	warm, err := NewEngine(context.Background(), testGraph(12, 10, 4, 9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := LoadEngine(context.Background(), bytes.NewReader(valid[:len(valid)-7])); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x01
	if _, err := LoadEngine(context.Background(), bytes.NewReader(mut)); err == nil {
		t.Error("corrupt snapshot loaded without error")
	}
	mut = append([]byte(nil), valid...)
	mut[8] = 0x63
	if _, err := LoadEngine(context.Background(), bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version-skewed snapshot: err = %v, want version error", err)
	}
	if _, err := LoadEngine(context.Background(), bytes.NewReader(nil)); err == nil {
		t.Error("empty input loaded without error")
	}

	// Artifacts no build writes, with the CRCs recomputed so only the
	// artifact checks can catch them: a hopset row of negative weight and
	// hop count would serve negative distances, and a β below what the
	// artifact's params give would cut every detection short and answer
	// reachable pairs Unreachable.
	for _, tc := range []struct {
		name   string
		poison func(a *hopset.Artifact) bool
	}{
		{"a hopset row of weight -1000", func(a *hopset.Artifact) bool {
			for _, row := range a.Rows {
				if len(row) > 0 {
					row[0].Val = semiring.WH{W: -1000, H: -7}
					return true
				}
			}
			return false
		}},
		{"β = 1 beside its params", func(a *hopset.Artifact) bool { a.Beta = 1; return true }},
		{"k + 1 beside its params", func(a *hopset.Artifact) bool { a.K++; return true }},
	} {
		snap, err := snapshot.Decode(bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		if !tc.poison(snap.Artifacts[0].Art) {
			t.Fatalf("%s: snapshot holds nothing to poison", tc.name)
		}
		var bad bytes.Buffer
		if err := snap.Encode(&bad); err != nil {
			t.Fatal(err)
		}
		for name, load := range map[string]func(context.Context, io.Reader) (*Engine, error){"LoadEngine": LoadEngine, "LoadEngineDirect": LoadEngineDirect} {
			if _, err := load(context.Background(), bytes.NewReader(bad.Bytes())); err == nil {
				t.Errorf("%s accepted %s", name, tc.name)
			}
		}
	}
}

// TestSaveFileAtomic: SaveFile replaces the target by rename, so a good
// save leaves exactly the snapshot and a save that cannot complete leaves
// the previous target untouched and no temp file behind.
func TestSaveFileAtomic(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(ctx, testGraph(16, 20, 6, 3), Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := eng.Save(&want); err != nil {
		t.Fatal(err)
	}
	names := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}

	// Over an existing snapshot: one file, and it loads to the same bytes.
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.snap")
	if err := os.WriteFile(path, []byte("the previous snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got := names(dir); !reflect.DeepEqual(got, []string{"warm.snap"}) {
		t.Errorf("directory after SaveFile holds %v, want only warm.snap", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadEngine(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("SaveFile → LoadEngine → Save is not byte-identical to Save")
	}

	// The target is a non-empty directory: the temp file is written in
	// full, the rename fails, and nothing is left behind or disturbed.
	dir = t.TempDir()
	target := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(target); err == nil {
		t.Fatal("SaveFile over a non-empty directory succeeded")
	}
	if got := names(dir); !reflect.DeepEqual(got, []string{"taken"}) {
		t.Errorf("directory after a failed SaveFile holds %v, want only the target", got)
	}
	if got := names(target); !reflect.DeepEqual(got, []string{"keep"}) {
		t.Errorf("failed SaveFile disturbed its target: %v", got)
	}
}

// TestEngineSaveDuringFirstQueries: Save beside the first MSSP and the
// first APSP of a fresh lazy direct engine - whose builds derive each
// entry's G ∪ H, re-pointing its artifact's rows, before publishing it -
// writes a snapshot whose engine answers what this one does. Under -race
// it checks that nothing reads an artifact while its rows move.
func TestEngineSaveDuringFirstQueries(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		eng, err := newEngine(twoHubGrid(), Options{Epsilon: 0.5, Execution: ExecDirect, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			buf  bytes.Buffer
			ms   *MSSPResult
			ap   *APSPResult
			errs [3]error
		)
		wg.Add(3)
		go func() { defer wg.Done(); errs[0] = eng.Save(&buf) }()
		go func() { defer wg.Done(); ms, errs[1] = eng.MSSP(ctx, []int{0, 7}) }()
		go func() { defer wg.Done(); ap, errs[2] = eng.APSPWeighted(ctx) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := LoadEngine(ctx, &buf)
		if err != nil {
			t.Fatal(err)
		}
		ms2, err := loaded.MSSP(ctx, []int{0, 7})
		if err != nil {
			t.Fatal(err)
		}
		ap2, err := loaded.APSPWeighted(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms2.Dist, ms.Dist) || !reflect.DeepEqual(ap2.Dist, ap.Dist) {
			t.Fatalf("run %d: the engine loaded from a snapshot saved mid-build answers differently", i)
		}
	}
}
