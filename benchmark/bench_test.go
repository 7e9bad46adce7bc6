package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/api"
)

// benchmarkJSON is the root manifest the driver reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadManifest(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf benchmarkJSON
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end and through the traced pass at
// smoke scale and checks that each emits exactly the metrics BENCHMARK.json
// names, each once, finite, with the manifest's unit, and no failed op.
func TestSmoke(t *testing.T) {
	mf := loadManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(mf.Workloads), len(workloads))
	}
	for i, wl := range mf.Workloads {
		if wl.Name != workloads[i].name || wl.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, wl.Name, wl.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(wl.Name) || len(wl.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", wl.Name)
		}
	}
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{mf.EndToEnd, mf.PerLayer} {
			wl, trace, want := wl, trace, want
			t.Run(wl.name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--smoke", "--workload", wl.name, "--trace", strconv.Itoa(trace), "--out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					switch {
					case !nameRE.MatchString(m.Name):
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", m.Name, got.Value)
					}
					// Each metric also has exactly one human-readable line.
					count := 0
					for _, line := range lines[:len(lines)-1] {
						if f := strings.Fields(line); len(f) > 1 && f[0] == wl.name && f[1] == m.Name {
							count++
						}
					}
					if count != 1 {
						t.Errorf("metric %s printed %d times", m.Name, count)
					}
				}
			})
		}
	}
}

// TestPinnedInputs checks the default inputs against their pinned hashes
// without running anything.
func TestPinnedInputs(t *testing.T) {
	g, w := genGraph(1024, 1)
	if len(g.edges) != 4*1024-1 {
		t.Fatalf("m = %d, want 4n-1", len(g.edges))
	}
	if reach := g.dijkstra(w, 0); len(reach) != 1024 {
		t.Fatal("short distance vector")
	} else {
		for v, dist := range reach {
			if dist < 0 {
				t.Fatalf("node %d unreachable: the graph must be connected", v)
			}
		}
	}
	for i := range workloads {
		if err := checkPins(&workloads[i], g, w, 1); err != nil {
			t.Error(err)
		}
	}
}

// TestOracleRejects makes sure the oracle is not vacuous: an answer one
// off the exact distance on the short side, or past the stretch, fails.
func TestOracleRejects(t *testing.T) {
	g, w := genGraph(64, 7)
	o := newOracle(g, w, epsilon)
	exact := g.dijkstra(w, 3)[40]
	req := api.Request{Kind: api.KindDistance, Distance: &api.DistanceParams{From: 3, To: 40}}
	answer := func(dist int64) *api.Response {
		return &api.Response{Kind: api.KindDistance, Distance: &api.DistanceResult{From: 3, To: 40, Distance: dist, Reachable: true}}
	}
	if err := o.check(req, answer(exact), 0); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	for _, bad := range []int64{exact - 1, exact + exact/2 + 1} {
		if o.check(req, answer(bad), 0) == nil {
			t.Errorf("distance %d accepted, exact is %d", bad, exact)
		}
	}
	// A reweight makes a new version; the old answer is judged per version.
	idx := []int{int(g.adj[3][0].idx)}
	ver := o.reweight(idx, []int64{w[idx[0]] + 5})
	if ver != 1 || o.checkRange(req, answer(exact), 0, 1) != nil {
		t.Errorf("version %d: an answer right on version 0 must pass a [0,1] range check", ver)
	}
}

// TestCompare drives -compare over saved sets of runs: a set against
// itself is flat, allocated bytes growing past the bound regress and exit
// non-zero, and a metric whose runs spread wider than its bound is
// unresolved whichever way its median moved.
func TestCompare(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	if q1, q3 := (series{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}).quartiles(); q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python's exclusive method gives 3.5, 31", q1, q3)
	}
	dir := t.TempDir()
	mk := func(name string, kb float64, setups []float64) string {
		var f savedFile
		for i, setup := range setups {
			f.Runs = append(f.Runs,
				savedRun{Workload: "serve-point", Seed: int64(i), Metrics: map[string]metric{
					"alloc_kb_per_op": {Value: kb + float64(i), Unit: "KiB"},
					"setup_s":         {Value: setup, Unit: "s"},
				}},
				savedRun{Workload: "serve-point", Seed: int64(i), Traced: true, Metrics: map[string]metric{
					"ccsp.kb_per_query_mssp": {Value: kb/3 + float64(i), Unit: "KiB"},
					"ccsp.shape_ms_apsp":     {Value: float64(i%2*40 - 20), Unit: "ms"},
				}})
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk("a.json", 300, []float64{2, 4, 3, 5, 6})
	b := mk("b.json", 450, []float64{3, 6, 4.5, 7.5, 9})
	manifest := filepath.Join("..", "BENCHMARK.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-manifest", manifest, "-compare", a, a}, &out, &errOut); code != 0 {
		t.Fatalf("a set against itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "flat") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("want a flat alloc_kb_per_op row and an unresolved set-up row (its runs spread 75%%):\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-manifest", manifest, "-compare", a, b}, &out, &errOut); code != 1 {
		t.Fatalf("50%% more bytes per op: exit %d, want 1\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "REGRESSED"); n != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("want alloc_kb_per_op REGRESSED and the 50%% slower, noisy set-up unresolved:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ccsp.kb_per_query_mssp") || strings.Contains(out.String(), "ccsp.shape_ms_apsp") {
		t.Errorf("want the moved per-layer metric listed and the one that only jitters around zero left out:\n%s", out.String())
	}
}
