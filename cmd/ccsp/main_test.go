package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/internal/server"
)

// smokeGraph is scripts/ccspd_smoke.sh's graph: a weighted ring with
// chords.
const smokeGraph = `# a weighted ring with chords
0 1 2
1 2 3
2 3 1
3 4 4
4 5 2
5 6 5
6 7 1
7 0 3
0 4 9
1 5 2
2 6 7
`

const mixedBatch = `mssp 0
sssp 0
# a comment, then a blank line

diameter
knearest 2
apsp3
apsp
sourcedetect 0,3 4 2
distance 0 5
distance 0 6
mssp 0
`

// ccspOut runs the CLI in process and returns its stdout.
func ccspOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// modes is one graph reachable every way the CLI can reach it: as a file,
// as a snapshot written by -save, behind one daemon as its default graph,
// and behind a two-replica cluster as the graph "roads".
type modes struct {
	graph, snap, server, cluster string
}

func setup(t *testing.T) modes {
	t.Helper()
	dir := t.TempDir()
	m := modes{graph: filepath.Join(dir, "g.txt"), snap: filepath.Join(dir, "warm.snap")}
	if err := os.WriteFile(m.graph, []byte(smokeGraph), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ccspOut(t, "-algo", "diameter", "-save", m.snap, m.graph); err != nil {
		t.Fatal(err)
	}
	load := func() *ccsp.Engine {
		f, err := os.Open(m.snap)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		eng, err := ccsp.LoadEngine(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	serve := func(s *server.Server) string {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	s, err := server.New(server.Config{Engine: load()})
	if err != nil {
		t.Fatal(err)
	}
	m.server = serve(s)
	var replicas []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Deferred: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDynamicGraph("roads", ccsp.NewDynamicEngine(load())); err != nil {
			t.Fatal(err)
		}
		s.SetReady()
		replicas = append(replicas, serve(s))
	}
	m.cluster = strings.Join(replicas, ",")
	return m
}

// split separates a single-query run's output into its answer rows and
// its stats line, dropping the local-only epilogue (preprocess, saved).
func split(out string) (rows []string, stats string) {
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "preprocess"), strings.HasPrefix(line, "saved engine snapshot"):
		case strings.HasPrefix(line, "n="):
			stats = line
		default:
			rows = append(rows, line)
		}
	}
	return rows, stats
}

// counts parses the five counters of a stats line (the text from "n=").
func counts(t *testing.T, line string) (c [5]int) {
	t.Helper()
	var n int
	line = line[strings.Index(line, "n="):]
	if _, err := fmt.Sscanf(line, "n=%d rounds=%d (sim=%d charged=%d) msgs=%d words=%d", &n, &c[0], &c[1], &c[2], &c[3], &c[4]); err != nil {
		t.Fatalf("stats line %q: %v", line, err)
	}
	return c
}

// TestEveryAlgoEveryMode: each -algo prints the same answer rows
// one-shot, through -save, through -load, through -server and through
// -cluster -graphid; the four engine-backed modes print the same
// query-only counters; and the one-shot stats line is the one the typed
// one-shot function reports - the query plus only the preprocessing the
// lazy engine had to build, which for the kinds that read exactly the
// eagerly built hopset (merged) is the engine-mode query line plus its
// preprocess line.
func TestEveryAlgoEveryMode(t *testing.T) {
	m := setup(t)
	ctx := context.Background()
	g, err := ccsp.ReadGraphFile(m.graph)
	if err != nil {
		t.Fatal(err)
	}
	opts := ccsp.Options{Epsilon: 0.5}
	for _, tc := range []struct {
		algo   string
		args   []string
		typed  func() (ccsp.Stats, error)
		merged bool
	}{
		{"apsp", nil, func() (ccsp.Stats, error) {
			res, err := ccsp.APSPWeighted(ctx, g, opts)
			return res.Stats, err
		}, false}, // the engine also holds the base hopset, which APSP does not read
		{"apsp3", nil, func() (ccsp.Stats, error) {
			res, err := ccsp.APSPWeighted3(ctx, g, opts)
			return res.Stats, err
		}, false},
		{"sssp", []string{"-src", "3"}, func() (ccsp.Stats, error) {
			res, err := ccsp.SSSP(ctx, g, 3, opts)
			return res.Stats, err
		}, false},
		{"mssp", []string{"-sources", "0,5"}, func() (ccsp.Stats, error) {
			res, err := ccsp.MSSP(ctx, g, []int{0, 5}, opts)
			return res.Stats, err
		}, true},
		{"diameter", nil, func() (ccsp.Stats, error) {
			res, err := ccsp.Diameter(ctx, g, opts)
			return res.Stats, err
		}, true},
		{"knearest", []string{"-k", "3"}, func() (ccsp.Stats, error) {
			res, err := ccsp.KNearest(ctx, g, 3, opts)
			return res.Stats, err
		}, false},
		{"sourcedetect", []string{"-sources", "0,3", "-d", "4", "-k", "2"}, func() (ccsp.Stats, error) {
			res, err := ccsp.SourceDetection(ctx, g, []int{0, 3}, 4, 2, opts)
			return res.Stats, err
		}, false},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			base := append([]string{"-algo", tc.algo}, tc.args...)
			oneShot, err := ccspOut(t, append(base, m.graph)...)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, oneShotStats := split(oneShot)
			if len(wantRows) == 0 {
				t.Fatal("one-shot run printed no answer rows")
			}
			saved, err := ccspOut(t, append(base, "-save", filepath.Join(t.TempDir(), "s.snap"), "-graph", m.graph)...)
			if err != nil {
				t.Fatal(err)
			}
			_, savedStats := split(saved)
			want := counts(t, savedStats)
			for mode, args := range map[string][]string{
				"save":    nil, // the run above
				"load":    {"-load", m.snap},
				"server":  {"-server", m.server},
				"cluster": {"-cluster", m.cluster, "-graphid", "roads"},
			} {
				out := saved
				if args != nil {
					if out, err = ccspOut(t, append(base, args...)...); err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
				}
				rows, stats := split(out)
				if strings.Join(rows, "\n") != strings.Join(wantRows, "\n") {
					t.Errorf("%s rows differ from one-shot:\n%s\nwant:\n%s", mode, strings.Join(rows, "\n"), strings.Join(wantRows, "\n"))
				}
				// Counters, not the line: a replica with no default graph
				// reports no n for the kinds that carry no per-node vector.
				if got := counts(t, stats); got != want {
					t.Errorf("%s stats %v, want %v", mode, got, want)
				}
			}

			typed, err := tc.typed()
			if err != nil {
				t.Fatal(err)
			}
			if oneShotStats != typed.String() {
				t.Errorf("one-shot stats line %q, want the typed one-shot's %q", oneShotStats, typed)
			}
			if tc.merged {
				for _, line := range strings.Split(saved, "\n") {
					if strings.HasPrefix(line, "preprocess") {
						for i, v := range counts(t, line) {
							want[i] += v
						}
					}
				}
				if got := counts(t, oneShotStats); got != want {
					t.Errorf("one-shot stats %v, want query+preprocess %v", got, want)
				}
			}
		})
	}
}

// TestBatchEveryMode: a mixed batch file prints the same per-query
// answers and stats locally (graph file, -load) and remotely (-server,
// -cluster) once the mode-specific ledger lines are dropped - the
// comparison scripts/ccspd_smoke.sh makes on the built binaries.
func TestBatchEveryMode(t *testing.T) {
	m := setup(t)
	batch := filepath.Join(t.TempDir(), "q.txt")
	if err := os.WriteFile(batch, []byte(mixedBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	answers := func(args ...string) string {
		t.Helper()
		out, err := ccspOut(t, append([]string{"-batch", batch}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "preprocess") || strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "batch:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	want := answers(m.graph)
	if n := strings.Count(want, `query "`); n != 10 {
		t.Fatalf("local batch printed %d query lines, want 10:\n%s", n, want)
	}
	for mode, args := range map[string][]string{
		"load":    {"-load", m.snap},
		"server":  {"-server", m.server},
		"cluster": {"-cluster", m.cluster, "-graphid", "roads"},
	} {
		if got := answers(args...); got != want {
			t.Errorf("%s batch differs from the local batch:\n%s\nwant:\n%s", mode, got, want)
		}
	}
}

// TestGrammarErrorsEveryMode: an unknown -algo and a malformed batch line
// fail with parseQueryLine's message whichever mode would have answered.
func TestGrammarErrorsEveryMode(t *testing.T) {
	m := setup(t)
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("sssp 0\ndistance 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for mode, args := range map[string][]string{
		"one-shot": {m.graph},
		"save":     {"-save", filepath.Join(t.TempDir(), "s.snap"), m.graph},
		"load":     {"-load", m.snap},
		"server":   {"-server", m.server},
		"cluster":  {"-cluster", m.cluster, "-graphid", "roads"},
	} {
		_, err := ccspOut(t, append([]string{"-algo", "nope"}, args...)...)
		if err == nil || err.Error() != `unknown query "nope"` {
			t.Errorf("%s: unknown -algo: err = %v", mode, err)
		}
		_, err = ccspOut(t, append([]string{"-batch", bad}, args...)...)
		if want := bad + ":2: want 'distance from to'"; err == nil || err.Error() != want {
			t.Errorf("%s: malformed batch line: err = %v, want %q", mode, err, want)
		}
	}
}
