package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden response files under testdata/golden")

// goldenGraph is a fixed 8-node weighted ring with chords (the smoke
// script's graph). Everything a query returns on it - distances AND
// round/message/word stats - is deterministic, so whole JSON responses
// can be pinned byte-for-byte.
func goldenGraph(t testing.TB) *ccsp.Engine {
	t.Helper()
	return goldenEngine(t, ccsp.ExecSimulated)
}

// goldenEngine preprocesses the golden graph in the given execution mode.
func goldenEngine(t testing.TB, exec ccsp.Execution) *ccsp.Engine {
	t.Helper()
	gr := ccsp.NewGraph(8)
	for _, e := range [][3]int64{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 4, 4}, {4, 5, 2}, {5, 6, 5}, {6, 7, 1}, {7, 0, 3},
		{0, 4, 9}, {1, 5, 2}, {2, 6, 7},
	} {
		gr.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5, Execution: exec})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGoldenResponses pins the full JSON bytes of POST /v1/query for
// every algorithm (and one typed error) against committed golden files.
// A wire-schema change that alters any byte shows up as a diff here -
// the review gate the versioning policy of DESIGN.md §11 relies on. The
// engine is simulated: its stats objects are the paper's round, message
// and word counts, and this is the only test that pins them in wire form
// byte for byte.
// Regenerate intentionally with: go test ./internal/server -run Golden -update
func TestGoldenResponses(t *testing.T) {
	checkGolden(t, goldenGraph(t), false)
}

// indented reads a response body in the golden files' layout: the compact
// wire bytes under json.Indent's two-space indent, trailing newline kept.
// Whitespace is not part of the schema (DESIGN.md §11), so the files pin
// every other byte and never change when only the layout does.
func indented(t *testing.T, body io.Reader) []byte {
	t.Helper()
	raw, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	return buf.Bytes()
}

// statsBlock matches the top-level "stats" object of an indented
// api.Response.
var statsBlock = regexp.MustCompile(`(?s)\n  "stats": \{.*?\n  \},`)

// TestGoldenResponsesDirect holds ExecDirect to the same golden files,
// with the stats object (rounds and messages, which the kernels do not
// have) cut from both sides. ccspd serves only the direct kernels, so this
// pins the answers the daemon sends. Both backends share one shaping
// layer, so the differential oracle cannot see a shaping bug - both sides
// inherit it - but these absolute bytes can.
func TestGoldenResponsesDirect(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are written from the simulated run")
	}
	checkGolden(t, goldenEngine(t, ccsp.ExecDirect), true)
}

// checkGolden posts every golden case to a cache-less server over eng and
// compares the response with the golden file, both without their stats
// object when stripStats is set.
func checkGolden(t *testing.T, eng *ccsp.Engine, stripStats bool) {
	ts := newTestServer(t, eng, Config{CacheSize: -1}) // no cache: every response is a fresh run

	cases := []struct {
		name string
		body string
		code int
	}{
		{"sssp", `{"kind":"sssp","sssp":{"source":0}}`, http.StatusOK},
		{"mssp", `{"kind":"mssp","mssp":{"sources":[0,3]}}`, http.StatusOK},
		{"apsp_auto", `{"kind":"apsp"}`, http.StatusOK},
		{"apsp_weighted3", `{"kind":"apsp","apsp":{"variant":"weighted3"}}`, http.StatusOK},
		{"distance", `{"kind":"distance","distance":{"from":0,"to":5}}`, http.StatusOK},
		{"diameter", `{"kind":"diameter"}`, http.StatusOK},
		{"knearest", `{"kind":"knearest","knearest":{"k":3}}`, http.StatusOK},
		{"source_detection", `{"kind":"source_detection","source_detection":{"sources":[0,3],"d":4,"k":2}}`, http.StatusOK},
		{"error_invalid_source", `{"kind":"sssp","sssp":{"source":99}}`, http.StatusUnprocessableEntity},
		{"error_malformed_union", `{"kind":"sssp","mssp":{"sources":[1]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got := indented(t, resp.Body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.code, got)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if stripStats {
				got, want = statsBlock.ReplaceAll(got, nil), statsBlock.ReplaceAll(want, nil)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response bytes diverged from %s\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}

// TestGoldenUnweighted pins the auto-APSP resolution on a unit-weight
// graph (the unweighted Theorem 31 algorithm, with its two artifacts).
func TestGoldenUnweighted(t *testing.T) {
	gr := ccsp.NewGraph(8)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {1, 5}, {2, 6},
	} {
		gr.MustAddEdge(e[0], e[1], 1)
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, eng, Config{CacheSize: -1})

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"kind":"apsp"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := indented(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Contains(got, []byte(`"variant": "unweighted"`)) {
		t.Fatalf("auto on a unit-weight graph must resolve to unweighted: %s", got)
	}
	path := filepath.Join("testdata", "golden", "apsp_unweighted.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response bytes diverged from %s\n got: %s\nwant: %s", path, got, want)
	}
}
