package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/api"
)

// headerWriter is a ResponseWriter that keeps only what writeJSON decides:
// the headers, the status, the body.
type headerWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *headerWriter) Header() http.Header  { return w.h }
func (w *headerWriter) WriteHeader(code int) { w.code = code }
func (w *headerWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// TestWriteJSONSmallBodyAllocs: net/http labels a body under its chunking
// threshold with a Content-Length on its own, so a point answer must not
// pay for the header large answers get. writeAnswer reaches the append path
// without boxing the response and labels it with the one shared
// Content-Type slice, so a warm point answer allocates nothing at all (two
// objects before: the boxed value and the Content-Type slice).
func TestWriteJSONSmallBodyAllocs(t *testing.T) {
	resp := api.Response{Kind: api.KindDistance,
		Distance: &api.DistanceResult{From: 1, To: 100, Distance: 42, Reachable: true},
		Stats:    &api.Stats{TotalRounds: 3, SimRounds: 1, Messages: 100, Words: 200}}
	w := &headerWriter{h: make(http.Header), body: make([]byte, 0, 512)}
	// The least of many runs: the buffer and the envelope come from
	// sync.Pools, which a GC empties and the race detector makes forgetful
	// on purpose.
	allocs := uint64(math.MaxUint64)
	for run := 0; run < 100; run++ {
		var before, after runtime.MemStats
		delete(w.h, "Content-Type")
		runtime.ReadMemStats(&before)
		writeAnswer(w, answer{resp: resp})
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	if allocs > 0 {
		t.Errorf("writeAnswer of a distance response allocates %d times, want 0", allocs)
	}
	if w.code != http.StatusOK || w.h.Get("Content-Length") != "" || !strings.HasPrefix(string(w.body), `{"kind":"distance"`) {
		t.Errorf("small body: status %d, Content-Length %q, body %s", w.code, w.h.Get("Content-Length"), w.body)
	}
}

// TestWriteJSONAnnouncesLength: over real HTTP every body arrives with its
// length - large ones because writeJSON says so, small ones because
// net/http does - and never chunked.
func TestWriteJSONAnnouncesLength(t *testing.T) {
	large := api.Response{Kind: api.KindSSSP, SSSP: &api.SSSPResult{Dist: make([]int64, 4*chunkingThreshold)}}
	small := api.Health{Status: "ok", Nodes: 3}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/large" {
			writeResponse(w, http.StatusOK, &large)
			return
		}
		writeJSON(w, http.StatusOK, small)
	}))
	defer ts.Close()
	for _, path := range []string{"/large", "/small", "/large"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Errorf("%s: body is not one line of JSON: %.80s", path, body)
		}
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses becomes a typed
// 500 - nothing of a 200 has gone out by then - and the pooled writer that
// met it serves the next response.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := &headerWriter{h: make(http.Header)}
	writeJSON(w, http.StatusOK, map[string]float64{"uptime_seconds": math.NaN()})
	var e errorBody
	if err := json.Unmarshal(w.body, &e); err != nil || w.code != http.StatusInternalServerError ||
		e.Error == nil || e.Error.Code != api.CodeInternal || !strings.Contains(e.Error.Message, "NaN") {
		t.Errorf("unencodable value: status %d, body %s (%v)", w.code, w.body, err)
	}
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	if w.code != http.StatusOK || !strings.HasPrefix(string(w.body), `{"status":"ok"`) {
		t.Errorf("after a failed encode: status %d, body %s", w.code, w.body)
	}
}

// TestWriteJSONAppendedMatchesEncoder: an answer, with a large array or
// without, alone or in a batch, is appended rather than encoded
// (api.Response.AppendJSON),
// a cache hit's stored body is written or spliced into a batch as it is, and
// every body goes out as the bytes encoding/json writes, newline included,
// under the Content-Length they have.
func TestWriteJSONAppendedMatchesEncoder(t *testing.T) {
	dist := make(api.Matrix, 40)
	for u := range dist {
		dist[u] = make([]int64, 40)
		for v := range dist[u] {
			dist[u][v] = int64(u*v%13) - 1
		}
	}
	apsp := api.Response{Kind: api.KindAPSP, APSP: &api.APSPResult{Variant: api.APSPWeighted, Dist: dist}, Stats: &api.Stats{TotalRounds: 2}}
	knear := api.Response{Kind: api.KindKNearest, KNearest: &api.KNearestResult{K: 1,
		Neighbors: api.NeighborLists{{{Node: 0, Dist: 0, Hops: 0, FirstHop: -1}}, {}}}}
	small := api.Response{Kind: api.KindSSSP, SSSP: &api.SSSPResult{Source: 0, Dist: []int64{0, 4, -1}}}
	failed := api.Response{Kind: api.KindMSSP, Error: &api.Error{Code: api.CodeInvalidSource, Message: "node 99 out of range"}}
	diameter := api.Response{Kind: api.KindDiameter, Diameter: &api.DiameterResult{Estimate: 17}, Cached: true}
	// stored is what a hit on resp's cache entry sends.
	stored := func(resp api.Response) answer { return answer{body: newEntry(resp).body} }
	cachedAPSP := apsp
	cachedAPSP.Cached = true
	for _, tc := range []struct {
		name  string
		want  interface{} // what encoding/json is given
		write func(http.ResponseWriter)
	}{
		{"apsp", apsp, func(w http.ResponseWriter) { writeResponse(w, http.StatusOK, &apsp) }},
		{"knearest", knear, func(w http.ResponseWriter) { writeResponse(w, http.StatusOK, &knear) }},
		{"small", small, func(w http.ResponseWriter) { writeAnswer(w, answer{resp: small}) }},
		{"stored apsp", cachedAPSP, func(w http.ResponseWriter) { writeAnswer(w, stored(apsp)) }},
		{"stored diameter", diameter, func(w http.ResponseWriter) { writeAnswer(w, stored(diameter)) }},
		{"batch", api.BatchResponse{Responses: []api.Response{apsp, failed, knear, cachedAPSP, small, diameter}}, func(w http.ResponseWriter) {
			writeBatch(w, []answer{{resp: apsp}, {resp: failed}, {resp: knear}, stored(apsp), {resp: small}, stored(diameter)})
		}},
		{"empty", api.BatchResponse{Responses: []api.Response{}}, func(w http.ResponseWriter) { writeBatch(w, []answer{}) }},
	} {
		var want strings.Builder
		if err := json.NewEncoder(&want).Encode(tc.want); err != nil {
			t.Fatal(err)
		}
		w := &headerWriter{h: make(http.Header)}
		tc.write(w)
		if string(w.body) != want.String() {
			t.Errorf("%s: wrote\n%s\nencoding/json writes\n%s", tc.name, w.body, want.String())
		}
		wantLength := ""
		if want.Len() >= chunkingThreshold {
			wantLength = strconv.Itoa(want.Len())
		}
		if w.code != http.StatusOK || w.h.Get("Content-Length") != wantLength || w.h.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Length %q, Content-Type %q, want 200, %q and JSON",
				tc.name, w.code, w.h.Get("Content-Length"), w.h.Get("Content-Type"), wantLength)
		}
	}
}
