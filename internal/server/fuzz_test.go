package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// fuzzServer is one shared tiny engine + server for the fuzz run (built
// once: engine preprocessing is the expensive part, and the fuzz target
// only cares about the decode/validate/dispatch path).
var fuzzServer = struct {
	once sync.Once
	h    http.Handler
}{}

func fuzzHandler(t testing.TB) http.Handler {
	fuzzServer.once.Do(func() {
		eng := goldenGraph(t)
		s, err := New(Config{Engine: eng, CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		fuzzServer.h = s.Handler()
	})
	return fuzzServer.h
}

// FuzzQueryJSON asserts the /v1/query decoder's hardening contract over
// arbitrary JSON bodies: no panic, allocations capped by the request
// body limit (MaxBytesReader) plus the engine's own clamps (k and d
// clamp to n), and every outcome is a typed response - 200 with exactly
// one result, or 400/422 with a machine-readable error code. The
// committed seed corpus (testdata/fuzz/FuzzQueryJSON) covers every kind,
// each malformed-union class, out-of-range nodes, and oversized values.
func FuzzQueryJSON(f *testing.F) {
	seeds := []string{
		`{"kind":"sssp","sssp":{"source":0}}`,
		`{"kind":"mssp","mssp":{"sources":[0,3,5]}}`,
		`{"kind":"apsp","apsp":{"variant":"weighted3"}}`,
		`{"kind":"distance","distance":{"from":0,"to":7}}`,
		`{"kind":"diameter"}`,
		`{"kind":"knearest","knearest":{"k":3}}`,
		`{"kind":"source_detection","source_detection":{"sources":[0,3],"d":4,"k":2}}`,
		`{"kind":"sssp","mssp":{"sources":[1]}}`,                                              // union mismatch
		`{"kind":"bfs"}`,                                                                      // unknown kind
		`{"kind":"sssp","sssp":{"source":-9000000000000}}`,                                    // far out of range
		`{"kind":"mssp","mssp":{"sources":[0,0,0,0,0,0,0]}}`,                                  // duplicates
		`{"kind":"knearest","knearest":{"k":99999999}}`,                                       // clamped k
		`{"kind":"source_detection","source_detection":{"sources":[1],"d":2147483647,"k":1}}`, // clamped d
		`{"kind":`,                      // syntax error
		`{"kind":"diameter"}{"kind":1}`, // trailing garbage
		`[]`, `null`, `0`, `""`,         // wrong top-level types
		`{"kind":"mssp","mssp":{"sources":[]}}`, // empty source set -> 422
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		h := fuzzHandler(t)
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		switch rec.Code {
		case http.StatusOK:
			var resp api.Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with non-JSON body: %v\n%s", err, rec.Body.Bytes())
			}
			if resp.Error != nil {
				t.Fatalf("200 carrying an error: %+v", resp.Error)
			}
			results := 0
			for _, set := range []bool{resp.SSSP != nil, resp.MSSP != nil, resp.APSP != nil,
				resp.Distance != nil, resp.Diameter != nil, resp.KNearest != nil, resp.SourceDetection != nil} {
				if set {
					results++
				}
			}
			if results != 1 || resp.Stats == nil {
				t.Fatalf("200 with %d results (stats=%v): %s", results, resp.Stats != nil, rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%d with non-JSON body: %v\n%s", rec.Code, err, rec.Body.Bytes())
			}
			if e.Error == nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("%d without a typed error: %s", rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusBadRequest && e.Error.Code != api.CodeMalformed {
				t.Fatalf("400 with code %q, want malformed: %s", e.Error.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusUnprocessableEntity &&
				e.Error.Code != api.CodeInvalidSource && e.Error.Code != api.CodeInvalidOption {
				t.Fatalf("422 with code %q: %s", e.Error.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// fuzzBase is the immutable engine every FuzzUpdateJSON input wraps in a
// DynamicEngine of its own, so each input starts at epoch 0 and a failure
// reproduces from its corpus entry alone.
var fuzzBase = struct {
	once sync.Once
	eng  *ccsp.Engine
}{}

// FuzzUpdateJSON is FuzzQueryJSON for the write path: over arbitrary
// /v1/update bodies the handler never panics, every rejection is a typed
// 4xx carrying a decodable api.Error, and the epoch only ever moves
// forward - by exactly the one generation an accepted body stages, and
// not at all for a rejected one.
func FuzzUpdateJSON(f *testing.F) {
	for _, s := range []string{
		`{"updates":[{"u":0,"v":1,"w":5}]}`,
		`{"updates":[{"u":0,"v":1,"w":-1}]}`,                    // delete
		`{"updates":[{"u":0,"v":4,"w":1},{"u":0,"v":4,"w":2}]}`, // reweight twice in one batch
		`{"updates":[{"u":2,"v":6,"w":0}],"async":true}`,        // staged, answered pending
		`{"updates":[{"u":3,"v":3,"w":1}]}`,                     // self-loop -> 422
		`{"updates":[{"u":0,"v":99,"w":1}]}`,                    // out of range -> 422
		`{"updates":[{"u":0,"v":1,"w":9223372036854775807}]}`,   // weight at the int64 edge
		`{"updates":[]}`, // empty batch -> 400
		`{"graph":"nope","updates":[{"u":0,"v":1,"w":1}]}`, // unknown graph -> 404
		`{"graph":"a b","updates":[{"u":0,"v":1,"w":1}]}`,  // bad graph ID -> 400
		`{"updates":[{"u":0,"v":1,"w":1}]}{"updates":[]}`,  // trailing garbage
		`{"updates":`, `[]`, `null`, `0`, `""`, `{"updates":[null]}`, // syntax / wrong types
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		fuzzBase.once.Do(func() { fuzzBase.eng = goldenEngine(t, ccsp.ExecDirect) })
		dyn := ccsp.NewDynamicEngine(fuzzBase.eng)
		defer dyn.Close()
		s, err := New(Config{Deferred: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDynamicGraph("", dyn); err != nil {
			t.Fatal(err)
		}
		s.SetReady()

		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(body))) // must not panic
		switch rec.Code {
		case http.StatusOK:
			var ur api.UpdateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
				t.Fatalf("200 with non-JSON body: %v\n%s", err, rec.Body.Bytes())
			}
			if ur.Epoch != 1 || ur.Applied < 1 {
				t.Fatalf("accepted update answered %+v, want epoch 1 and >= 1 applied", ur)
			}
			// A synchronous 200 means the generation already serves; an
			// async one may still be building (or may yet fail and burn
			// its epoch), but can never have run past it.
			if got := dyn.Epoch(); got > 1 || (!ur.Pending && got != 1) {
				t.Fatalf("epoch %d after %+v", got, ur)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%d with non-JSON body: %v\n%s", rec.Code, err, rec.Body.Bytes())
			}
			if e.Error == nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("%d without a typed error: %s", rec.Code, rec.Body.Bytes())
			}
			if got := dyn.Epoch(); got != 0 {
				t.Fatalf("rejected update (%d %s) moved the epoch to %d", rec.Code, e.Error.Code, got)
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
