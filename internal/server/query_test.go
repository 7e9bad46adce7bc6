package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// postJSON POSTs body to url and decodes the response, asserting the
// status code.
func postJSON(t *testing.T, url, body string, wantCode int, out interface{}) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", url, err, raw)
		}
	}
	return raw
}

// TestQueryEndpointAllKinds: every request kind through POST /v1/query
// answers identically to the direct Engine.Query call.
func TestQueryEndpointAllKinds(t *testing.T) {
	_, eng := testEngine(t, 16)
	ts := newTestServer(t, eng, Config{})

	reqs := []string{
		`{"kind":"sssp","sssp":{"source":3}}`,
		`{"kind":"mssp","mssp":{"sources":[2,5]}}`,
		`{"kind":"apsp"}`,
		`{"kind":"apsp","apsp":{"variant":"weighted3"}}`,
		`{"kind":"distance","distance":{"from":2,"to":9}}`,
		`{"kind":"diameter"}`,
		`{"kind":"knearest","knearest":{"k":3}}`,
		`{"kind":"source_detection","source_detection":{"sources":[0,5],"d":3,"k":2}}`,
	}
	for _, body := range reqs {
		var req api.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want, err := eng.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: direct query: %v", body, err)
		}
		var got api.Response
		postJSON(t, ts.URL+"/v1/query", body, http.StatusOK, &got)
		got.Cached = want.Cached // the HTTP path may answer from cache
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: HTTP response differs from direct Engine.Query\n got %+v\nwant %+v", body, got, want)
		}
	}
}

// TestQueryEndpointSharesLegacyCache: requests that plan onto the same
// run key one cache entry - a repeated query, a distance and the
// single-source MSSP it rewrites to, an auto APSP and the variant it
// resolves to.
func TestQueryEndpointSharesLegacyCache(t *testing.T) {
	_, eng := testEngine(t, 12)
	ts := newTestServer(t, eng, Config{CacheSize: 16})

	var first, again api.Response
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":1}}`, http.StatusOK, &first)
	if first.Cached {
		t.Error("first POST sssp already cached")
	}
	postQuery(t, ts.URL, `{"kind":"sssp","sssp":{"source":1}}`, http.StatusOK, &again)
	if !again.Cached {
		t.Error("repeated sssp missed the cache")
	}
	if !reflect.DeepEqual(again.SSSP, first.SSSP) {
		t.Error("cached answer differs from the run that filled it")
	}

	// A distance query warms the single-source MSSP entry.
	var dist, mssp api.Response
	postQuery(t, ts.URL, `{"kind":"distance","distance":{"from":4,"to":7}}`, http.StatusOK, &dist)
	postQuery(t, ts.URL, `{"kind":"mssp","mssp":{"sources":[4]}}`, http.StatusOK, &mssp)
	if !mssp.Cached {
		t.Error("distance POST did not warm the mssp cache entry")
	}

	// Auto and explicit APSP variants share one entry (auto resolves
	// before keying).
	var auto, resolved api.Response
	postQuery(t, ts.URL, `{"kind":"apsp"}`, http.StatusOK, &auto)
	postQuery(t, ts.URL, fmt.Sprintf(`{"kind":"apsp","apsp":{"variant":"%s"}}`, auto.APSP.Variant), http.StatusOK, &resolved)
	if !resolved.Cached {
		t.Error("explicit variant missed the entry auto warmed")
	}
}

// TestCacheHitBodyMatchesMiss: an LRU entry is the wire bytes a hit sends
// (plus, for a one-source MSSP, the column a distance hit projects from), so
// for every kind - sssp, mssp at q = 1 and 8, apsp auto and explicit,
// knearest, source detection, diameter, distance - a hit's body is the
// miss's with the cached flag flipped, byte for byte, and the miss's is a
// cold engine's answer: through /v1/query, and position by position through
// /v1/batch bodies that mix hits, misses and duplicates. A distance hit on
// the entry an mssp [src] miss stored, and an mssp [src] hit on the entry a
// distance miss stored, are a cold engine's answers too. Last, concurrent
// /v1/query and /v1/batch hits and projections read one stored slice and
// one column (run under -race: nothing may write an entry once stored), and
// concurrent misses on a small cache each give their lent buffer back only
// after their write. The graph has two components, so the answers hold wire
// sentinels.
func TestCacheHitBodyMatchesMiss(t *testing.T) {
	ctx := context.Background()
	gr := ccsp.NewGraph(8)
	for _, e := range [][3]int64{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {4, 5, 2}, {5, 6, 4}, {6, 7, 1}} {
		gr.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	opts := ccsp.Options{Epsilon: 0.5, Execution: ccsp.ExecDirect}
	eng, err := ccsp.NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldEng, err := ccsp.NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	distReq := func(from, to int) string {
		return fmt.Sprintf(`{"kind":"distance","distance":{"from":%d,"to":%d}}`, from, to)
	}
	msspReq := func(sources ...int) string {
		b, err := json.Marshal(api.MSSP(sources...))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// cold is a cold engine's answer to req, as a cache miss sends it
	// (no newline: a batch position).
	cold := func(req string) []byte {
		var r api.Request
		if err := json.Unmarshal([]byte(req), &r); err != nil {
			t.Fatal(err)
		}
		resp, err := coldEng.Query(ctx, r)
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(b, []byte(`,"cached":false}`)) {
			t.Fatalf("%s: a cold answer ends %s", req, b[max(len(b)-20, 0):])
		}
		return b
	}
	hit := func(miss []byte) []byte {
		return append(bytes.Clone(bytes.TrimSuffix(miss, []byte(`false}`))), `true}`...)
	}
	query := func(url, req string) []byte {
		return bytes.TrimSuffix(postJSON(t, url+"/v1/query", req, http.StatusOK, nil), []byte("\n"))
	}
	batch := func(url string, reqs []string) []json.RawMessage {
		var br struct{ Responses []json.RawMessage }
		postJSON(t, url+"/v1/batch", `{"requests":[`+strings.Join(reqs, ",")+`]}`, http.StatusOK, &br)
		if len(br.Responses) != len(reqs) {
			t.Fatalf("%d batch positions answered, want %d", len(br.Responses), len(reqs))
		}
		return br.Responses
	}

	all := []string{
		`{"kind":"sssp","sssp":{"source":2}}`,
		msspReq(1),
		msspReq(0, 1, 2, 3, 4, 5, 6, 7),
		`{"kind":"apsp"}`,
		`{"kind":"apsp","apsp":{"variant":"weighted3"}}`,
		`{"kind":"knearest","knearest":{"k":3}}`,
		`{"kind":"source_detection","source_detection":{"sources":[0,5,6],"d":3,"k":2}}`,
		`{"kind":"diameter"}`,
		distReq(5, 7),
	}
	want := make(map[string][]byte)
	for _, req := range append(all, `{"kind":"apsp","apsp":{"variant":"weighted"}}`) {
		want[req] = cold(req)
	}
	if !bytes.Contains(want[msspReq(1)], []byte(`[-1]`)) {
		t.Fatalf("the other component must read -1 on the wire: %s", want[msspReq(1)])
	}

	// /v1/query: the miss, then the hit.
	ts := newTestServer(t, eng, Config{CacheSize: 32})
	for _, req := range all {
		if got := query(ts.URL, req); !bytes.Equal(got, want[req]) {
			t.Errorf("%s: miss %s, cold engine %s", req, got, want[req])
		}
		if got := query(ts.URL, req); !bytes.Equal(got, hit(want[req])) {
			t.Errorf("%s: hit %s, want %s", req, got, hit(want[req]))
		}
	}
	// The auto apsp stored the entry its explicit variant hits.
	explicit := `{"kind":"apsp","apsp":{"variant":"weighted"}}`
	if got := query(ts.URL, explicit); !bytes.Equal(got, hit(want[explicit])) {
		t.Errorf("%s after auto: %s, want the hit %s", explicit, got, hit(want[explicit]))
	}

	// /v1/batch: every other kind warmed by a query, the rest missed in the
	// batch, each asked twice; then all of it again, every position a hit.
	ts = newTestServer(t, eng, Config{CacheSize: 32})
	warm := make(map[string]bool)
	for i, req := range all {
		if i%2 == 0 {
			query(ts.URL, req)
			warm[req] = true
		}
	}
	twice := append(append([]string(nil), all...), all...)
	for round := 0; round < 2; round++ {
		for i, got := range batch(ts.URL, twice) {
			req, w := twice[i], want[twice[i]]
			if round == 1 || warm[req] {
				w = hit(w)
			}
			if !bytes.Equal(got, w) {
				t.Errorf("batch round %d, position %d (%s): %s, want %s", round, i, req, got, w)
			}
		}
	}

	// One entry, two kinds: mssp [src] stores what distance hits project,
	// and a distance miss stores what mssp [src] hits send.
	ts = newTestServer(t, eng, Config{CacheSize: 32})
	query(ts.URL, msspReq(1))
	batch(ts.URL, []string{distReq(6, 4)})
	for to := 0; to < gr.N(); to++ {
		for _, from := range []int{1, 6} {
			req := distReq(from, to)
			w := hit(cold(req))
			if got := query(ts.URL, req); !bytes.Equal(got, w) {
				t.Errorf("%s off the mssp [%d] entry: %s, want %s", req, from, got, w)
			}
			if got := batch(ts.URL, []string{req})[0]; !bytes.Equal(got, w) {
				t.Errorf("%s off the mssp [%d] entry, in a batch: %s, want %s", req, from, got, w)
			}
		}
	}
	ts = newTestServer(t, eng, Config{CacheSize: 32})
	query(ts.URL, distReq(2, 5))
	batch(ts.URL, []string{distReq(7, 0)})
	for _, src := range []int{2, 7} {
		w := hit(cold(msspReq(src)))
		if got := query(ts.URL, msspReq(src)); !bytes.Equal(got, w) {
			t.Errorf("mssp [%d] off a distance's entry: %s, want %s", src, got, w)
		}
		if got := batch(ts.URL, []string{msspReq(src)})[0]; !bytes.Equal(got, w) {
			t.Errorf("mssp [%d] off a distance's entry, in a batch: %s, want %s", src, got, w)
		}
	}

	// Concurrent hits on one daemon's entries.
	ts = newTestServer(t, eng, Config{CacheSize: 32})
	wantDist := make([][]byte, gr.N())
	for to := range wantDist {
		wantDist[to] = hit(cold(distReq(1, to)))
	}
	query(ts.URL, msspReq(1))
	query(ts.URL, `{"kind":"apsp"}`)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				to := (g + i) % gr.N()
				reqs := []string{msspReq(1), distReq(1, to), `{"kind":"apsp"}`}
				wants := [][]byte{hit(want[msspReq(1)]), wantDist[to], hit(want[`{"kind":"apsp"}`])}
				url, body := ts.URL+"/v1/query", reqs[i%3]
				if g%2 == 1 {
					url, body = ts.URL+"/v1/batch", `{"requests":[`+strings.Join(reqs, ",")+`]}`
				}
				got, err := postRaw(url, body)
				if err != nil {
					errs <- err
					return
				}
				if g%2 == 0 {
					if w := append(bytes.Clone(wants[i%3]), '\n'); !bytes.Equal(got, w) {
						errs <- fmt.Errorf("%s: hit body %s, want %s", body, got, w)
						return
					}
					continue
				}
				w := append(append([]byte(`{"responses":[`), bytes.Join(wants, []byte(","))...), "]}\n"...)
				if !bytes.Equal(got, w) {
					errs <- fmt.Errorf("%s: batch body %s, want %s", body, got, w)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// Concurrent misses, hits and evictions on a four-entry cache: each miss
	// answers lent and gives its plane, table or backing back after the
	// write, so one given back before would be the next miss's scratch
	// while its body is still being written.
	ts = newTestServer(t, eng, Config{CacheSize: 4})
	churn := []string{msspReq(0, 1, 2, 3, 4, 5, 6, 7), `{"kind":"apsp"}`, `{"kind":"knearest","knearest":{"k":3}}`,
		`{"kind":"source_detection","source_detection":{"sources":[0,5,6],"d":3,"k":2}}`, distReq(3, 6), distReq(6, 3)}
	for src := 0; src < gr.N(); src++ {
		churn = append(churn, msspReq(src))
	}
	for _, req := range churn {
		want[req] = cold(req)
	}
	unflag := func(body []byte) []byte {
		return bytes.ReplaceAll(body, []byte(`"cached":true`), []byte(`"cached":false`))
	}
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				reqs := []string{churn[(g+i)%len(churn)], churn[(3*g+i+5)%len(churn)], churn[(5*g+2*i+1)%len(churn)]}
				url, body := ts.URL+"/v1/query", reqs[0]
				w := append(bytes.Clone(want[reqs[0]]), '\n')
				if i%2 == 1 {
					url, body = ts.URL+"/v1/batch", `{"requests":[`+strings.Join(reqs, ",")+`]}`
					w = []byte(`{"responses":[`)
					for j, req := range reqs {
						if j > 0 {
							w = append(w, ',')
						}
						w = append(w, want[req]...)
					}
					w = append(w, "]}\n"...)
				}
				got, err := postRaw(url, body)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(unflag(got), w) {
					errs <- fmt.Errorf("%s: body %s, want %s", body, got, w)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// postRaw POSTs body to url and returns the response body, whatever the
// status.
func postRaw(url, body string) ([]byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestDistanceBodyCacheOffMatchesOn: with the cache off a daemon answers
// through Plan.Answer - a distance by its one-cell read, an mssp, apsp,
// knearest or source detection lent and given back after the write - with
// it on by run, store and finish, and the two give the same bytes, the
// cached flag of a hit aside: for every distance pair of a two-component
// graph (from == to and the unreachable pairs included), an mssp at q = 1
// and 8, all three apsp variants, knearest at k = 4 and 11 (past n) and a
// source detection, in both execution modes, for the miss that fills the
// entry and the hit that reads it, and for a request that fails.
func TestDistanceBodyCacheOffMatchesOn(t *testing.T) {
	gr := ccsp.NewGraph(8)
	for _, e := range [][3]int64{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {4, 5, 2}, {5, 6, 4}, {6, 7, 1}} {
		gr.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	for _, exec := range []ccsp.Execution{ccsp.ExecSimulated, ccsp.ExecDirect} {
		eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5, Execution: exec})
		if err != nil {
			t.Fatal(err)
		}
		off := newTestServer(t, eng, Config{CacheSize: -1})
		// same is the cache-off body of req, checked against a fresh
		// cache-on daemon's miss and hit.
		same := func(req string) []byte {
			on := newTestServer(t, eng, Config{CacheSize: 16})
			defer on.Close()
			want := postJSON(t, off.URL+"/v1/query", req, http.StatusOK, nil)
			if miss := postJSON(t, on.URL+"/v1/query", req, http.StatusOK, nil); !bytes.Equal(miss, want) {
				t.Errorf("%s (%s): cache-on miss %s, cache-off %s", req, exec, miss, want)
			}
			hit := postJSON(t, on.URL+"/v1/query", req, http.StatusOK, nil)
			if !bytes.Equal(bytes.Replace(hit, []byte(`"cached":true`), []byte(`"cached":false`), 1), want) {
				t.Errorf("%s (%s): cache-on hit %s, cache-off %s", req, exec, hit, want)
			}
			return want
		}
		for from := 0; from < gr.N(); from++ {
			for to := 0; to < gr.N(); to++ {
				req := fmt.Sprintf(`{"kind":"distance","distance":{"from":%d,"to":%d}}`, from, to)
				if across := (from < 4) != (to < 4); across != bytes.Contains(same(req), []byte(`"distance":-1,"reachable":false`)) {
					t.Fatalf("%s (%s): reachability wrong", req, exec)
				}
			}
		}
		for _, req := range []string{
			`{"kind":"mssp","mssp":{"sources":[5]}}`,
			`{"kind":"mssp","mssp":{"sources":[0,1,2,3,4,5,6,7]}}`,
			`{"kind":"apsp","apsp":{"variant":"weighted"}}`,
			`{"kind":"apsp","apsp":{"variant":"weighted3"}}`,
			`{"kind":"apsp","apsp":{"variant":"unweighted"}}`,
		} {
			if !bytes.Contains(same(req), []byte(`-1`)) {
				t.Errorf("%s (%s): no unreachable cell across the two components", req, exec)
			}
		}
		for _, req := range []string{
			`{"kind":"knearest","knearest":{"k":4}}`,
			`{"kind":"knearest","knearest":{"k":11}}`,
			`{"kind":"source_detection","source_detection":{"sources":[0,5,6],"d":3,"k":2}}`,
		} {
			same(req)
		}
		on := newTestServer(t, eng, Config{CacheSize: 16})
		bad := `{"kind":"distance","distance":{"from":9,"to":0}}`
		if got, want := postJSON(t, on.URL+"/v1/query", bad, http.StatusUnprocessableEntity, nil),
			postJSON(t, off.URL+"/v1/query", bad, http.StatusUnprocessableEntity, nil); !bytes.Equal(got, want) {
			t.Errorf("%s (%s): cache-on %s, cache-off %s", bad, exec, got, want)
		}
	}
}

// TestLentAnswerRecycled: a cache-off daemon lends every mssp plane, apsp
// table and knearest or source-detection neighbor backing it answers and
// takes it back once writeJSON has returned. Four clients post mssp (q = 1,
// 8 and n - the last a plane the size of the n×n table), all three apsp
// variants, a distance, knearest at k = 4…11 and a source detection at once
// to one direct engine, while one of them also takes and holds that
// engine's own Engine.MSSP, Engine.APSP, Engine.KNearest and
// Engine.SourceDetection answers: every body equals a cold engine's
// answer, and so does every held answer once all the bodies are in. A
// release before the write hands the buffer to the next query while its
// body is still being encoded, and fails this test.
func TestLentAnswerRecycled(t *testing.T) {
	ctx := context.Background()
	gr := randomGraph(64)
	opts := ccsp.Options{Epsilon: 0.5, Execution: ccsp.ExecDirect}
	cold, err := ccsp.NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ccsp.NewEngine(ctx, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, eng, Config{CacheSize: -1})
	n := gr.N()
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	detectFrom := []int{1, 14, 27, 40, 53}
	reqs := []api.Request{api.MSSP(5), api.MSSP(0, 9, 18, 27, 36, 45, 54, 63), api.MSSP(all...),
		api.APSP(api.APSPWeighted), api.APSP(api.APSPWeighted3), api.APSP(api.APSPUnweighted), api.Distance(3, 40),
		api.SourceDetection(detectFrom, 6, 3)}
	for k := 4; k <= 11; k++ {
		reqs = append(reqs, api.KNearest(k))
	}
	bodies := make([]string, len(reqs))
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
		resp, err := cold.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
	}
	type held struct {
		mssp, apsp      [][]int64
		knear, detected [][]ccsp.Neighbor
	}
	// ask takes one set of owned answers from e.
	ask := func(e *ccsp.Engine) (h held, err error) {
		m, err := e.MSSP(ctx, all)
		if err != nil {
			return h, err
		}
		a, err := e.APSP(ctx)
		if err != nil {
			return h, err
		}
		kn, err := e.KNearest(ctx, 11)
		if err != nil {
			return h, err
		}
		sd, err := e.SourceDetection(ctx, detectFrom, 6, 3)
		if err != nil {
			return h, err
		}
		return held{m.Dist, a.Dist, kn.Neighbors, sd.Detected}, nil
	}
	wantHeld, err := ask(cold)
	if err != nil {
		t.Fatal(err)
	}

	var kept []held // touched by client 0 alone until Wait
	keep := func() error {
		h, err := ask(eng)
		if err == nil {
			kept = append(kept, h)
		}
		return err
	}
	if err := keep(); err != nil {
		t.Fatal(err)
	}
	// 192 rounds of the 16 requests: at 96 a release before the write went
	// unseen in 3 of 10 runs without -race.
	const answers, clients = 192 * 16, 4
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < answers; i += clients {
				if c == 0 && i%len(reqs) == 0 {
					if err := keep(); err != nil {
						errs <- err
						return
					}
				}
				j := i % len(reqs)
				var got json.RawMessage
				if err := fetch(ts.URL+"/v1/query", bodies[j], &got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[j]) {
					errs <- fmt.Errorf("body %d for %s differs from a cold engine's answer", i, bodies[j])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, h := range kept {
		if !reflect.DeepEqual(h, wantHeld) {
			t.Errorf("held answers %d changed after %d lent answers were given back", i, answers)
		}
	}
}

// TestQueryEndpointErrors pins the typed 400/422 (and 405) behavior of
// the POST plane: structural problems are 400 CodeMalformed, semantic
// ones 422 with the engine's code.
func TestQueryEndpointErrors(t *testing.T) {
	_, eng := testEngine(t, 10)
	ts := newTestServer(t, eng, Config{})

	for _, tc := range []struct {
		name string
		body string
		code int
		want api.ErrorCode
	}{
		{"syntax", `{"kind":`, http.StatusBadRequest, api.CodeMalformed},
		{"unknown-kind", `{"kind":"bfs"}`, http.StatusBadRequest, api.CodeMalformed},
		{"union-mismatch", `{"kind":"sssp","mssp":{"sources":[1]}}`, http.StatusBadRequest, api.CodeMalformed},
		{"missing-payload", `{"kind":"knearest"}`, http.StatusBadRequest, api.CodeMalformed},
		{"out-of-range", `{"kind":"sssp","sssp":{"source":99}}`, http.StatusUnprocessableEntity, api.CodeInvalidSource},
		{"negative-source", `{"kind":"mssp","mssp":{"sources":[-2]}}`, http.StatusUnprocessableEntity, api.CodeInvalidSource},
		{"distance-to-range", `{"kind":"distance","distance":{"from":0,"to":1000}}`, http.StatusUnprocessableEntity, api.CodeInvalidSource},
		{"bad-k", `{"kind":"knearest","knearest":{"k":0}}`, http.StatusUnprocessableEntity, api.CodeInvalidOption},
		{"bad-d", `{"kind":"source_detection","source_detection":{"sources":[0],"d":0,"k":1}}`, http.StatusUnprocessableEntity, api.CodeInvalidOption},
	} {
		var e errorBody
		postJSON(t, ts.URL+"/v1/query", tc.body, tc.code, &e)
		if e.Error == nil || e.Error.Code != tc.want {
			t.Errorf("%s: error %+v, want code %q", tc.name, e.Error, tc.want)
		}
		if e.Error != nil && e.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// GET on the POST plane is 405.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchEndpoint: a mixed batch answers every position - successes,
// typed failures, duplicates and cache hits - and matches direct engine
// calls.
func TestBatchEndpoint(t *testing.T) {
	_, eng := testEngine(t, 14)
	ts := newTestServer(t, eng, Config{CacheSize: 16})

	// Warm one entry so the batch exercises the hit path.
	postJSON(t, ts.URL+"/v1/query", `{"kind":"diameter"}`, http.StatusOK, nil)

	body := `{"requests":[
		{"kind":"mssp","mssp":{"sources":[0,3]}},
		{"kind":"sssp","sssp":{"source":2}},
		{"kind":"diameter"},
		{"kind":"sssp","sssp":{"source":777}},
		{"kind":"mssp"},
		{"kind":"distance","distance":{"from":0,"to":5}},
		{"kind":"mssp","mssp":{"sources":[3,0,3]}}
	]}`
	var br api.BatchResponse
	postJSON(t, ts.URL+"/v1/batch", body, http.StatusOK, &br)
	if len(br.Responses) != 7 {
		t.Fatalf("%d responses, want 7", len(br.Responses))
	}
	r := br.Responses
	wantM, err := eng.Query(context.Background(), api.Request{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{0, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Error != nil || !reflect.DeepEqual(r[0].MSSP, wantM.MSSP) {
		t.Errorf("batch[0] mssp differs from direct call: %+v", r[0].Error)
	}
	if r[1].Error != nil || r[1].SSSP == nil {
		t.Errorf("batch[1] sssp failed: %+v", r[1].Error)
	}
	if r[2].Error != nil || !r[2].Cached {
		t.Errorf("batch[2] diameter should be a cache hit: err=%+v cached=%v", r[2].Error, r[2].Cached)
	}
	if r[3].Error == nil || r[3].Error.Code != api.CodeInvalidSource {
		t.Errorf("batch[3] error %+v, want invalid_source", r[3].Error)
	}
	if r[4].Error == nil || r[4].Error.Code != api.CodeMalformed {
		t.Errorf("batch[4] error %+v, want malformed", r[4].Error)
	}
	if r[5].Error != nil || r[5].Distance == nil || r[5].Kind != api.KindDistance {
		t.Errorf("batch[5] distance failed: %+v", r[5])
	}
	// Position 6 duplicates position 0 (same canonical sources).
	if !reflect.DeepEqual(r[6].MSSP, r[0].MSSP) {
		t.Error("batch[6] duplicate did not share batch[0]'s answer")
	}

	// The batch refilled the cache: re-running it answers entirely from
	// cache (every success Cached).
	var again api.BatchResponse
	postJSON(t, ts.URL+"/v1/batch", body, http.StatusOK, &again)
	for i, resp := range again.Responses {
		if resp.Error == nil && !resp.Cached {
			t.Errorf("rerun batch[%d] not served from cache", i)
		}
	}

	// Per-position failures feed the serving stats even inside a 200
	// batch (each run carried 2 failing positions).
	var st struct {
		Requests map[string]int64 `json:"requests"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Requests["errors"] < 4 {
		t.Errorf("stats errors = %d after 2 batches with 2 failing positions each", st.Requests["errors"])
	}
}

// TestBatchSharedRunDistinctProjections: positions that coalesce onto
// one engine run (two distances from the same source, plus the plain
// single-source MSSP they rewrite to) still project their own responses
// - the regression guard for per-position plans inside a shared miss
// group.
func TestBatchSharedRunDistinctProjections(t *testing.T) {
	_, eng := testEngine(t, 12)
	ts := newTestServer(t, eng, Config{CacheSize: 16})

	body := `{"requests":[
		{"kind":"distance","distance":{"from":2,"to":5}},
		{"kind":"distance","distance":{"from":2,"to":9}},
		{"kind":"mssp","mssp":{"sources":[2]}}
	]}`
	var before, after struct {
		Requests map[string]int64 `json:"requests"`
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &before)
	var br api.BatchResponse
	postJSON(t, ts.URL+"/v1/batch", body, http.StatusOK, &br)
	if len(br.Responses) != 3 {
		t.Fatalf("%d responses, want 3", len(br.Responses))
	}
	// Three answered positions, one engine run: queries counts positions.
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &after)
	for key, want := range map[string]int64{"queries": 3, "batch_requests": 3, "batch_engine_runs": 1} {
		if got := after.Requests[key] - before.Requests[key]; got != want {
			t.Errorf("stats %s moved by %d over the batch, want %d", key, got, want)
		}
	}
	want, err := eng.Query(context.Background(), api.Request{Kind: api.KindMSSP, MSSP: &api.MSSPParams{Sources: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, m := br.Responses[0], br.Responses[1], br.Responses[2]
	if d0.Error != nil || d1.Error != nil || m.Error != nil {
		t.Fatalf("errors: %+v %+v %+v", d0.Error, d1.Error, m.Error)
	}
	if d0.Distance.To != 5 || d1.Distance.To != 9 {
		t.Fatalf("projections mixed up: to=%d and to=%d", d0.Distance.To, d1.Distance.To)
	}
	if d0.Distance.Distance != want.MSSP.Dist[5][0] || d1.Distance.Distance != want.MSSP.Dist[9][0] {
		t.Error("shared-run distances do not match the MSSP row")
	}
	if m.Kind != api.KindMSSP || !reflect.DeepEqual(m.MSSP, want.MSSP) {
		t.Error("plain mssp position was not answered as mssp")
	}
	// One engine run for all three: the shared entry is now cached.
	var probe api.Response
	postJSON(t, ts.URL+"/v1/query", `{"kind":"mssp","mssp":{"sources":[2]}}`, http.StatusOK, &probe)
	if !probe.Cached {
		t.Error("shared run did not warm the cache")
	}
}

// TestBatchEndpointErrors pins the top-level failure modes.
func TestBatchEndpointErrors(t *testing.T) {
	_, eng := testEngine(t, 10)
	ts := newTestServer(t, eng, Config{})

	var e errorBody
	postJSON(t, ts.URL+"/v1/batch", `{"requests":[]}`, http.StatusBadRequest, &e)
	if e.Error == nil || e.Error.Code != api.CodeMalformed {
		t.Errorf("empty batch: %+v", e.Error)
	}

	var reqs []string
	for i := 0; i <= maxBatchRequests; i++ {
		reqs = append(reqs, `{"kind":"diameter"}`)
	}
	over := `{"requests":[` + strings.Join(reqs, ",") + `]}`
	postJSON(t, ts.URL+"/v1/batch", over, http.StatusBadRequest, &e)
	if e.Error == nil || !strings.Contains(e.Error.Message, "exceeds") {
		t.Errorf("oversized batch: %+v", e.Error)
	}

	postJSON(t, ts.URL+"/v1/batch", `{"requests":`, http.StatusBadRequest, &e)
	if e.Error == nil || e.Error.Code != api.CodeMalformed {
		t.Errorf("bad JSON batch: %+v", e.Error)
	}
}

// TestBatchTimeout: the server timeout covers the whole batch; expired
// positions report typed deadline errors while the batch still returns
// 200 (the context fires mid-run, after at least the decode succeeded).
func TestBatchTimeout(t *testing.T) {
	_, eng := testEngine(t, 24)
	ts := newTestServer(t, eng, Config{Timeout: time.Nanosecond})
	body := `{"requests":[{"kind":"diameter"},{"kind":"sssp","sssp":{"source":1}}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var br api.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		for i, r := range br.Responses {
			if r.Error == nil || r.Error.Code != api.CodeDeadline {
				t.Errorf("position %d: %+v, want deadline_exceeded", i, r.Error)
			}
		}
	case http.StatusGatewayTimeout:
		// The deadline fired before the engine saw the batch at all.
	default:
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}
