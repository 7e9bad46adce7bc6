package api

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// FuzzResponseJSON holds Response's decoder to encoding/json decoding the
// same bytes into plainResponse (Response with no decoder of its own): the
// same inputs accepted, the same value held - called bare, the way the
// client calls it, through json.Unmarshal, and as an element of a batch.
func FuzzResponseJSON(f *testing.F) {
	golden, err := filepath.Glob("../internal/server/testdata/golden/*.json")
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden responses to seed from (%v)", err)
	}
	for _, name := range golden {
		body, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-2])
	}
	for _, seed := range []string{
		`null`, `{}`, ` { } `, `[]`, ``,
		`{"kind":"apsp","apsp":{"variant":"weighted","dist":[[0,4],[4,0]]},"stats":{"total_rounds":3},"cached":false}`,
		"{ \"kind\" : \"mssp\" ,\n\t\"mssp\" : { \"sources\" : [ 0 , 1 ] , \"dist\" : [ [ 0 , -1 ] ,\r\n[ -1 , 0 ] ] } , \"cached\" : true }\n",
		`{"kind":"sssp","sssp":{"source":0,"dist":[0,3,-1],"iterations":2},"cached":false}`,
		`{"kind":"knearest","knearest":{"k":1,"neighbors":[[{"node":0,"dist":0,"hops":0,"first_hop":-1}],[]]},"cached":false}`,
		`{"kind":"source_detection","source_detection":{"d":2,"k":1,"detected":[[],[{"node":0,"dist":3,"hops":1,"first_hop":-1}]]}}`,
		// The array's key where it is not the array's key.
		`{"graph":"\"dist\":[[","apsp":{"variant":"\"dist\":[[1]]","dist":[[1]]}}`,
		`{"stats":{"dist":[[1]]},"error":{"code":"internal","message":"apsp\":{\"dist\":[[2]]}"}}`,
		`{"apsp":{"dist":[[1]],"dist":"x\\"}}`,
		// Duplicate keys: encoding/json merges objects, the last value wins.
		`{"apsp":{"dist":[[1]]},"apsp":{"dist":[[2]]}}`,
		`{"apsp":{"variant":"a"},"apsp":{"dist":[[1]]}}`,
		`{"apsp":{"dist":[[1]]},"apsp":{"variant":"b"}}`,
		`{"apsp":{"dist":[[1]]},"apsp":null}`,
		`{"apsp":{"dist":[[1]],"dist":[[2]]}}`,
		`{"apsp":{"dist":null,"dist":[[2]]}}`,
		`{"apsp":{"dist":[[1]]},"mssp":{"dist":[[2]],"sources":[0]}}`,
		// Keys encoding/json folds onto a field.
		`{"apsp":{"dist":[[1]],"DIST":[[2]]}}`, `{"apsp":{"dist":[[1]]},"APSP":{"dist":[[2]]}}`,
		`{"APSP":{"Dist":[[1]]}}`, `{"apsp":{"dist":[[1]]}}`, `{"apſp":{"dist":[[1]]}}`,
		// null results, an error envelope, the array in another form.
		`{"kind":"apsp","apsp":null,"mssp":null,"stats":null,"cached":false}`,
		`{"kind":"mssp","error":{"code":"invalid_source","message":"node 99 out of range"},"cached":false}`,
		`{"apsp":{"dist":null}}`, `{"apsp":{"dist":[]}}`, `{"apsp":{"dist":[[1.5]]}}`, `{"apsp":{"dist":[[1],null]}}`,
		`{"apsp":{"dist":[1]}}`, `{"sssp":{"dist":[[1]]}}`, `{"sssp":{"dist":[1,null]}}`, `{"apsp":{"dist":{"a":[1]}}}`,
		`{"knearest":{"neighbors":[[{"dist":1,"node":2}]]}}`, `{"knearest":{"neighbors":[[{"node":1,"dist":2,"hops":3,"first_hop":4}]],"k":"x"}}`,
		// Broken around a sound array.
		`{"apsp":{"dist":[[1]]}`, `{"apsp":{"dist":[[1]]}}}`, `{"apsp":{"dist":[[1]]}} x`, `{"apsp":{"dist":[[1]]},}`,
		`{"apsp":{"dist":[[1]],"variant":tru}}`, `{"kind":7,"apsp":{"dist":[[1]]}}`, `{"apsp":{"dist":[[1]]},"cached":"no"}`,
		`{"apsp":{"dist":[[1]]"variant":"x"}}`, `{"apsp" {"dist":[[1]]}}`, `{"apsp":{"dist":[[1]]},"graph":"\u12"}`,
		`{"a":[}],"apsp":{"dist":[[1]]}}`, `{"a":{"b":[{"c":"]}"}]},"apsp":{"dist":[[1]]}}`,
		// The envelope around the array: an escaped error message, an
		// unknown error code, null where a bool goes, a repeated and a
		// folded stats, a bare distance, then scalars, keys and values the
		// walk must leave to encoding/json.
		`{"kind":"mssp","error":{"code":"invalid_source","message":"node \"99\" \u003c 100"},"cached":false}`,
		`{"kind":"mssp","error":{"code":"invalid_sourcf","message":"x"},"cached":false}`,
		`{"kind":"distance","distance":{"from":0,"to":1,"distance":3,"reachable":true},"cached":null}`,
		`{"kind":"apsp","apsp":{"dist":[[1]]},"stats":{"total_rounds":1},"stats":{"messages":2},"cached":false}`,
		`{"kind":"apsp","apsp":{"dist":[[1]]},"stats":{"total_rounds":1},"Stats":{"messages":2},"cached":false}`,
		`{"kind":"distance","Stats":{"words":4},"distance":{"from":0,"to":1,"distance":3,"reachable":true}}`,
		`{"kind":"distance","distance":{"from":0,"to":1,"distance":3,"reachable":true}}`,
		`{"kind":"distance","distance":{"from":0,"to":1,"distance":-0,"reachable":false},"cached":true}`,
		`{"kind":"diameter","diameter":{"estimate":1e2}}`, `{"kind":"diameter","diameter":{"estimate":12},"kind":"sssp"}`,
		`{"kind":"diameter","graph":"r\u006fads","diameter":{"estimate":12}}`, `{"kind":"Diameter","diameter":{"estimate":12}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want plainResponse
		wantErr := json.Unmarshal(data, &want)

		var bare Response
		if err := bare.UnmarshalJSON(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("bare UnmarshalJSON: %v, encoding/json: %v", err, wantErr)
		}
		var got Response
		if err := json.Unmarshal(data, &got); (err == nil) != (wantErr == nil) {
			t.Fatalf("Response: %v, encoding/json: %v", err, wantErr)
		}
		if wantErr == nil {
			if !reflect.DeepEqual(plainResponse(bare), want) {
				t.Fatalf("bare UnmarshalJSON holds %s, encoding/json holds %s", dump(bare), dump(want))
			}
			if !reflect.DeepEqual(plainResponse(got), want) {
				t.Fatalf("Response holds %s, encoding/json holds %s", dump(got), dump(want))
			}
		}

		batch := append(append(append(append([]byte(`{"responses":[`), data...), ','), data...), `]}`...)
		var wantIn struct{ Responses []plainResponse }
		var gotIn BatchResponse
		wantErr = json.Unmarshal(batch, &wantIn)
		if err := json.Unmarshal(batch, &gotIn); (err == nil) != (wantErr == nil) {
			t.Fatalf("in a batch: Response: %v, encoding/json: %v", err, wantErr)
		}
		if wantErr == nil {
			for i := range wantIn.Responses {
				if !reflect.DeepEqual(plainResponse(gotIn.Responses[i]), wantIn.Responses[i]) {
					t.Fatalf("in a batch: Response holds %s, encoding/json holds %s", dump(gotIn.Responses[i]), dump(wantIn.Responses[i]))
				}
			}
		}
	})
}

// dump renders a decoded response for a failure message; pointers print as
// what they point to.
func dump(v interface{}) string {
	out, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(out)
}

// neighborAnswer is n lists of k neighbours each.
func neighborAnswer(n, k int) NeighborLists {
	lists := make(NeighborLists, n)
	for v := range lists {
		lists[v] = make([]Neighbor, k)
		for j := range lists[v] {
			lists[v][j] = Neighbor{Node: (v + j) % n, Dist: int64(3 * j), Hops: j, FirstHop: j - 1}
		}
	}
	return lists
}

// matrixAnswer is an n×n matrix with an unreachable cell in every row.
func matrixAnswer(n int) Matrix {
	m := make(Matrix, n)
	for u := range m {
		m[u] = make([]int64, n)
		for v := range m[u] {
			m[u][v] = int64(u*v%97) - 1
		}
	}
	return m
}

// TestResponseDecodeOnePass pins the decoder's shape: whatever n is, a
// large answer costs the two allocations of its flat array plus what its
// envelope holds - the result, its stats and source list - nothing per row
// or per list and nothing for the walk, and holds what encoding/json would
// have held.
func TestResponseDecodeOnePass(t *testing.T) {
	answers := map[Kind]func(n int) Response{
		KindAPSP: func(n int) Response {
			return Response{Kind: KindAPSP, APSP: &APSPResult{Variant: APSPWeighted, Dist: matrixAnswer(n)}, Stats: &Stats{TotalRounds: 9}}
		},
		KindMSSP: func(n int) Response {
			return Response{Kind: KindMSSP, Graph: "roads", MSSP: &MSSPResult{Sources: []int{0, 1}, Dist: matrixAnswer(n)}, Cached: true}
		},
		KindSSSP: func(n int) Response {
			return Response{Kind: KindSSSP, SSSP: &SSSPResult{Source: 1, Dist: matrixAnswer(n)[1], Iterations: 4}}
		},
		KindKNearest: func(n int) Response {
			return Response{Kind: KindKNearest, KNearest: &KNearestResult{K: 4, Neighbors: neighborAnswer(n, 4)}, Stats: &Stats{Words: 7}}
		},
		KindSourceDetection: func(n int) Response {
			return Response{Kind: KindSourceDetection, SourceDetection: &SourceDetectionResult{D: 3, K: 2, Detected: neighborAnswer(n, 2)}}
		},
	}
	for kind, answer := range answers {
		var allocs []float64
		for _, n := range []int{16, 128} {
			sent := answer(n)
			body, err := json.Marshal(sent)
			if err != nil {
				t.Fatal(err)
			}
			var got Response
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				got = Response{}
				if err := got.UnmarshalJSON(body); err != nil {
					t.Fatal(err)
				}
			}))
			if !reflect.DeepEqual(got, sent) {
				t.Errorf("%s n=%d: decoded %s, sent %s", kind, n, dump(got), dump(sent))
			}
			var want plainResponse
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(plainResponse(got), want) {
				t.Errorf("%s n=%d: decoded %s, encoding/json holds %s (%v)", kind, n, dump(got), dump(want), err)
			}
		}
		if allocs[0] > 5 || allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations at n=16, %v at n=128: want at most 5 (result, stats, sources, the array's two) and nothing per row", kind, allocs[0], allocs[1])
		}
	}
}

// TestMSSPDecodeBytes: a 1024×8 mssp body decodes into its 64 KiB of cells,
// its row headers (24 B each, ~27·n as allocated: a pointerful slice carries a
// malloc header into the next size class) and an envelope of under 4 KiB. The
// counts that size the cells stop at the matrix's "]]", so the body's tail
// adds no cell - eight more would push the cells into the 72 KiB size class.
// It skips under -race, whose instrumentation allocates.
func TestMSSPDecodeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n, q = 1024, 8
	dist := make(Matrix, n)
	for v := range dist {
		dist[v] = make([]int64, q)
		for s := range dist[v] {
			dist[v][s] = int64(v*s%97) - 1
		}
	}
	body, err := json.Marshal(Response{Kind: KindMSSP, MSSP: &MSSPResult{Sources: []int{0, 1, 2, 3, 4, 5, 6, 7}, Dist: dist},
		Stats: &Stats{TotalRounds: 9, SimRounds: 3, Messages: 1 << 20, Words: 1 << 22}})
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var got Response
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := got.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if !reflect.DeepEqual(got.MSSP.Dist, dist) {
			t.Fatal("decoded cells differ from the sent ones")
		}
	}
	if budget := uint64(n*q*8 + 27*n + 4<<10); least > budget {
		t.Errorf("a %d×%d mssp decode allocates %d B, want <= %d (cells, row headers, envelope)", n, q, least, budget)
	}
}

// TestBatchDecodeUsesFastPath: a batch is walked by hand and reaches the
// same decoder position by position - large answers flat, an error position
// in place - and holds what encoding/json alone would have held. The
// positions hold 9 objects (4 + 3 + the error and its message) and the
// batch its one slice of them: 10, as client.Batch decodes a body
// (BatchResponse.UnmarshalJSON). Through json.Unmarshal, whose own scan and
// decode state come on top, it is 15 at n=16 (19 when encoding/json walked
// the batch and handed each position to Response's walk, 49 before the
// envelopes were walked).
func TestBatchDecodeUsesFastPath(t *testing.T) {
	// A collection during the count empties encoding/json's pools, whose
	// refill would count as the batch's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs, direct []float64
	for _, n := range []int{16, 128} {
		sent := BatchResponse{Responses: []Response{
			{Kind: KindAPSP, APSP: &APSPResult{Variant: APSPUnweighted, Dist: matrixAnswer(n)}, Stats: &Stats{TotalRounds: 5, Messages: 11}},
			{Kind: KindKNearest, Graph: "g", KNearest: &KNearestResult{K: 3, Neighbors: neighborAnswer(n, 3)}, Cached: true},
			{Kind: KindMSSP, Error: &Error{Code: CodeInvalidSource, Message: "node 99 out of range"}},
		}}
		body, err := json.Marshal(sent)
		if err != nil {
			t.Fatal(err)
		}
		var got BatchResponse
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			got = BatchResponse{}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
		}))
		if !reflect.DeepEqual(got, sent) {
			t.Errorf("n=%d: decoded %s, sent %s", n, dump(got), dump(sent))
		}
		var want struct{ Responses []plainResponse }
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		for i := range want.Responses {
			if !reflect.DeepEqual(plainResponse(got.Responses[i]), want.Responses[i]) {
				t.Errorf("n=%d position %d: decoded %s, encoding/json holds %s", n, i, dump(got.Responses[i]), dump(want.Responses[i]))
			}
		}
		direct = append(direct, testing.AllocsPerRun(5, func() {
			got = BatchResponse{}
			if err := got.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
		}))
		if !reflect.DeepEqual(got, sent) {
			t.Errorf("n=%d: UnmarshalJSON decoded %s, sent %s", n, dump(got), dump(sent))
		}
	}
	if allocs[1] > 15 || math.Abs(allocs[0]-allocs[1]) > 1 {
		t.Errorf("%v allocations at n=16, %v at n=128: want at most 15, and a batch position must not decode per row", allocs[0], allocs[1])
	}
	if direct[0] > 10 || direct[1] > 10 {
		t.Errorf("UnmarshalJSON: %v allocations at n=16, %v at n=128: want at most 10, what the positions and the batch hold", direct[0], direct[1])
	}
}

// TestResponseDecodeAllocs: a served answer decodes into what it holds and
// nothing else - a distance answer into its result and stats, a q=8 mssp
// answer at n=1024 into its result, stats, source list and the matrix's
// cells and row headers (10 and 20 objects when the envelope was cut out
// and handed to encoding/json). It skips under -race, as the other pins do.
func TestResponseDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	stats := &Stats{TotalRounds: 9, SimRounds: 3, Messages: 1 << 20, Words: 1 << 22}
	dist := make(Matrix, 1024)
	for v := range dist {
		dist[v] = make([]int64, 8)
		for s := range dist[v] {
			dist[v][s] = int64(v*s%97) - 1
		}
	}
	for _, tc := range []struct {
		name string
		sent Response
		most float64
	}{
		{"distance", Response{Kind: KindDistance, Distance: &DistanceResult{From: 3, To: 900, Distance: 41, Reachable: true}, Stats: stats}, 2},
		{"mssp q=8 n=1024", Response{Kind: KindMSSP, MSSP: &MSSPResult{Sources: []int{0, 1, 2, 3, 4, 5, 6, 7}, Dist: dist}, Stats: stats}, 5},
	} {
		body, err := json.Marshal(tc.sent)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		allocs := testing.AllocsPerRun(20, func() {
			got = Response{}
			if err := got.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, tc.sent) {
			t.Errorf("%s: decoded %s, sent %s", tc.name, dump(got), dump(tc.sent))
		}
		if allocs > tc.most {
			t.Errorf("%s: a decode allocates %v objects, want <= %v", tc.name, allocs, tc.most)
		}
	}
}
