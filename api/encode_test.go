package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAppendJSON holds AppendJSON to json.Marshal on every response
// encoding/json can decode: the same bytes, after any prefix already in
// dst, and JSONLen their exact length.
func FuzzAppendJSON(f *testing.F) {
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
	}
	for _, seed := range []string{
		`{}`,
		// Unreachable cells, the extremes of an int64.
		`{"kind":"apsp","apsp":{"variant":"weighted","dist":[[0,-1],[-1,0]]},"stats":{"total_rounds":3},"cached":false}`,
		`{"kind":"sssp","sssp":{"source":0,"dist":[0,9223372036854775807,-9223372036854775808,-1,10,99,100],"iterations":2}}`,
		// Empty and ragged rows, null rows, an empty matrix.
		`{"kind":"mssp","mssp":{"sources":[0,1],"dist":[[],[1],[1,2,3],null,[]]},"cached":true}`,
		`{"apsp":{"dist":[]}}`, `{"apsp":{"dist":[[]]}}`, `{"sssp":{"dist":[]}}`,
		`{"knearest":{"k":2,"neighbors":[[],null,[{"node":1,"dist":-1,"hops":0,"first_hop":-1},{"node":2,"dist":30,"hops":2,"first_hop":1}]]}}`,
		`{"source_detection":{"d":2,"k":1,"detected":[[],[{"node":0,"dist":3,"hops":1,"first_hop":-1}]]}}`,
		// Nil results and nil arrays.
		`{"kind":"apsp","apsp":null,"mssp":null,"stats":null,"cached":false}`,
		`{"apsp":{"dist":null}}`, `{"sssp":{"dist":null}}`, `{"knearest":{"neighbors":null}}`, `{"source_detection":{}}`,
		// Error envelopes, and strings that look like the arrays' keys.
		`{"kind":"mssp","error":{"code":"invalid_source","message":"node 99 out of range"},"cached":false}`,
		`{"kind":"apsp","graph":"g","apsp":{"variant":"\"dist\":[]<&>","dist":[[1]]},"error":{"code":"x","message":"\"dist\":[], "}}`,
		// Several arrays in one response.
		`{"sssp":{"dist":[1]},"mssp":{"dist":[[2]]},"apsp":{"dist":[[3]]},"knearest":{"neighbors":[[]]},"source_detection":{"detected":[[]]}}`,
		// One string encoding/json escapes per string field, alone, and
		// every escape appendString writes.
		`{"kind":"<"}`, `{"graph":"\""}`, `{"apsp":{"variant":"&"}}`,
		`{"error":{"code":"<"}}`, `{"error":{"message":"\""}}`,
		`{"error":{"code":"malformed","message":"decode: invalid character 'x' in \"kind\" \\ \b\f\n\r\t\u0000\u001f\u007f é \u2028\u2029 \ufffd"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plain plainResponse
		if json.Unmarshal(data, &plain) != nil {
			return
		}
		r := Response(plain)
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := r.AppendJSON(prefix)
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal\n%s", got, want)
		}
		if n := r.JSONLen(); n != len(want) {
			t.Fatalf("JSONLen %d, json.Marshal wrote %d bytes", n, len(want))
		}
	})
}

// TestAppendJSONAllocs: a warm encode into a buffer JSONLen sized allocates
// nothing, whatever the answer's size and whatever its strings hold: no
// response goes through json.Marshal, for its length or its bytes. It
// skips under -race, whose instrumentation allocates.
func TestAppendJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for i, r := range []Response{
		{Kind: KindAPSP, APSP: &APSPResult{Variant: APSPWeighted, Dist: matrixAnswer(64)}, Stats: &Stats{TotalRounds: 7}},
		{Kind: KindKNearest, KNearest: &KNearestResult{K: 8, Neighbors: neighborAnswer(64, 8)}},
		{Kind: KindDistance, Distance: &DistanceResult{From: 1, To: 2, Distance: 3, Reachable: true}},
		{Kind: KindSSSP, SSSP: &SSSPResult{Source: 3, Dist: matrixAnswer(64)[3], Iterations: 2}},
		{Kind: KindMSSP, MSSP: &MSSPResult{Sources: []int{1, 5, 9}, Dist: matrixAnswer(64)}},
		{Kind: KindDiameter, Diameter: &DiameterResult{Estimate: 41}},
		{Kind: KindSourceDetection, SourceDetection: &SourceDetectionResult{D: 4, K: 2, Detected: neighborAnswer(64, 2)}},
		{Kind: KindMSSP, Error: &Error{Code: CodeInvalidSource, Message: "node 99 out of range"}},
		{Kind: KindDistance, Graph: "roads", Distance: &DistanceResult{From: 4, To: 2, Distance: Unreachable},
			Stats: &Stats{TotalRounds: 12, SimRounds: 3, Messages: 4096, Words: 8192}, Cached: true},
		// Strings encoding/json escapes: a batch position's answer to a
		// malformed request quotes it, and a kind or graph ID the request
		// carried comes back as it came.
		{Kind: "<&>", Graph: "g\u2028", Error: &Error{Code: CodeMalformed, Message: `unknown kind "dist\tance" \xff`}},
	} {
		buf := make([]byte, 0, r.JSONLen())
		if allocs := testing.AllocsPerRun(50, func() {
			if got := r.AppendJSON(buf[:0]); len(got) != cap(buf) {
				t.Fatalf("%d (%s): %d bytes, JSONLen said %d", i, r.Kind, len(got), cap(buf))
			}
			_ = r.JSONLen()
		}); allocs != 0 {
			t.Errorf("%d (%s): a warm AppendJSON + JSONLen allocates %v times, want 0", i, r.Kind, allocs)
		}
	}
}

// FuzzAppendString holds appendString to json.Marshal of a string on any
// bytes, invalid UTF-8 among them, which no decoded response can hold
// (json.Unmarshal replaces it) for FuzzAppendJSON to reach.
func FuzzAppendString(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `"\`, "<>&", "\b\f\n\r\t", "\x00\x1f\x7f", "é€😀",
		"\u2028\u2029", "\xff", "a\xc3", "\xed\xa0\x80", "\xf0\x9f\x98",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("appendString(%q) wrote %s, json.Marshal %s", s, got[len("prefix"):], want)
		}
	})
}
