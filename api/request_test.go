package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzRequestJSON holds DecodeRequest to encoding/json reading the same
// bytes (decodeStrict, then Validate): the same inputs accepted, the same
// value held - reflect.DeepEqual, so [] and null sources are told apart -
// and the same error reported. The walk itself (decodeRequest) may refuse
// anything, but what it takes it must take as encoding/json does. It also
// holds the client's encoder to encoding/json's: every request decoded
// re-encodes (Request.AppendJSON) to json.Marshal's bytes, and the walk
// takes those bytes back to the same request whenever it is valid, so a
// request a client sends never decodes on the fallback.
func FuzzRequestJSON(f *testing.F) {
	corpus, err := filepath.Glob("../internal/server/testdata/fuzz/FuzzQueryJSON/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no /v1/query corpus to seed from (%v)", err)
	}
	for _, name := range corpus {
		entry, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(entry)), "\n")
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(body))
	}
	reqs := []Request{SSSP(3), MSSP(5, 2, 5), MSSP(), APSP(""), APSP(APSPAuto), APSP(APSPWeighted), APSP(APSPWeighted3),
		APSP(APSPUnweighted), Distance(1, 7), Diameter(), KNearest(4), SourceDetection([]int{0, 2}, 3, 2),
		SourceDetection(nil, 1, 1), SSSP(-3).On("roads"), MSSP(make([]int, 200)...).On("a-b.c_D9"),
		// Values encoding/json escapes, which AppendJSON leaves to it.
		Diameter().On("<a&b>"), MSSP(1).On("päris"), APSP(`"fast\est"`), {Kind: "diameter\u2028"}, {Kind: "x\ty"}}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []string{
		`{"kind":"diameter","graph":"roads"}`, "\t{ \"kind\" : \"distance\" ,\n\"distance\" : { \"from\" : 0 , \"to\" : 7 } }\r\n",
		// Keys encoding/json folds onto a field, repeated and unknown keys.
		`{"Kind":"diameter"}`, `{"KIND":"diameter"}`, `{"kind":"sssp","Kind":"diameter"}`, `{"kınd":"diameter"}`,
		`{"kind":"sssp","sssp":{"source":1},"SSSP":{"source":2}}`, `{"kind":"sssp","sssp":{"Source":2}}`,
		`{"kind":"diameter","kind":"sssp","sssp":{"source":1}}`, `{"kind":"sssp","sssp":{"source":1},"sssp":{"source":2}}`,
		`{"kind":"sssp","sssp":{"source":1,"source":2}}`, `{"kind":"mssp","mssp":{"sources":[1]},"mssp":{}}`,
		`{"kind":"diameter","hint":"fast"}`, `{"kind":"sssp","sssp":{"source":1,"hint":2}}`,
		// Escapes, and strings that are not what they seem.
		`{"kind":"diameter","graph":"päris"}`,
		`{"kind":"diameter","graph":"no:colons"}`, `{"kind":"diameter","graph":""}`, `{"kind":""}`,
		`{"kind":"apsp","apsp":{"variant":"fastest"}}`, `{"kind":"apsp","apsp":{"variant":""}}`, `{"kind":"apsp","apsp":{}}`,
		`{"kind":"update"}`, `{"kind":"diameter\n"}`,
		// Numbers: fractions, exponents, -0, out of range, not numbers.
		`{"kind":"sssp","sssp":{"source":1.0}}`, `{"kind":"sssp","sssp":{"source":1e2}}`, `{"kind":"sssp","sssp":{"source":-0}}`,
		`{"kind":"sssp","sssp":{"source":9223372036854775808}}`, `{"kind":"sssp","sssp":{"source":-9223372036854775808}}`,
		`{"kind":"sssp","sssp":{"source":01}}`, `{"kind":"sssp","sssp":{"source":"1"}}`, `{"kind":"mssp","mssp":{"sources":[1,2.5]}}`,
		`{"kind":"mssp","mssp":{"sources":[1,-0]}}`, `{"kind":"mssp","mssp":{"sources":[1,,2]}}`, `{"kind":"mssp","mssp":{"sources":[1 2]}}`,
		// null payloads and lists; an empty list.
		`{"kind":"mssp","mssp":null}`, `{"kind":"mssp","mssp":{"sources":null}}`, `{"kind":"mssp","mssp":{"sources":[]}}`,
		`{"kind":"mssp","mssp":{"sources":[ ]}}`, `{"kind":null}`, `{"kind":"diameter","graph":null}`, `{"kind":"apsp","apsp":null}`,
		// Trailing bytes and broken bodies.
		`{"kind":"diameter"} x`, `{"kind":"diameter"}}`, `{"kind":"diameter"}]`, `{"kind":"diameter"}{}`, `{"kind":"diameter"} `,
		`{"kind":"diameter",}`, `{"kind":"diameter"`, `{"kind" "diameter"}`, `{"kind":"mssp","mssp":{"sources":[1]`,
		`{"kind":"mssp","mssp":{"sources":[1}}`, ``, ` `, `{}`, `null`, `[]`, `"kind"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Request
		strictErr := decodeStrict(bytes.NewReader(data), &want)
		wantErr := strictErr
		if wantErr == nil {
			wantErr = want.Validate()
		}
		if walked, ok := decodeRequest(data); ok && !reflect.DeepEqual(walked, want) {
			t.Fatalf("the walk holds %s, encoding/json holds %s (%v)", dump(walked), dump(want), wantErr)
		}
		if strictErr == nil {
			body, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if appended := want.AppendJSON(nil); !bytes.Equal(appended, body) {
				t.Fatalf("AppendJSON writes %s, json.Marshal %s", appended, body)
			}
			if walked, ok := decodeRequest(body); wantErr == nil && (!ok || !reflect.DeepEqual(walked, want)) {
				t.Fatalf("the walk does not take %s back (ok %v): holds %s, want %s", body, ok, dump(walked), dump(want))
			}
		}
		got, err := DecodeRequest(bytes.NewReader(data))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("DecodeRequest: %v, encoding/json: %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("DecodeRequest reports %q, encoding/json %q", err, wantErr)
		case err != nil && !errors.Is(err, ErrMalformed):
			t.Fatalf("DecodeRequest: %v does not wrap ErrMalformed", err)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("DecodeRequest holds %s, encoding/json holds %s", dump(got), dump(want))
		}
	})
}

// TestDecodeRequestReadError: a body its reader refuses part way - here
// one past an http.MaxBytesReader's cap - reports what encoding/json
// reports reading the same reader: the value it finished before the
// failure, or the failure itself, always ErrMalformed.
func TestDecodeRequestReadError(t *testing.T) {
	for _, body := range []string{
		`{"kind":"diameter"}` + strings.Repeat(" ", 100),
		`{"kind":"mssp","mssp":{"sources":[` + strings.Repeat("1,", 100) + `1]}}`,
		`{"kind":"diameter"}`,
	} {
		const limit = 64
		var want Request
		wantErr := decodeStrict(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), limit), &want)
		got, err := DecodeRequest(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), limit))
		if wantErr == nil {
			wantErr = want.Validate()
		}
		if (err == nil) != (wantErr == nil) || err != nil && (err.Error() != wantErr.Error() || !errors.Is(err, ErrMalformed)) {
			t.Errorf("%.30s...: DecodeRequest %v, encoding/json %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%.30s...: DecodeRequest holds %s, encoding/json %s", body, dump(got), dump(want))
		}
	}
}

// TestRequestBodyRecycled: a decoded request owns everything it holds. The
// body is read into a pooled buffer that goes back before DecodeRequest
// returns, and the next decode reads its body into that very buffer; a
// graph ID or source list pointing into it would take the next body's
// bytes. Under -race sync.Pool drops a share of Puts on purpose, so it
// decodes many pairs: most of them still share the buffer.
func TestRequestBodyRecycled(t *testing.T) {
	first := SourceDetection([]int{3, 1, 2}, 4, 5).On("aaaaaaaa")
	next := SourceDetection([]int{6, 4, 5}, 7, 8).On("bbbbbbbb")
	firstBody, _ := json.Marshal(first)
	nextBody, _ := json.Marshal(next)
	if len(firstBody) != len(nextBody) {
		t.Fatalf("bodies of %d and %d bytes: the test wants them to overlay", len(firstBody), len(nextBody))
	}
	for run := 0; run < 64; run++ {
		got, err := DecodeRequest(bytes.NewReader(firstBody))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(bytes.NewReader(nextBody)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: after the next decode the first request holds %s, want %s", run, dump(got), dump(first))
		}
	}
}

// TestDecodeRequestAllocs: a warm DecodeRequest of a canonical body
// allocates only what the request holds - a distance its payload, a q=8
// mssp its payload and source list (13 and 19 objects when encoding/json
// decoded every body). The reader is made once, outside the count. It
// skips under -race, where sync.Pool drops Puts.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, tc := range []struct {
		req  Request
		most float64
	}{
		{Distance(3, 900), 1},
		{MSSP(9, 1, 5, 7, 100, 3, 2, 8), 2},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var rd bytes.Reader
		var got Request
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			if got, err = DecodeRequest(&rd); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, tc.req) {
			t.Errorf("%s: decoded %s", body, dump(got))
		}
		if allocs > tc.most {
			t.Errorf("%s: a warm DecodeRequest allocates %v objects, want <= %v", body, allocs, tc.most)
		}
	}
}

// TestCacheKeyAllocs: a cache key is one string, appended in place - the
// sources sorted and deduplicated in pooled scratch, never in the
// request's own slice (5 and 14 objects when it was printed with fmt). It
// skips under -race, where sync.Pool drops Puts.
func TestCacheKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	sources := []int{9, 1, 5, 9, 100, 3, 2, 8}
	for _, req := range []Request{Distance(3, 900), MSSP(sources...).On("roads"), SourceDetection(sources, 3, 2)} {
		if allocs := testing.AllocsPerRun(50, func() { _ = req.CacheKeyAt(7) }); allocs > 1 {
			t.Errorf("%s: a key allocates %v objects, want <= 1", req.CacheKeyAt(7), allocs)
		}
	}
	if want := []int{9, 1, 5, 9, 100, 3, 2, 8}; !reflect.DeepEqual(sources, want) {
		t.Errorf("keying rewrote the request's sources: %v, want %v", sources, want)
	}
}
