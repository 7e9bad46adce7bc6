package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func valid() map[Kind]Request {
	return map[Kind]Request{
		KindSSSP:            {Kind: KindSSSP, SSSP: &SSSPParams{Source: 3}},
		KindMSSP:            {Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{5, 2, 5}}},
		KindAPSP:            {Kind: KindAPSP},
		KindDistance:        {Kind: KindDistance, Distance: &DistanceParams{From: 1, To: 7}},
		KindDiameter:        {Kind: KindDiameter},
		KindKNearest:        {Kind: KindKNearest, KNearest: &KNearestParams{K: 4}},
		KindSourceDetection: {Kind: KindSourceDetection, SourceDetection: &SourceDetectionParams{Sources: []int{0, 2}, D: 3, K: 2}},
	}
}

func TestValidateAcceptsEveryKind(t *testing.T) {
	reqs := valid()
	if len(reqs) != len(Kinds()) {
		t.Fatalf("test covers %d kinds, schema has %d", len(reqs), len(Kinds()))
	}
	for kind, req := range reqs {
		if err := req.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", kind, err)
		}
	}
}

func TestValidateRejectsMalformedUnions(t *testing.T) {
	for name, req := range map[Kind]Request{
		"unknown-kind":    {Kind: "shortest"},
		"empty-kind":      {},
		"missing-payload": {Kind: KindSSSP},
		"foreign-payload": {Kind: KindDiameter, SSSP: &SSSPParams{Source: 1}},
		"two-payloads":    {Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{1}}, SSSP: &SSSPParams{}},
		"bad-variant":     {Kind: KindAPSP, APSP: &APSPParams{Variant: "fastest"}},
	} {
		err := req.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	a := Request{Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{9, 2, 9, 4}}}
	b := Request{Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{4, 2, 9}}}
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("equivalent MSSP requests key differently: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	if want := "v1:mssp:sources=2,4,9"; a.CacheKey() != want {
		t.Errorf("CacheKey = %q, want %q", a.CacheKey(), want)
	}

	// The APSP default variant encodes as auto, explicit variants as
	// themselves - and the two never alias.
	auto := Request{Kind: KindAPSP}
	if want := "v1:apsp:variant=auto"; auto.CacheKey() != want {
		t.Errorf("auto APSP key = %q, want %q", auto.CacheKey(), want)
	}
	w3 := Request{Kind: KindAPSP, APSP: &APSPParams{Variant: APSPWeighted3}}
	if auto.CacheKey() == w3.CacheKey() {
		t.Error("auto and weighted3 APSP requests share a cache key")
	}

	// Every kind keys distinctly, and keys carry the version prefix.
	seen := map[string]Kind{}
	for kind, req := range valid() {
		key := req.CacheKey()
		if !strings.HasPrefix(key, "v1:") {
			t.Errorf("%s: key %q lacks the version prefix", kind, key)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("kinds %s and %s share key %q", prev, kind, key)
		}
		seen[key] = kind
	}

	sd1 := Request{Kind: KindSourceDetection, SourceDetection: &SourceDetectionParams{Sources: []int{7, 1, 7}, D: 2, K: 3}}
	sd2 := Request{Kind: KindSourceDetection, SourceDetection: &SourceDetectionParams{Sources: []int{1, 7}, D: 2, K: 3}}
	if sd1.CacheKey() != sd2.CacheKey() {
		t.Error("equivalent source-detection requests key differently")
	}
}

func TestGraphIDValidation(t *testing.T) {
	for _, ok := range []string{"", "roads", "Berlin_2024.v2", "a-b.c_d", strings.Repeat("x", MaxGraphIDLen)} {
		if err := ValidateGraphID(ok); err != nil {
			t.Errorf("ValidateGraphID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"a:b", "a/b", "a b", "päris", strings.Repeat("x", MaxGraphIDLen+1)} {
		if err := ValidateGraphID(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("ValidateGraphID(%q) = %v, want ErrMalformed", bad, err)
		}
	}
	// Validate threads the graph check through the union.
	req := Request{Kind: KindDiameter, Graph: "no:colons"}
	if err := req.Validate(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Validate with bad graph = %v, want ErrMalformed", err)
	}
	req.Graph = "roads"
	if err := req.Validate(); err != nil {
		t.Errorf("Validate with good graph = %v, want nil", err)
	}
}

func TestCacheKeyGraphScoped(t *testing.T) {
	// The pre-graph-field encoding is preserved verbatim...
	bare := Request{Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{2, 4}}}
	if want := "v1:mssp:sources=2,4"; bare.CacheKey() != want {
		t.Errorf("default-graph key = %q, want %q", bare.CacheKey(), want)
	}
	// ...and a graph ID inserts one segment after the version prefix.
	scoped := bare
	scoped.Graph = "roads"
	if want := "v1:g=roads:mssp:sources=2,4"; scoped.CacheKey() != want {
		t.Errorf("graph-scoped key = %q, want %q", scoped.CacheKey(), want)
	}
	other := bare
	other.Graph = "rails"
	keys := map[string]bool{bare.CacheKey(): true, scoped.CacheKey(): true, other.CacheKey(): true}
	if len(keys) != 3 {
		t.Errorf("same request on three graphs must key three ways, got %v", keys)
	}
}

func TestDecodeRequest(t *testing.T) {
	req, err := DecodeRequest(strings.NewReader(`{"kind":"mssp","mssp":{"sources":[3,1]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindMSSP || len(req.MSSP.Sources) != 2 {
		t.Errorf("decoded %+v", req)
	}

	// Unknown fields are ignored (forward compatibility)...
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"diameter","hint":"fast"}`)); err != nil {
		t.Errorf("unknown field rejected: %v", err)
	}

	// ...but malformed bodies are typed ErrMalformed.
	for name, body := range map[string]string{
		"syntax":           `{"kind":`,
		"wrong-type":       `{"kind":"sssp","sssp":{"source":"zero"}}`,
		"trailing":         `{"kind":"diameter"}{"kind":"diameter"}`,
		"trailing-brace":   `{"kind":"diameter"}}`,
		"trailing-bracket": `{"kind":"diameter"}]`,
		"union-mix":        `{"kind":"sssp","mssp":{"sources":[1]}}`,
		"unknown-kind":     `{"kind":"bfs"}`,
		"empty-payload":    `{"kind":"knearest"}`,
	} {
		if _, err := DecodeRequest(strings.NewReader(body)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestResponseErr(t *testing.T) {
	ok := Response{Kind: KindDiameter, Diameter: &DiameterResult{Estimate: 4}}
	if ok.Err() != nil {
		t.Errorf("success response Err() = %v", ok.Err())
	}
	bad := Response{Kind: KindSSSP, Error: &Error{Code: CodeInvalidSource, Message: "source 99 out of range"}}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "invalid_source") {
		t.Errorf("error response Err() = %v", err)
	}
}

// TestConstructors: each constructor builds the request the hand-written
// literal it replaces spelled - it validates, survives the wire through
// DecodeRequest unchanged, and keys byte-for-byte like the literal.
func TestConstructors(t *testing.T) {
	for name, tc := range map[string]struct{ got, literal Request }{
		"sssp":      {SSSP(3), Request{Kind: KindSSSP, SSSP: &SSSPParams{Source: 3}}},
		"mssp":      {MSSP(5, 2, 5), Request{Kind: KindMSSP, MSSP: &MSSPParams{Sources: []int{5, 2, 5}}}},
		"apsp-auto": {APSP(APSPAuto), Request{Kind: KindAPSP}},
		"apsp-zero": {APSP(""), Request{Kind: KindAPSP, APSP: &APSPParams{}}},
		"apsp-w3":   {APSP(APSPWeighted3), Request{Kind: KindAPSP, APSP: &APSPParams{Variant: APSPWeighted3}}},
		"distance":  {Distance(1, 7), Request{Kind: KindDistance, Distance: &DistanceParams{From: 1, To: 7}}},
		"diameter":  {Diameter(), Request{Kind: KindDiameter}},
		"knearest":  {KNearest(4), Request{Kind: KindKNearest, KNearest: &KNearestParams{K: 4}}},
		"source-detection": {SourceDetection([]int{0, 2}, 3, 2),
			Request{Kind: KindSourceDetection, SourceDetection: &SourceDetectionParams{Sources: []int{0, 2}, D: 3, K: 2}}},
		"on-graph": {SSSP(3).On("roads"), Request{Kind: KindSSSP, Graph: "roads", SSSP: &SSSPParams{Source: 3}}},
	} {
		if err := tc.got.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", name, err)
		}
		if got, want := tc.got.CacheKeyAt(7), tc.literal.CacheKeyAt(7); got != want {
			t.Errorf("%s: key %q, the literal keys %q", name, got, want)
		}
		body, err := json.Marshal(tc.got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			t.Errorf("%s: DecodeRequest(%s) = %v", name, body, err)
		} else if !reflect.DeepEqual(back, tc.got) {
			t.Errorf("%s: wire round trip changed the request: %+v -> %+v", name, tc.got, back)
		}
	}
	// On addresses a copy: the receiver keeps its graph.
	base := Diameter()
	if base.On("roads"); base.Graph != "" {
		t.Errorf("On mutated its receiver: %+v", base)
	}
}
