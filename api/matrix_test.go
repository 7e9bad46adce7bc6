package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzMatrixJSON holds Matrix's decoder to encoding/json's [][]int64
// decoder on arbitrary bytes: the same inputs accepted, the same values
// held - at top level, called bare (no syntax pre-check in front of it) and
// as the struct field the wire carries it in.
func FuzzMatrixJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[[]]`, `[[],[]]`, `[[1,2,3],[4],[]]`,
		" [ [ 1 ,\t2 ] ,\r\n[ -1 ] ] ", `[[-1,0,-0]]`,
		`[[9223372036854775807]]`, `[[9223372036854775808]]`,
		`[[-9223372036854775808]]`, `[[-9223372036854775809]]`,
		`[[99999999999999999999]]`, `[[1.0]]`, `[[1e3]]`, `[["1"]]`, `[[[1]]]`,
		`[[1,2],[3`, `[null,[1]]`, `[[null]]`, `[[01]]`, `[[-]]`, `[[1,]]`, `[[1],]`,
		`[1]`, `{}`, `[[1]] x`, `[[true]]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]int64
		wantErr := json.Unmarshal(data, &want)

		var got Matrix
		if err := json.Unmarshal(data, &got); (err == nil) != (wantErr == nil) {
			t.Fatalf("Matrix: %v, [][]int64: %v", err, wantErr)
		}
		var bare Matrix
		if err := bare.UnmarshalJSON(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("bare UnmarshalJSON: %v, [][]int64: %v", err, wantErr)
		}
		if wantErr == nil {
			if !reflect.DeepEqual([][]int64(got), want) {
				t.Fatalf("Matrix holds %#v, [][]int64 holds %#v", got, want)
			}
			if !reflect.DeepEqual([][]int64(bare), want) {
				t.Fatalf("bare UnmarshalJSON holds %#v, [][]int64 holds %#v", bare, want)
			}
		}

		field := append(append([]byte(`{"dist":`), data...), '}')
		var wantIn struct{ Dist [][]int64 }
		var gotIn struct{ Dist Matrix }
		wantErr = json.Unmarshal(field, &wantIn)
		if err := json.Unmarshal(field, &gotIn); (err == nil) != (wantErr == nil) {
			t.Fatalf("as a field: Matrix: %v, [][]int64: %v", err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual([][]int64(gotIn.Dist), wantIn.Dist) {
			t.Fatalf("as a field: Matrix holds %#v, [][]int64 holds %#v", gotIn.Dist, wantIn.Dist)
		}
	})
}

// TestMatrixDecodeFlat pins what the type is for: any n×q answer decodes
// into one backing array behind one slice of headers, rows clipped so an
// append to one cannot write into the next.
func TestMatrixDecodeFlat(t *testing.T) {
	body := []byte(`[[0,5,-1],[5,0,7],[-1,7,0],[1,2,3]]`)
	var m Matrix
	if allocs := testing.AllocsPerRun(10, func() {
		if err := m.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("decode took %v allocations, want 2 (row headers + cells)", allocs)
	}
	want := [][]int64{{0, 5, -1}, {5, 0, 7}, {-1, 7, 0}, {1, 2, 3}}
	if !reflect.DeepEqual([][]int64(m), want) {
		t.Fatalf("decoded %v, want %v", m, want)
	}
	_ = append(m[1], 99)
	if !reflect.DeepEqual([][]int64(m), want) {
		t.Errorf("append to row 1 overwrote row 2: %v", m)
	}
	out, err := json.Marshal(m)
	if err != nil || string(out) != string(body) {
		t.Errorf("re-encoded %s (%v), want %s", out, err, body)
	}
}
