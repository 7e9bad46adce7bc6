package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzNeighborsJSON holds NeighborLists' decoder to encoding/json's
// [][]Neighbor decoder on arbitrary bytes, the way FuzzMatrixJSON holds
// Matrix: the same inputs accepted, the same values held - through
// json.Unmarshal, called bare and as the struct field the wire carries it in.
func FuzzNeighborsJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[[]]`, `[[],[]]`,
		`[[{"node":0,"dist":0,"hops":0,"first_hop":-1},{"node":3,"dist":7,"hops":2,"first_hop":1}],[]]`,
		" [ [ { \"node\" : 1 ,\t\"dist\" : 2 , \"hops\" : 3 ,\r\n\"first_hop\" : 4 } ] ] ",
		`[[{"dist":2,"node":1,"hops":3,"first_hop":4}]]`,
		`[[{"node":1,"dist":2,"hops":3}]]`,
		`[[{"node":1,"dist":2,"hops":3,"first_hop":4,"node":9}]]`,
		`[[{"node":1,"dist":2,"hops":3,"first_hop":4,"via":5}]]`,
		`[[{"Node":1,"DIST":2,"hops":3,"first_hop":4}]]`,
		`[[{"node ":1,"dist":2,"hops":3,"first_hop":4}]]`,
		`[[{"node":1.0,"dist":2,"hops":3,"first_hop":4}]]`,
		`[[{"node":"1","dist":2,"hops":3,"first_hop":4}]]`,
		`[[{"node":null,"dist":2,"hops":3,"first_hop":4}]]`,
		`[[{"node":9223372036854775807,"dist":-9223372036854775808,"hops":0,"first_hop":0}]]`,
		`[[{"node":9223372036854775808,"dist":0,"hops":0,"first_hop":0}]]`,
		`[[{"node":01,"dist":0,"hops":0,"first_hop":0}]]`,
		`[[{}]]`, `[[null]]`, `[null,[]]`, `[[{"node":1,"dist":2,"hops":3,"first_hop":4},]]`,
		`[[{"node":1,"dist":2,"hops":3,"first_hop":4}],]`, `[[{"node":1,"dist":2,"hops":3,"first_hop":4}`,
		`[{"node":1,"dist":2,"hops":3,"first_hop":4}]`, `[[[]]]`, `{}`, `[[]] x`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]Neighbor
		wantErr := json.Unmarshal(data, &want)

		var got NeighborLists
		if err := json.Unmarshal(data, &got); (err == nil) != (wantErr == nil) {
			t.Fatalf("NeighborLists: %v, [][]Neighbor: %v", err, wantErr)
		}
		var bare NeighborLists
		if err := bare.UnmarshalJSON(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("bare UnmarshalJSON: %v, [][]Neighbor: %v", err, wantErr)
		}
		if wantErr == nil {
			if !reflect.DeepEqual([][]Neighbor(got), want) {
				t.Fatalf("NeighborLists holds %#v, [][]Neighbor holds %#v", got, want)
			}
			if !reflect.DeepEqual([][]Neighbor(bare), want) {
				t.Fatalf("bare UnmarshalJSON holds %#v, [][]Neighbor holds %#v", bare, want)
			}
		}

		field := append(append([]byte(`{"neighbors":`), data...), '}')
		var wantIn struct{ Neighbors [][]Neighbor }
		var gotIn struct{ Neighbors NeighborLists }
		wantErr = json.Unmarshal(field, &wantIn)
		if err := json.Unmarshal(field, &gotIn); (err == nil) != (wantErr == nil) {
			t.Fatalf("as a field: NeighborLists: %v, [][]Neighbor: %v", err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual([][]Neighbor(gotIn.Neighbors), wantIn.Neighbors) {
			t.Fatalf("as a field: NeighborLists holds %#v, [][]Neighbor holds %#v", gotIn.Neighbors, wantIn.Neighbors)
		}
	})
}

// TestNeighborsDecodeFlat pins what the type is for: every list of an
// answer decodes into one backing array behind one slice of headers, lists
// clipped so an append to one cannot write into the next, an empty list
// still the non-nil [] it was sent as.
func TestNeighborsDecodeFlat(t *testing.T) {
	body := []byte(`[[{"node":0,"dist":0,"hops":0,"first_hop":-1},{"node":2,"dist":5,"hops":1,"first_hop":2}],` +
		`[{"node":1,"dist":0,"hops":0,"first_hop":-1}],[],[{"node":3,"dist":0,"hops":0,"first_hop":-1}]]`)
	var l NeighborLists
	if allocs := testing.AllocsPerRun(10, func() {
		if err := l.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("decode took %v allocations, want 2 (list headers + neighbours)", allocs)
	}
	want := [][]Neighbor{
		{{Node: 0, FirstHop: -1}, {Node: 2, Dist: 5, Hops: 1, FirstHop: 2}},
		{{Node: 1, FirstHop: -1}},
		{},
		{{Node: 3, FirstHop: -1}},
	}
	if !reflect.DeepEqual([][]Neighbor(l), want) {
		t.Fatalf("decoded %v, want %v", l, want)
	}
	if l[2] == nil {
		t.Error("the empty list decoded to nil, want []")
	}
	_ = append(l[1], Neighbor{Node: 99})
	_ = append(l[2], Neighbor{Node: 99})
	if !reflect.DeepEqual([][]Neighbor(l), want) {
		t.Errorf("append to list 1 or 2 overwrote list 3: %v", l)
	}
	out, err := json.Marshal(l)
	if err != nil || string(out) != string(body) {
		t.Errorf("re-encoded %s (%v), want %s", out, err, body)
	}
}
