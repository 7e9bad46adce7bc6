package graphio

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
)

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
0 1 2
1 2
 3 0   7

# trailing comment
`
	g, err := Read(strings.NewReader(in), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3", g.N, g.M())
	}
	if d := g.Dijkstra(0); d[2] != 3 { // 0-1 (2) + 1-2 (default 1)
		t.Errorf("dist(0,2) = %d, want 3", d[2])
	}
}

func TestReadDIMACS(t *testing.T) {
	in := `c road network fragment
p sp 4 6
a 1 2 5
a 2 1 5
a 2 3 2
a 3 2 2
a 3 4 4
a 4 3 4
`
	g, err := Read(strings.NewReader(in), FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3 (arc pairs collapsed)", g.N, g.M())
	}
	if d := g.Dijkstra(0); d[3] != 11 {
		t.Errorf("dist(1,4) = %d, want 11", d[3])
	}
}

func TestAutoDetect(t *testing.T) {
	det := func(s string) Format {
		f, err := detect(bufio.NewReader(strings.NewReader(s)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if det("p sp 2 2\na 1 2 1\na 2 1 1\n") != FormatDIMACS {
		t.Error("DIMACS input not detected")
	}
	if det("# hello\n0 1 4\n") != FormatEdgeList {
		t.Error("edge list input not detected")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	// Nodes 5 and 6 are isolated: both formats must still round-trip the
	// node count (the edge list via its "# <n> nodes" header).
	g := graph.New(7)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 4)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 0, 9)

	for _, f := range []Format{FormatEdgeList, FormatDIMACS} {
		var buf bytes.Buffer
		if err := Write(&buf, g, f); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf, FormatAuto) // auto-detect must recognize our own output
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if got.N != g.N || got.M() != g.M() {
			t.Fatalf("format %d: got n=%d m=%d, want n=%d m=%d", f, got.N, got.M(), g.N, g.M())
		}
		for v := 0; v < g.N; v++ {
			if !slices.Equal(got.Dijkstra(v), g.Dijkstra(v)) {
				t.Fatalf("format %d: round-tripped distances from %d differ", f, v)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"one field", "0\n"},
		{"four fields", "0 1 2 3\n"},
		{"bad id", "x 1\n"},
		{"negative id", "-1 1\n"},
		{"bad weight", "0 1 x\n"},
		{"negative weight", "0 1 -2\n"},
		{"self loop", "3 3 1\n"},
		{"dimacs no problem line", "a 1 2 3\n"},
		{"dimacs bad problem", "p xx 3 1\n"},
		{"dimacs dup problem", "p sp 2 0\np sp 2 0\n"},
		{"dimacs arc out of range", "p sp 2 1\na 1 5 1\n"},
		{"dimacs arc count mismatch", "p sp 2 5\na 1 2 1\n"},
		{"dimacs zero id", "p sp 2 1\na 0 1 1\n"},
		{"dimacs unknown line", "p sp 2 1\nz 1 2 3\n"},
		{"dimacs empty", "p sp 0 0\n"},
	}
	for _, tc := range cases {
		if _, err := Read(strings.NewReader(tc.in), FormatAuto); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
