package bench

import (
	"strings"
	"testing"

	"github.com/congestedclique/ccsp/internal/graph"
	"github.com/congestedclique/ccsp/internal/semiring"
	"github.com/congestedclique/ccsp/internal/stretch"
)

func TestRegistryComplete(t *testing.T) {
	// The paper's tables and ablations, nothing else: wall-clock numbers
	// about the serving system belong to BENCHMARK.json.
	want := []string{"A1", "A2", "A3", "A4", "E1", "E10", "E11", "E12", "E13", "E14", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
	if _, err := Run("nope", Quick); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("x", true)
	tab.Note("note %d", 7)
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"### X: demo", "| a | bb", "| 1 | 2.50", "| x | true", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
}

// TestE13StatsIdentical runs the engine-scaling experiment at quick scale
// and asserts every workers=P row reports deterministic stats identical to
// its workers=1 baseline.
func TestE13StatsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	tab, err := Run("E13", Quick)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, c := range tab.Columns {
		if c == "stats equal" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no 'stats equal' column in %v", tab.Columns)
	}
	parallelRows := 0
	for _, row := range tab.Rows {
		if row[col] == "-" {
			continue
		}
		parallelRows++
		if row[col] != "true" {
			t.Errorf("parallel run has divergent stats: row %v", row)
		}
	}
	if parallelRows == 0 {
		t.Error("E13 produced no workers=P rows")
	}
}

// TestExperimentsRunQuick executes the cheap experiments end to end and
// asserts their correctness columns. The heavier path experiments are
// exercised by the top-level benchmarks.
func TestExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, id := range []string{"E1", "E2", "E3", "E5", "A1", "A3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			// Any row with a correctness column must say true.
			for ci, col := range tab.Columns {
				if col != "correct" && col != "exact" && col != "hits all" {
					continue
				}
				for _, row := range tab.Rows {
					if row[ci] != "true" {
						t.Errorf("%s: correctness column is %q in row %v", id, row[ci], row)
					}
				}
			}
		})
	}
}

// TestWorstFailsTheExperiment: a pair over its bound is the table's error,
// not only a large ratio in a row; the first error stays.
func TestWorstFailsTheExperiment(t *testing.T) {
	const inf = semiring.Inf
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2)
	var tab Table
	if w := tab.worst(g, nil, [][]int64{{0, 2, inf}, {2, 0, inf}, {inf, inf, 0}}, stretch.Exact()); w != 1 || tab.err != nil {
		t.Fatalf("exact table: worst %v, err %v", w, tab.err)
	}
	if w := tab.worst(g, nil, [][]int64{{0, 3, inf}, {3, 0, inf}, {inf, inf, 0}}, stretch.Exact()); w != 1.5 || tab.err == nil {
		t.Fatalf("over the bound: worst %v, err %v", w, tab.err)
	}
	first := tab.err
	tab.worst(g, nil, [][]int64{{0, 2, 7}, {2, 0, inf}, {inf, inf, 0}}, stretch.Exact())
	if tab.err != first {
		t.Errorf("err %v replaced %v", tab.err, first)
	}
}
