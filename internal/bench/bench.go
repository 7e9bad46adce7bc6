// Package bench defines the reproduction experiments of DESIGN.md §4: one
// experiment per theorem ("table") of the paper, plus the ablations. Each
// experiment generates its workload, runs the distributed algorithms on the
// simulator, verifies the theorem's guarantee, and renders a table of
// measured rounds against the paper's bound. cmd/ccbench and the package's
// benchmarks (bench_test.go) are thin wrappers around Run.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/congestedclique/ccsp/internal/cc"
)

// Config carries cross-experiment settings to every experiment.
type Config struct {
	// Scale selects experiment sizes.
	Scale Scale
	// Workers is the engine shard count experiments use when
	// building simulator configs; 0 keeps the engine default (GOMAXPROCS,
	// one shard for small cliques). E13 ignores it: that experiment sweeps
	// worker counts itself.
	Workers int
}

// engineCfg is the simulator config shared by all experiments.
func engineCfg(c Config, n int) cc.Config { return cc.Config{N: n, Workers: c.Workers} }

// Scale selects experiment sizes.
type Scale int

const (
	// Quick runs reduced sizes (seconds); used by benchmarks and CI.
	Quick Scale = iota
	// Full runs the sizes recorded in EXPERIMENTS.md (minutes).
	Full
)

// Table is one regenerated result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// err is the first pair that broke a guarantee the table measured
	// (worst); it fails the experiment.
	err error
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text (valid Markdown).
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title)
	line := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Columns)
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(c Config) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes one experiment by ID at the given scale with default
// settings.
func Run(id string, s Scale) (*Table, error) {
	return RunConfig(id, Config{Scale: s})
}

// RunConfig executes one experiment by ID with explicit settings.
func RunConfig(id string, c Config) (*Table, error) {
	for _, e := range registry {
		if e.ID == id {
			t, err := e.Run(c)
			if err == nil && t.err != nil {
				err = fmt.Errorf("bench: %s: %w", id, t.err)
			}
			return t, err
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

func sizes(s Scale, quick, full []int) []int {
	if s == Full {
		return full
	}
	return quick
}
