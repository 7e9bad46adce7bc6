// Command ccbench regenerates the reproduction experiments of DESIGN.md §4
// (one table per theorem of the paper, plus ablations) and prints them as
// Markdown tables or JSON.
//
// Usage:
//
//	ccbench -list                    # list experiments
//	ccbench -exp E7                  # run one experiment (quick scale)
//	ccbench -exp E6,E7,E14           # run a comma-separated set
//	ccbench -exp all -scale full     # regenerate everything for EXPERIMENTS.md
//	ccbench -exp E13 -format json    # engine-scaling timings as JSON
//	ccbench -workers 8 -exp E8       # run the simulator on 8 pool workers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/congestedclique/ccsp/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}

// jsonTable is the -format json shape of one experiment: the rendered
// table plus the harness-measured elapsed wall-clock. For E13 the rows
// carry the engine's per-collective timing stats (route/sort/bcast ms).
type jsonTable struct {
	ID             string     `json:"id"`
	Title          string     `json:"title"`
	Columns        []string   `json:"columns"`
	Rows           [][]string `json:"rows"`
	Notes          []string   `json:"notes,omitempty"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment ID (E1..E14, A1..A4), comma-separated set, or 'all'")
		scale   = flag.String("scale", "quick", "quick | full")
		format  = flag.String("format", "md", "md | json")
		workers = flag.Int("workers", 0, "simulator shards per collective, an upper bound on its goroutines (0 = GOMAXPROCS, 1 = one shard inline)")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.Quick
	case "full":
		s = bench.Full
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *format != "md" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *workers < 0 {
		return fmt.Errorf("negative -workers %d", *workers)
	}
	cfg := bench.Config{Scale: s, Workers: *workers}

	var ids []string
	if *exp == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	var jsonOut []jsonTable
	for _, id := range ids {
		start := time.Now()
		tab, err := bench.RunConfig(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		if *format == "md" {
			tab.Fprint(os.Stdout)
			fmt.Printf("(%s completed in %.1fs)\n\n", id, elapsed.Seconds())
			continue
		}
		jsonOut = append(jsonOut, jsonTable{
			ID:             tab.ID,
			Title:          tab.Title,
			Columns:        tab.Columns,
			Rows:           tab.Rows,
			Notes:          tab.Notes,
			ElapsedSeconds: elapsed.Seconds(),
		})
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
