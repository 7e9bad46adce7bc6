// Command benchmark is the repository's performance benchmark: one
// n = 1024 graph, four serving workloads over real HTTP, end-to-end metrics
// with tracing off and a separate traced pass that times every layer from
// outside. See README.md in this directory and BENCHMARK.json at the root.
//
//	bash benchmark/run.sh --workload serve-point --seed 1 --seconds 4 --trace 0
//	bash benchmark/run.sh --workload all --seed 101 --save a.json   (ten seeds make a set)
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the graph and of every request parameter")
	seconds := fs.Int("seconds", 4, "length of the recorded phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
	isSmoke := fs.Bool("smoke", false, "n = 64 and a 0.3 s phase: exercises every path, measures nothing")
	out := fs.String("out", ".bench_build", "directory for trace-<workload>.json")
	save := fs.String("save", "", "append this run's results to a JSON file for -compare")
	compare := fs.Bool("compare", false, "compare two saved sets of runs: -compare a.json b.json")
	manifest := fs.String("manifest", "BENCHMARK.json", "the manifest -compare takes directions and bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(*manifest, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be at least 1, --trace 0 or 1, and no further arguments")
		return 2
	}
	cfg := full(*seed, *seconds)
	if *isSmoke {
		cfg = smoke(*seed)
	}
	cfg.outDir = *out
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		todo = []*workload{wl}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	mode := runEndToEnd
	if *trace == 1 {
		mode = runTrace
	}
	code := 0
	for _, wl := range todo {
		res, err := mode(ctx, cfg, wl)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if res.tracePath != "" {
			fmt.Fprintln(stderr, "benchmark: spans written to", res.tracePath)
		}
		if *save != "" {
			if err := saveResult(*save, cfg, *trace == 1, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %v\n", wl.name, res.Failed, res.Attempted, res.firstErr)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

// report prints every metric by name, unit and workload, and as the last
// line the one JSON object the benchmark contract asks for.
func report(w io.Writer, res *result) error {
	for _, name := range res.names {
		if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v: nothing was measured for it", res.Workload, name, v)
		}
	}
	for _, name := range res.names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-13s %-42s %14.6g %-6s", res.Workload, name, m.Value, m.Unit)
		if len(m.of) > 0 {
			lo, hi := m.of[0], m.of[0]
			for _, v := range m.of {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			line += fmt.Sprintf(" spread %5.1f%%  median of %s", 100*(hi-lo)/m.Value, fmtFloats(m.of))
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]wire, len(res.Metrics))}
	for name, m := range res.Metrics {
		last.Metrics[name] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fmt.Errorf("%s: %w", res.Workload, err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// savedFile is what --save appends to and -compare reads: a set of runs.
type savedFile struct {
	Meta map[string]string `json:"meta"`
	Runs []savedRun        `json:"runs"`
}

type savedRun struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadSaved(path string) (*savedFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f savedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func saveResult(path string, cfg config, traced bool, res *result) error {
	f, err := loadSaved(path)
	if os.IsNotExist(err) {
		f, err = &savedFile{}, nil
	}
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	f.Meta = map[string]string{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"seconds":    fmt.Sprint(cfg.run.Seconds()),
		"n":          fmt.Sprint(cfg.n),
	}
	f.Runs = append(f.Runs, savedRun{res.Workload, cfg.seed, traced, res.Attempted, res.Failed, res.Metrics})
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	return nil
}

// cpuModel reads the first model name from /proc/cpuinfo, for the record.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
