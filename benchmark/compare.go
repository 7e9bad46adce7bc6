package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json that -compare needs: each
// end-to-end metric's direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// series is what one set of runs measured for one metric of one workload.
type series []float64

// values collects a metric over a file's runs of one workload and mode.
func (f *savedFile) values(workload string, traced bool, name string) series {
	var out series
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first and third quartile of a sorted series as
// Python's statistics.quantiles(v, n=4) does, which is how the driver takes
// a metric's spread.
func (v series) quartiles() (q1, q3 float64) {
	m := len(v)
	if m < 2 {
		return v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the quartiles: the set's run-to-run noise.
func (v series) iqr() float64 {
	q1, q3 := v.quartiles()
	return q3 - q1
}

// compareFiles prints, for every (workload, end-to-end metric) both sets
// hold, the change of the median from a to b against the metric's bound,
// then the per-layer metrics that moved most. It returns 1 if any row
// regressed.
//
// A set is the runs of one commit, ten seeds or more per workload: one run
// is one state of the host (README). A row is unresolved, not flat and not
// regressed, when either set has fewer than four runs, or when the
// distance between the quartiles of either set is wider than the bound,
// unless every run of one set reads better than every run of the other:
// the sets cannot tell a change of that size from their own noise.
func compareFiles(manifestPath, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(manifestPath)
	var mf manifest
	if err == nil {
		err = json.Unmarshal(raw, &mf)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare needs the manifest (-manifest, default BENCHMARK.json in the working directory):", err)
		return 2
	}
	a, err := loadSaved(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSaved(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	regressed := 0
	fmt.Fprintf(stdout, "a = %s, b = %s; medians over the runs of each set\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-13s %-16s %4s %12s %7s %4s %12s %7s %9s %6s  %s\n",
		"workload", "metric", "runs", "a", "spread", "runs", "b", "spread", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range mf.EndToEnd {
			va, vb := a.values(wl.name, false, m.Name), b.values(wl.name, false, m.Name)
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse > 0 means b is worse than a, as a share of a.
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			// Fewer than four runs have no quartiles to speak of.
			resolved := len(va) >= 4 && len(vb) >= 4 &&
				(va[len(va)-1] < vb[0] || vb[len(vb)-1] < va[0] ||
					math.Max(va.iqr()/math.Abs(ma), vb.iqr()/math.Abs(mb)) <= m.Bound)
			verdict := "flat"
			switch {
			case !resolved:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(stdout, "%-13s %-16s %4d %12.6g %6.1f%% %4d %12.6g %6.1f%% %+8.1f%% %5.1f%%  %s\n",
				wl.name, m.Name, len(va), ma, 100*va.iqr()/math.Abs(ma), len(vb), mb, 100*vb.iqr()/math.Abs(mb), 100*worse, 100*m.Bound, verdict)
		}
		failedA, failedB := a.failed(wl.name), b.failed(wl.name)
		if failedB > failedA {
			fmt.Fprintf(stdout, "%-13s %-16s %4s %12d %7s %4s %12d %7s %9s %6s  REGRESSED\n", wl.name, "failed", "", failedA, "", "", failedB, "", "", "any")
			regressed++
		}
	}

	// Per-layer metrics have no bound. List those whose median moved by more
	// than either set's own noise, largest share first. The share is of the
	// larger of the two medians, so that a difference of two times that
	// hovers around zero (server.self_ms_*, ccsp.shape_ms_*,
	// dynamic.overhead_ms) cannot head the list with a move of 700 %.
	type move struct {
		workload, name string
		a, b, rel      float64
	}
	var moves []move
	for _, wl := range workloads {
		names := make(map[string]bool)
		for _, r := range a.Runs {
			if r.Workload == wl.name && r.Traced {
				for name := range r.Metrics {
					names[name] = true
				}
			}
		}
		for name := range names {
			va, vb := a.values(wl.name, true, name), b.values(wl.name, true, name)
			if len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if delta := math.Abs(mb - ma); delta > 0 && delta > math.Max(va.iqr(), vb.iqr()) {
				moves = append(moves, move{wl.name, name, ma, mb, (mb - ma) / math.Max(math.Abs(ma), math.Abs(mb))})
			}
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		if ri, rj := math.Abs(moves[i].rel), math.Abs(moves[j].rel); ri != rj {
			return ri > rj
		}
		return moves[i].workload+moves[i].name < moves[j].workload+moves[j].name
	})
	if len(moves) > 12 {
		moves = moves[:12]
	}
	if len(moves) > 0 {
		fmt.Fprintln(stdout, "\nper-layer metrics whose median moved by more than the distance between either set's quartiles (no bounds apply; share of the larger median):")
	}
	for _, mv := range moves {
		fmt.Fprintf(stdout, "%-13s %-42s %14.6g %14.6g %+8.1f%%\n", mv.workload, mv.name, mv.a, mv.b, 100*mv.rel)
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s)\n", regressed)
		return 1
	}
	return 0
}

// failed sums the failed operations of a file's end-to-end runs of one
// workload.
func (f *savedFile) failed(workload string) int {
	total := 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			total += r.Failed
		}
	}
	return total
}
