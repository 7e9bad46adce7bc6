// Output rendering shared by the local and remote query paths. The
// formats are the historical ones (node-indexed rows for sssp/mssp,
// bare rows for apsp, "v: n(d=..,via=..)" neighbor lists), so local
// engine runs, snapshot runs and -server runs print identically and
// can be diffed line for line.
package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// distStr renders one distance, accepting both conventions: the
// in-process ccsp.Unreachable sentinel and the wire's -1.
func distStr(d int64) string {
	if d < 0 || d >= ccsp.Unreachable {
		return "inf"
	}
	return strconv.FormatInt(d, 10)
}

// printVector prints "v<TAB>dist" rows (sssp).
func printVector(dist []int64) {
	for v, d := range dist {
		fmt.Printf("%d\t%s\n", v, distStr(d))
	}
}

// printIndexedMatrix prints "v<TAB>d1<TAB>d2..." rows (mssp: one column
// per sorted source).
func printIndexedMatrix(dist [][]int64) {
	for v, row := range dist {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = distStr(d)
		}
		fmt.Printf("%d\t%s\n", v, strings.Join(parts, "\t"))
	}
}

// printMatrix prints bare tab-joined rows (apsp).
func printMatrix(dist [][]int64) {
	for _, row := range dist {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = distStr(d)
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
}

// printNeighborRows prints "v: n(d=..,via=..)" lists (knearest) or
// "v: n(d=..,hops=..)" (sourcedetect, which tracks no witnesses).
func printNeighborRows(lists [][]api.Neighbor, withVia bool) {
	for v, nbs := range lists {
		fmt.Printf("%d:", v)
		for _, e := range nbs {
			if withVia {
				fmt.Printf(" %d(d=%d,via=%d)", e.Node, e.Dist, e.FirstHop)
			} else {
				fmt.Printf(" %d(d=%d,hops=%d)", e.Node, e.Dist, e.Hops)
			}
		}
		fmt.Println()
	}
}

// statsLine renders wire stats in the ccsp.Stats one-line format (the
// charged count is rounds minus simulated rounds, so the wire core
// reconstructs the line exactly).
func statsLine(s *api.Stats, n int) string {
	if s == nil {
		return "(no stats)"
	}
	return ccsp.Stats{Nodes: n, TotalRounds: s.TotalRounds, SimRounds: s.SimRounds,
		Messages: s.Messages, Words: s.Words}.String()
}

// responseNodes derives the answering graph's node count from a
// response's own per-node vectors; 0 when the kind carries none
// (distance, diameter) and the caller must fall back to /healthz.
func responseNodes(resp *api.Response) int {
	switch resp.Kind {
	case api.KindSSSP:
		if resp.SSSP != nil {
			return len(resp.SSSP.Dist)
		}
	case api.KindMSSP:
		if resp.MSSP != nil {
			return len(resp.MSSP.Dist)
		}
	case api.KindAPSP:
		if resp.APSP != nil {
			return len(resp.APSP.Dist)
		}
	case api.KindKNearest:
		if resp.KNearest != nil {
			return len(resp.KNearest.Neighbors)
		}
	case api.KindSourceDetection:
		if resp.SourceDetection != nil {
			return len(resp.SourceDetection.Detected)
		}
	}
	return 0
}

// printResponse renders one api.Response in the historical per-algorithm
// format: result rows (suppressed by -quiet, except the one-line
// diameter/distance answers), then the stats line.
func printResponse(resp *api.Response, n int, quiet bool) {
	switch resp.Kind {
	case api.KindSSSP:
		if !quiet {
			printVector(resp.SSSP.Dist)
		}
	case api.KindMSSP:
		if !quiet {
			printIndexedMatrix(resp.MSSP.Dist)
		}
	case api.KindAPSP:
		if !quiet {
			printMatrix(resp.APSP.Dist)
		}
	case api.KindDistance:
		d := resp.Distance
		fmt.Printf("distance %d -> %d: %s\n", d.From, d.To, distStr(d.Distance))
	case api.KindDiameter:
		fmt.Printf("diameter estimate: %d\n", resp.Diameter.Estimate)
	case api.KindKNearest:
		if !quiet {
			printNeighborRows(resp.KNearest.Neighbors, true)
		}
	case api.KindSourceDetection:
		if !quiet {
			printNeighborRows(resp.SourceDetection.Detected, false)
		}
	}
	fmt.Println(statsLine(resp.Stats, n))
}
