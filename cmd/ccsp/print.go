// Output rendering shared by every mode. The formats are the historical
// ones (node-indexed rows for sssp/mssp, bare rows for apsp,
// "v: n(d=..,via=..)" neighbor lists), so one-shot runs, snapshot runs
// and -server/-cluster runs print identically and can be diffed line for
// line.
package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
)

// distStr renders one wire distance (api.Unreachable = -1 prints "inf").
func distStr(d int64) string {
	if d < 0 {
		return "inf"
	}
	return strconv.FormatInt(d, 10)
}

// distRow renders one tab-joined row of distances.
func distRow(row []int64) string {
	parts := make([]string, len(row))
	for i, d := range row {
		parts[i] = distStr(d)
	}
	return strings.Join(parts, "\t")
}

// printNeighborRows prints "v: n(d=..,via=..)" lists (knearest) or
// "v: n(d=..,hops=..)" (sourcedetect, which tracks no witnesses).
func printNeighborRows(w io.Writer, lists [][]api.Neighbor, withVia bool) {
	for v, nbs := range lists {
		fmt.Fprintf(w, "%d:", v)
		for _, e := range nbs {
			if withVia {
				fmt.Fprintf(w, " %d(d=%d,via=%d)", e.Node, e.Dist, e.FirstHop)
			} else {
				fmt.Fprintf(w, " %d(d=%d,hops=%d)", e.Node, e.Dist, e.Hops)
			}
		}
		fmt.Fprintln(w)
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
// response's own per-node vectors; fallback (what /healthz or the local
// graph reports) when the kind carries none (distance, diameter).
func responseNodes(resp *api.Response, fallback int) int {
	switch {
	case resp.SSSP != nil:
		return len(resp.SSSP.Dist)
	case resp.MSSP != nil:
		return len(resp.MSSP.Dist)
	case resp.APSP != nil:
		return len(resp.APSP.Dist)
	case resp.KNearest != nil:
		return len(resp.KNearest.Neighbors)
	case resp.SourceDetection != nil:
		return len(resp.SourceDetection.Detected)
	}
	return fallback
}

// printResponse renders one api.Response in the historical per-algorithm
// format: result rows (suppressed by -quiet, except the one-line
// diameter/distance answers), then the stats line.
func printResponse(w io.Writer, resp *api.Response, n int, quiet bool) {
	switch resp.Kind {
	case api.KindSSSP: // "v<TAB>dist" rows
		if !quiet {
			for v, d := range resp.SSSP.Dist {
				fmt.Fprintf(w, "%d\t%s\n", v, distStr(d))
			}
		}
	case api.KindMSSP: // "v<TAB>d1<TAB>d2..." rows, one column per sorted source
		if !quiet {
			for v, row := range resp.MSSP.Dist {
				fmt.Fprintf(w, "%d\t%s\n", v, distRow(row))
			}
		}
	case api.KindAPSP: // bare tab-joined rows
		if !quiet {
			for _, row := range resp.APSP.Dist {
				fmt.Fprintln(w, distRow(row))
			}
		}
	case api.KindDistance:
		d := resp.Distance
		fmt.Fprintf(w, "distance %d -> %d: %s\n", d.From, d.To, distStr(d.Distance))
	case api.KindDiameter:
		fmt.Fprintf(w, "diameter estimate: %d\n", resp.Diameter.Estimate)
	case api.KindKNearest:
		if !quiet {
			printNeighborRows(w, resp.KNearest.Neighbors, true)
		}
	case api.KindSourceDetection:
		if !quiet {
			printNeighborRows(w, resp.SourceDetection.Detected, false)
		}
	}
	fmt.Fprintln(w, statsLine(resp.Stats, n))
}
