// Batch mode: parse a query file into typed api.Requests and answer the
// whole set through the querier's Batch - Engine.Batch locally (one
// preprocessing for the entire batch, the paper's amortization claim),
// one POST /v1/batch against a daemon, one sub-batch per owning shard
// against a cluster.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/congestedclique/ccsp/api"
)

// batchQuery is one parsed line of a batch file.
type batchQuery struct {
	line int
	text string
	req  api.Request
}

// parseBatchFile reads the query lines of path ("-" for stdin).
func parseBatchFile(path string) ([]batchQuery, error) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	var queries []batchQuery
	sc := bufio.NewScanner(in)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		req, err := parseQueryLine(strings.Fields(text))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		queries = append(queries, batchQuery{line: line, text: text, req: req})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return queries, nil
}

// querySyntax is the batch-line grammar (and, through requestForAlgo,
// the -algo one): query name → usage. Every argument is an integer except
// a leading s1,s2,... source list.
var querySyntax = map[string]string{
	"mssp":         "mssp s1,s2,...",
	"sssp":         "sssp src",
	"apsp":         "apsp",
	"apsp3":        "apsp3",
	"distance":     "distance from to",
	"diameter":     "diameter",
	"knearest":     "knearest k",
	"sourcedetect": "sourcedetect s1,s2,... d k",
}

// parseQueryLine translates one batch line into a typed request.
func parseQueryLine(fields []string) (api.Request, error) {
	name := fields[0]
	usage, ok := querySyntax[name]
	if !ok {
		return api.Request{}, fmt.Errorf("unknown query %q", name)
	}
	want := strings.Fields(usage)
	if len(fields) != len(want) {
		return api.Request{}, fmt.Errorf("want '%s'", usage)
	}
	var srcs []int
	ints := make([]int, len(fields)) // ints[i] is fields[i], where that is an integer
	for i := 1; i < len(fields); i++ {
		var err error
		if want[i] == "s1,s2,..." {
			srcs, err = parseSources(fields[i])
		} else {
			ints[i], err = strconv.Atoi(fields[i])
		}
		if err != nil {
			return api.Request{}, err
		}
	}
	switch name {
	case "mssp":
		return api.MSSP(srcs...), nil
	case "sssp":
		return api.SSSP(ints[1]), nil
	case "apsp":
		return api.APSP(api.APSPAuto), nil
	case "apsp3":
		return api.APSP(api.APSPWeighted3), nil
	case "distance":
		return api.Distance(ints[1], ints[2]), nil
	case "diameter":
		return api.Diameter(), nil
	case "knearest":
		return api.KNearest(ints[1]), nil
	default: // sourcedetect
		return api.SourceDetection(srcs, ints[2], ints[3]), nil
	}
}

// answerBatch asks q the whole batch, renders each answer in input order
// and returns the summed query rounds. The first failed response aborts
// with its source line, after every answer before it has printed.
func answerBatch(ctx context.Context, w io.Writer, q querier, path string, queries []batchQuery, graphID string, n int, quiet bool) (int, error) {
	reqs := make([]api.Request, len(queries))
	for i, bq := range queries {
		reqs[i] = bq.req.On(graphID)
	}
	resps, err := q.Batch(ctx, reqs)
	if err != nil {
		return 0, err
	}
	// Graph-scoped answers may come from a graph of a different size
	// than the daemon's default (whose shape is all /healthz reports),
	// so prefer a node count derived from the batch's own per-node
	// vectors; n stays the last-resort fallback for batches made up
	// entirely of kinds that carry none (distance, diameter).
	for i := range resps {
		if rn := responseNodes(&resps[i], 0); rn != 0 {
			n = rn
			break
		}
	}
	queryRounds := 0
	for i, bq := range queries {
		resp := resps[i]
		if resp.Error != nil {
			return 0, fmt.Errorf("%s:%d: %s", path, bq.line, resp.Error)
		}
		rn := responseNodes(&resp, n)
		printResponse(w, &resp, rn, quiet)
		fmt.Fprintf(w, "query %q: %s\n", bq.text, statsLine(resp.Stats, rn))
		if resp.Stats != nil {
			queryRounds += resp.Stats.TotalRounds
		}
	}
	return queryRounds, nil
}
