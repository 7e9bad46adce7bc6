package main

import (
	"fmt"
	"sort"
	"sync"

	"github.com/congestedclique/ccsp/api"
)

// oracle checks answers against Dijkstra on the harness's own graph copy.
// The mutate writer appends a weight vector per update batch, so version v
// is the graph the server reports as epoch v.
type oracle struct {
	g   *testGraph
	eps float64

	mu       sync.Mutex
	versions [][]int64
	truth    map[[2]int][]int64 // (version, source) -> exact distances
}

func newOracle(g *testGraph, w []int64, eps float64) *oracle {
	return &oracle{g: g, eps: eps, versions: [][]int64{w}, truth: make(map[[2]int][]int64)}
}

// version returns the index of the newest graph version.
func (o *oracle) version() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.versions) - 1
}

// weightsAt returns the weight vector of a graph version (read-only).
func (o *oracle) weightsAt(ver int) []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.versions[ver]
}

// reweight records the next graph version and returns its index.
func (o *oracle) reweight(idx []int, w []int64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	next := append([]int64(nil), o.versions[len(o.versions)-1]...)
	for i, e := range idx {
		next[e] = w[i]
	}
	o.versions = append(o.versions, next)
	return len(o.versions) - 1
}

func (o *oracle) dist(ver, src int) []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := [2]int{ver, src}
	if d, ok := o.truth[key]; ok {
		return d
	}
	d := o.g.dijkstra(o.versions[ver], src)
	o.truth[key] = d
	return d
}

// forget drops the cached distance vectors.
func (o *oracle) forget() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.truth = make(map[[2]int][]int64)
}

// structural is the check every response gets while the clock runs: the right kind, no error, n-length rows, values >= -1.
func structural(req api.Request, resp *api.Response, n int) error {
	if resp == nil {
		return fmt.Errorf("nil response")
	}
	if resp.Error != nil {
		return fmt.Errorf("error response: %v", resp.Error)
	}
	if resp.Kind != req.Kind {
		return fmt.Errorf("kind %q answered as %q", req.Kind, resp.Kind)
	}
	rows := func(dist [][]int64, width int) error {
		if len(dist) != n {
			return fmt.Errorf("%d rows, want %d", len(dist), n)
		}
		for v, row := range dist {
			if len(row) != width {
				return fmt.Errorf("row %d has %d columns, want %d", v, len(row), width)
			}
			for _, x := range row {
				if x < api.Unreachable {
					return fmt.Errorf("row %d holds %d", v, x)
				}
			}
		}
		return nil
	}
	switch req.Kind {
	case api.KindDistance:
		if resp.Distance == nil || resp.Distance.From != req.Distance.From || resp.Distance.To != req.Distance.To {
			return fmt.Errorf("distance result missing or for another pair")
		}
		if resp.Distance.Distance < api.Unreachable {
			return fmt.Errorf("distance %d", resp.Distance.Distance)
		}
	case api.KindMSSP:
		if resp.MSSP == nil || len(resp.MSSP.Sources) != len(req.MSSP.Sources) {
			return fmt.Errorf("mssp result missing or for another source set")
		}
		return rows(resp.MSSP.Dist, len(resp.MSSP.Sources))
	case api.KindAPSP:
		if resp.APSP == nil {
			return fmt.Errorf("apsp result missing")
		}
		return rows(resp.APSP.Dist, n)
	case api.KindKNearest:
		if resp.KNearest == nil || len(resp.KNearest.Neighbors) != n {
			return fmt.Errorf("knearest result missing or not %d lists", n)
		}
		for v, nb := range resp.KNearest.Neighbors {
			if len(nb) != req.KNearest.K {
				return fmt.Errorf("node %d lists %d neighbors, want %d", v, len(nb), req.KNearest.K)
			}
		}
	}
	return nil
}

// within reports d <= est <= mult*d + add.
func within(est, d int64, mult, add float64) bool {
	return est >= d && float64(est) <= mult*float64(d)+add+1e-9
}

// check verifies one answer against Dijkstra on graph version ver:
// distance and mssp within [d, (1+eps)d], apsp within Theorem 28's
// (2+eps)d + (1+eps)W, knearest exact.
func (o *oracle) check(req api.Request, resp *api.Response, ver int) error {
	if err := structural(req, resp, o.g.n); err != nil {
		return err
	}
	switch req.Kind {
	case api.KindDistance:
		p := req.Distance
		if want := o.dist(ver, p.From)[p.To]; !within(resp.Distance.Distance, want, 1+o.eps, 0) {
			return fmt.Errorf("distance %d->%d = %d, exact %d", p.From, p.To, resp.Distance.Distance, want)
		}
	case api.KindMSSP:
		for i, s := range resp.MSSP.Sources {
			want := o.dist(ver, s)
			for v, row := range resp.MSSP.Dist {
				if !within(row[i], want[v], 1+o.eps, 0) {
					return fmt.Errorf("mssp %d->%d = %d, exact %d", s, v, row[i], want[v])
				}
			}
		}
	case api.KindAPSP:
		add := (1 + o.eps) * maxWeight
		for u, row := range resp.APSP.Dist {
			want := o.dist(ver, u)
			for v, est := range row {
				if !within(est, want[v], 2+o.eps, add) {
					return fmt.Errorf("apsp %d->%d = %d, exact %d", u, v, est, want[v])
				}
			}
		}
	case api.KindKNearest:
		kk := req.KNearest.K
		for v, nb := range resp.KNearest.Neighbors {
			want := o.dist(ver, v)
			nearest := append([]int64(nil), want...)
			sort.Slice(nearest, func(i, j int) bool { return nearest[i] < nearest[j] })
			for i, x := range nb {
				// Ties may pick different nodes; the distance profile and
				// each listed node's own distance must both be exact.
				if x.Dist != want[x.Node] || x.Dist != nearest[i] {
					return fmt.Errorf("knearest(k=%d) node %d entry %d = (%d, %d), exact %d, rank distance %d",
						kk, v, i, x.Node, x.Dist, want[x.Node], nearest[i])
				}
			}
		}
	}
	return nil
}

// checkRange accepts an answer that is right on any graph version in
// [lo, hi]: a read racing a hot swap may be served by either generation.
func (o *oracle) checkRange(req api.Request, resp *api.Response, lo, hi int) error {
	if lo < 0 {
		lo = 0
	}
	var err error
	for ver := lo; ver <= hi; ver++ {
		if err = o.check(req, resp, ver); err == nil {
			return nil
		}
	}
	return err
}
