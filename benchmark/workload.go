package main

import (
	"fmt"
	"hash/fnv"

	"github.com/congestedclique/ccsp/api"
)

// workload is one traffic mix. Request kinds follow a fixed cyclic
// schedule per client and only parameters come from the seeded PRNG, so
// mix proportions - and with them bytes and allocations per op - are
// exact rather than sampled.
type workload struct {
	name string
	why  string
	// cacheSize is server.Config.CacheSize: -1 disables the response LRU,
	// 0 keeps the daemon's default of 128 entries.
	cacheSize int
	// cycle is the kind sequence every client repeats; client c starts
	// half a cycle after client c-1 so the heavy kinds do not collide.
	cycle []api.Kind
	// hot draws 98% of the keys from a 64-key hot set that fits the LRU.
	hot bool
	// mutate replaces client 0 by a writer: synchronous 4-edge reweights,
	// each followed by a distance probe between the first edge's endpoints,
	// and gives client B a fixed number of reads per update cycle.
	mutate bool
}

// cycleOf spells a schedule with one letter per request: d(istance),
// m(ssp), k(nearest), a(psp).
func cycleOf(letters string) []api.Kind {
	kinds := map[rune]api.Kind{'d': api.KindDistance, 'm': api.KindMSSP, 'k': api.KindKNearest, 'a': api.KindAPSP}
	var out []api.Kind
	for _, l := range letters {
		out = append(out, kinds[l])
	}
	return out
}

var workloads = []workload{
	{
		name:      "serve-point",
		why:       "small answers, cache off: 7 distance + 3 mssp(q=8) per cycle splits time between the fixed serving cost and the engine's restricted detection sweeps",
		cacheSize: -1,
		cycle:     cycleOf("ddmddmddmd"),
	},
	{
		name:      "serve-bulk",
		why:       "0.4-3 MB answers, cache off: 1 apsp + 8 knearest per cycle is dominated by the result path (shape, wire copy, indented JSON, client decode), not the kernels",
		cacheSize: -1,
		cycle:     cycleOf("akkkkkkkk"),
	},
	{
		name:  "serve-cached",
		why:   "default 128-entry LRU, 98% of keys from a 64-key hot set: the hit path (plan, LRU, re-encode) does the work, so an engine or kernel change must not move it",
		cycle: cycleOf("dmddmdmddm"),
		hot:   true,
	},
	{
		name:      "mutate",
		why:       "writes beside reads, cache off: each 4-edge reweight forces a full hopset rebuild and hot swap that compete with 1024 closed-loop distance reads for the two cores",
		cacheSize: -1,
		cycle:     cycleOf("d"),
		mutate:    true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// uses reports whether the workload's schedule issues the kind.
func (w *workload) uses(kind api.Kind) bool {
	for _, c := range w.cycle {
		if c == kind {
			return true
		}
	}
	return false
}

const (
	msspSources = 8  // q of every mssp request
	hotKeys     = 32 // hot sources and hot source sets, each
	updateEdges = 4  // reweights per update batch
)

// opGen produces one client's request stream.
type opGen struct {
	wl       *workload
	n        int
	rng      *prng
	pos      int
	knearest int // knearest requests issued so far
	hotSrc   []int
	hotSets  [][]int
}

func newOpGen(wl *workload, n int, seed int64, client int) *opGen {
	g := &opGen{
		wl:  wl,
		n:   n,
		rng: newPRNG(seed, fmt.Sprintf("%s/client%d", wl.name, client)),
		pos: client * len(wl.cycle) / 2,
	}
	if wl.hot {
		shared := newPRNG(seed, wl.name+"/hot")
		g.hotSrc = shared.distinct(hotKeys, n)
		for i := 0; i < hotKeys; i++ {
			g.hotSets = append(g.hotSets, shared.distinct(msspSources, n))
		}
	}
	return g
}

// next returns the next request of the cyclic schedule.
func (g *opGen) next() api.Request {
	kind := g.wl.cycle[g.pos%len(g.wl.cycle)]
	g.pos++
	return g.request(kind)
}

func (g *opGen) request(kind api.Kind) api.Request {
	// The response cache keys a distance by its source and an mssp by its
	// source set, so those are what the hot set pins.
	hot := g.wl.hot && g.rng.intn(100) < 98
	switch kind {
	case api.KindDistance:
		from := g.rng.intn(g.n)
		if hot {
			from = g.hotSrc[g.rng.intn(hotKeys)]
		}
		to := g.rng.intn(g.n - 1)
		if to >= from {
			to++
		}
		return api.Request{Kind: kind, Distance: &api.DistanceParams{From: from, To: to}}
	case api.KindMSSP:
		src := g.rng.distinct(msspSources, g.n)
		if hot {
			src = g.hotSets[g.rng.intn(hotKeys)]
		}
		return api.Request{Kind: kind, MSSP: &api.MSSPParams{Sources: src}}
	case api.KindKNearest:
		// k walks 4..11 in turn, one of each per serve-bulk cycle: answer
		// size grows with k, so a drawn k would make bytes per op inexact.
		g.knearest++
		return api.Request{Kind: kind, KNearest: &api.KNearestParams{K: 4 + (g.knearest-1)%8}}
	default:
		return api.Request{Kind: api.KindAPSP}
	}
}

// updateGen produces the writer's batches: reweights of existing edges,
// so the topology (and the oracle's adjacency) never changes.
type updateGen struct {
	g   *testGraph
	rng *prng
}

func newUpdateGen(g *testGraph, seed int64) *updateGen {
	return &updateGen{g: g, rng: newPRNG(seed, "mutate/writer")}
}

// next returns the edge indices and new weights of one batch.
func (u *updateGen) next() (idx []int, w []int64) {
	idx = u.rng.distinct(updateEdges, len(u.g.edges))
	for range idx {
		w = append(w, int64(1+u.rng.intn(maxWeight)))
	}
	return idx, w
}

// scheduleHash is the FNV-64a of the first 1000 scheduled requests of a
// workload (500 per client; for mutate, 10 writer batches and 1000 reads).
func scheduleHash(wl *workload, g *testGraph, seed int64) uint64 {
	h := fnv.New64a()
	emit := func(gen *opGen, count int) {
		for i := 0; i < count; i++ {
			fmt.Fprintln(h, gen.next().CacheKey())
		}
	}
	if wl.mutate {
		ug := newUpdateGen(g, seed)
		for i := 0; i < 10; i++ {
			idx, w := ug.next()
			fmt.Fprintln(h, idx, w)
		}
		emit(newOpGen(wl, g.n, seed, 1), 1000)
		return h.Sum64()
	}
	for c := 0; c < numClients; c++ {
		emit(newOpGen(wl, g.n, seed, c), 1000/numClients)
	}
	return h.Sum64()
}

// pinnedGraph and pinnedSchedule hold the hashes of the default inputs
// (seed 1, n = 1024). A change to the generators then fails loudly at
// start-up and cannot silently shift a number; other seeds skip the pin.
const pinnedGraph uint64 = 0x73d22fbc1034dbfd

var pinnedSchedule = map[string]uint64{
	"serve-point":  0x8a876db9c53148c6,
	"serve-bulk":   0x83f772df40237229,
	"serve-cached": 0x02b94e02014e7302,
	"mutate":       0xde77c3e1d2e0e66a,
}
