package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/congestedclique/ccsp/api"
)

// numClients is the number of closed-loop connections: each sends its
// next request only after the previous answer arrived. It is fixed at the
// sandbox's two cores, not derived from the machine.
const numClients = 2

// oracleEvery keeps one response in this many for a Dijkstra check after
// the clock stops.
const oracleEvery = 64

type opSample struct {
	kind   api.Kind
	lat    time.Duration
	bytes  int64
	cached bool
	// Traced pass only.
	tag    int64         // request id = client span id
	decode time.Duration // json.Unmarshal of the captured body
}

type kept struct {
	answer
	// The newest graph version when the request was sent and when its
	// answer arrived. The writer records a version before it sends the
	// batch, so the serving epoch lies in [sent-1, arrived].
	sent, arrived int
}

// opLog is one connection's record; only its own goroutine writes it.
type opLog struct {
	ops, failed int
	firstErr    error
	samples     []opSample
	kept        []kept
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// driver issues requests and checks each answer's structure.
type driver struct {
	ctx context.Context
	n   int
	o   *oracle
	rec *recorder // nil outside the traced pass
}

// query sends one request on c. Latency is what a caller of client.Query
// sees: request encode, round trip, body read and response decode.
func (d *driver) query(c *conn, req api.Request, log *opLog) *api.Response {
	traced := d.rec != nil && d.rec.on.Load()
	c.rt.tag, c.rt.keep = 0, traced
	if traced {
		c.rt.tag = d.rec.nextID()
	}
	ver := d.o.version()
	start := time.Now()
	resp, err := c.cl.Query(d.ctx, req)
	end := time.Now()
	log.ops++
	if err == nil {
		err = structural(req, resp, d.n)
	}
	if err != nil {
		log.fail(fmt.Errorf("%s: %w", req.Kind, err))
		return nil
	}
	s := opSample{kind: req.Kind, lat: end.Sub(start), bytes: c.rt.bytes, cached: resp.Cached, tag: c.rt.tag}
	if traced {
		var again api.Response
		t0 := time.Now()
		if err := json.Unmarshal(c.rt.body, &again); err != nil {
			log.fail(fmt.Errorf("%s: decode captured body: %w", req.Kind, err))
		}
		s.decode = time.Since(t0)
		d.rec.add("client."+string(req.Kind), start, end, 0, s.tag, s.tag)
	}
	log.samples = append(log.samples, s)
	if log.ops%oracleEvery == 0 {
		log.kept = append(log.kept, kept{answer{req, resp}, ver, d.o.version()})
	}
	return resp
}

// runCycles issues whole cycles of gen's schedule until done reports true,
// so every connection's op count is a multiple of the cycle and the kind
// mix of the recorded ops is exact.
func (d *driver) runCycles(c *conn, gen *opGen, done func() bool, log *opLog) {
	for {
		for range gen.wl.cycle {
			d.query(c, gen.next(), log)
		}
		if done() || d.ctx.Err() != nil {
			return
		}
	}
}

// freshSample is one update cycle: from sending the batch to the probe's
// answer.
type freshSample struct {
	start time.Time
	dur   time.Duration
}

// writerLog is the mutate writer's record.
type writerLog struct {
	opLog
	fresh []freshSample
}

// updateCycle is one cycle of the mutate workload's client A: a synchronous
// POST /v1/update (4 reweights), then a distance probe between the first
// edge's endpoints, verified at exactly the next epoch against Dijkstra on
// the mutated copy. It reports whether another cycle may follow: not after
// a failed update, which leaves the copy and the server on different
// versions, and not once ctx has ended.
func (d *driver) updateCycle(c *conn, ug *updateGen, log *writerLog) bool {
	idx, w := ug.next()
	ups := make([]api.EdgeUpdate, len(idx))
	for i, e := range idx {
		ups[i] = api.EdgeUpdate{U: ug.g.edges[e].u, V: ug.g.edges[e].v, W: w[i]}
	}
	start := time.Now()
	ver := d.o.reweight(idx, w)
	ur, err := c.cl.Update(d.ctx, "", ups)
	if d.ctx.Err() != nil {
		return false
	}
	log.ops++
	if err != nil || ur.Epoch != uint64(ver) {
		log.fail(fmt.Errorf("update to epoch %d: got %+v, %v", ver, ur, err))
		return false
	}
	probe := api.Request{Kind: api.KindDistance, Distance: &api.DistanceParams{From: ups[0].U, To: ups[0].V}}
	resp := d.query(c, probe, &log.opLog)
	dur := time.Since(start)
	if resp == nil {
		return d.ctx.Err() == nil
	}
	ep, err := c.cl.Epoch(d.ctx, "")
	switch {
	case d.ctx.Err() != nil:
		return false
	case err != nil || ep.Epoch != uint64(ver):
		log.fail(fmt.Errorf("probe after epoch %d: serving %+v, %v", ver, ep, err))
	default:
		if err := d.o.check(probe, resp, ver); err != nil {
			log.fail(fmt.Errorf("probe at epoch %d: %w", ver, err))
		}
	}
	log.fresh = append(log.fresh, freshSample{start, dur})
	return true
}

// session is a workload's set of closed-loop connections: the readers
// and, on mutate, the writer.
type session struct {
	d     *driver
	conns []*conn
	gens  []*opGen

	// mutate only
	writer     *writerLog
	writerConn *conn
	writerGen  *updateGen
}

// open connects the readers (mutate always has exactly one, client B).
func (d *driver) open(wl *workload, g *testGraph, seed int64, base string, readers int) *session {
	s := &session{d: d}
	first := 0
	if wl.mutate {
		first, readers = 1, 1
		s.writer, s.writerConn, s.writerGen = &writerLog{}, newConn(base), newUpdateGen(g, seed)
	}
	for i := first; i < first+readers; i++ {
		s.conns = append(s.conns, newConn(base))
		s.gens = append(s.gens, newOpGen(wl, g.n, seed, i))
	}
	return s
}

// read drives every reader through whole cycles until done reports true
// and returns one log per reader.
func (s *session) read(done func() bool) []*opLog {
	logs := make([]*opLog, len(s.conns))
	var wg sync.WaitGroup
	for i := range s.conns {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.d.runCycles(s.conns[i], s.gens[i], done, logs[i])
		}(i)
	}
	wg.Wait()
	return logs
}

// mutate runs whole update cycles until done reports true. In each cycle
// the writer's update and probe run beside exactly reads closed-loop reads
// of client B, and the next cycle starts when both are through: the op mix
// is then exact whatever the speed of the host, as it is on the serve-*
// workloads. It returns the reader's log; the writer's is s.writer.
func (s *session) mutate(reads int, done func() bool) *opLog {
	log := &opLog{}
	for {
		var more bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			more = s.d.updateCycle(s.writerConn, s.writerGen, s.writer)
		}()
		for i := 0; i < reads; i++ {
			s.d.query(s.conns[0], s.gens[0].next(), log)
		}
		wg.Wait()
		if !more || done() {
			return log
		}
	}
}

// record drives the workload as the end-to-end run does, for at least d:
// serve-* until every connection has finished the cycle it is in at the
// deadline, mutate until the update cycle in flight at the deadline ends.
func (s *session) record(wl *workload, reads int, d time.Duration) []*opLog {
	done := after(time.Now().Add(d))
	if wl.mutate {
		return []*opLog{s.mutate(reads, done)}
	}
	return s.read(done)
}

func (s *session) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.writerConn != nil {
		s.writerConn.close()
	}
}

func after(t time.Time) func() bool { return func() bool { return !time.Now().Before(t) } }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
