package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
	"github.com/congestedclique/ccsp/internal/server"
)

// epsilon is the engine's approximation parameter on every workload.
const epsilon = 0.5

// stack is the system under test: one engine behind the daemon's handler
// on a real loopback listener.
type stack struct {
	eng  *ccsp.Engine
	dyn  *ccsp.DynamicEngine // mutate only
	http *http.Server
	done chan error // Serve's return
	base string

	// Set-up phases, timed from outside.
	setup       time.Duration // graph hand-over, build, listener, first queries
	newEngine   time.Duration
	firstQuery  time.Duration // first distance: pays the lazy G∪H merge
	apspWarm    time.Duration // first apsp: pays the lazy eps/2 artifact
	warmAnswers []answer      // one per warmed kind, for the pre-clock oracle check
}

type answer struct {
	req  api.Request
	resp *api.Response
}

// serveHandler starts an http.Server for h on 127.0.0.1:0.
func serveHandler(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), done, nil
}

// stopServer shuts the listener down and waits for Serve to return.
func stopServer(srv *http.Server, done chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	<-done
}

// setUp hands the graph to the engine, builds it, serves it, and issues
// one query of every kind in warm so that the lazy artifacts those kinds
// need (the G∪H merge, the eps/2 hopset, the routed matrix) exist before
// the clock starts. wrap, if set, is put around the daemon's handler (the
// traced pass).
func setUp(ctx context.Context, wl *workload, g *testGraph, w []int64, warm []api.Request, wrap func(http.Handler) http.Handler) (*stack, error) {
	st := &stack{}
	start := time.Now()
	gr := g.public(w)
	built := time.Now()
	eng, err := ccsp.NewEngine(ctx, gr, ccsp.Options{Epsilon: epsilon, Execution: ccsp.ExecDirect})
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	st.eng = eng
	st.newEngine = time.Since(built)

	cfg := server.Config{Engine: eng, CacheSize: wl.cacheSize}
	if wl.mutate {
		cfg = server.Config{Deferred: true, CacheSize: wl.cacheSize}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if wl.mutate {
		st.dyn = ccsp.NewDynamicEngine(eng)
		if err := srv.AddDynamicGraph("", st.dyn); err != nil {
			st.dyn.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		srv.SetReady()
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	st.http, st.base, st.done, err = serveHandler(h)
	if err != nil {
		st.close()
		return nil, err
	}

	c := newConn(st.base)
	defer c.close()
	for _, req := range warm {
		t0 := time.Now()
		resp, err := c.cl.Query(ctx, req)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm %s: %w", req.Kind, err)
		}
		switch req.Kind {
		case api.KindDistance:
			st.firstQuery = time.Since(t0)
		case api.KindAPSP:
			st.apspWarm = time.Since(t0)
		}
		st.warmAnswers = append(st.warmAnswers, answer{req, resp})
	}
	st.setup = time.Since(start)
	return st, nil
}

func (st *stack) close() {
	if st.http != nil {
		stopServer(st.http, st.done)
	}
	if st.dyn != nil {
		st.dyn.Close()
	}
}

// conn is one closed-loop client connection: a client.Client over its own
// transport, which counts the response body bytes the client reads and,
// in the traced pass, tags requests and keeps the last body.
type conn struct {
	cl *client.Client
	tr *http.Transport
	rt *meter
}

// meter is used by one goroutine at a time (the connection's driver), so
// its fields need no synchronization.
type meter struct {
	base  http.RoundTripper
	bytes int64  // body bytes of the last response
	tag   int64  // > 0: sent as the request id header
	keep  bool   // capture the next body
	body  []byte // the captured body
}

// requestIDHeader carries the client span id to the handler middleware.
const requestIDHeader = "X-Bench-Request"

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	if m.tag > 0 {
		r2 := *req
		r2.Header = req.Header.Clone()
		r2.Header.Set(requestIDHeader, strconv.FormatInt(m.tag, 10))
		req = &r2
	}
	m.bytes = 0
	m.body = m.body[:0]
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m}
	return resp, nil
}

type meteredBody struct {
	io.ReadCloser
	m *meter
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.bytes += int64(n)
	if b.m.keep {
		b.m.body = append(b.m.body, p[:n]...)
	}
	return n, err
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	rt := &meter{base: tr}
	return &conn{cl: client.New(base, client.WithHTTPClient(&http.Client{Transport: rt})), tr: tr, rt: rt}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }
