package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 = none).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the duration minus the part child spans cover; filled in
	// when the trace is written.
	SelfNs int64 `json:"self_ns"`
}

// recorder keeps spans in memory and writes them out when the pass ends.
// It records only while on is set, so the same handler chain serves the
// unrecorded cycles that trace.overhead_pct compares against.
type recorder struct {
	on     atomic.Bool
	ids    atomic.Int64
	origin time.Time

	mu      sync.Mutex
	spans   []span
	handler map[int64]time.Duration // request id -> handler span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), handler: make(map[int64]time.Duration)}
}

func (r *recorder) nextID() int64 { return r.ids.Add(1) }

// add records a span; id 0 allocates one. It returns the span's id.
func (r *recorder) add(name string, start, end time.Time, parent, request, id int64) int64 {
	if id == 0 {
		id = r.nextID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNs: int64(start.Sub(r.origin)), EndNs: int64(end.Sub(r.origin))})
	r.mu.Unlock()
	return id
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end, parent, 0, 0)
	return end.Sub(start)
}

// wrap is the span-recording middleware around the daemon's handler: the
// handler span's parent is the client span whose id the request carries.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tag, _ := strconv.ParseInt(req.Header.Get(requestIDHeader), 10, 64)
		if tag == 0 || !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		r.add("server.handler", start, end, tag, tag, 0)
		r.mu.Lock()
		r.handler[tag] = end.Sub(start)
		r.mu.Unlock()
	})
}

func (r *recorder) handlerSpan(tag int64) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.handler[tag]
	return d, ok
}

// write stores the spans, with self times, as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	at := make(map[int64]int, len(spans))
	for i := range spans {
		spans[i].SelfNs = spans[i].EndNs - spans[i].StartNs
		at[spans[i].ID] = i
	}
	for _, s := range spans {
		if p, ok := at[s.Parent]; ok && s.Parent != s.ID {
			spans[p].SelfNs -= s.EndNs - s.StartNs
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// scrape reads the daemon's own counters: cache hits and misses from
// /v1/stats, shed requests and the in-flight high-water mark from /metrics.
type scrape struct {
	hits, misses float64
	shed, peak   float64
}

func scrapeServer(ctx context.Context, base string) (scrape, error) {
	var sc scrape
	var stats struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	body, err := httpGet(ctx, base+"/v1/stats")
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return sc, fmt.Errorf("scrape /v1/stats: %w", err)
	}
	sc.hits, sc.misses = stats.Cache.Hits, stats.Cache.Misses
	if body, err = httpGet(ctx, base+"/metrics"); err != nil {
		return sc, err
	}
	sc.shed = promValue(string(body), "ccspd_shed_total")
	sc.peak = promValue(string(body), "ccspd_inflight_peak")
	return sc, nil
}

// scrapeClient keeps no connection open, so it never delays a shutdown.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body, nil
}

// promValue returns the value of an unlabeled sample in a Prometheus text
// page, or 0 if the page has none (admission control disabled).
func promValue(page, name string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
