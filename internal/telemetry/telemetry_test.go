package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same (name, labels) returns the same metric.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are a different child of the same family.
	c2 := r.Counter("reqs_total", "requests", L("endpoint", "query"))
	c2.Add(3)
	if c.Value() != 5 || c2.Value() != 3 {
		t.Fatalf("labeled children not independent: %d, %d", c.Value(), c2.Value())
	}

	g := r.Gauge("inflight", "in-flight")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
	g.Set(-2)
	if got := g.Value(); got != -2 {
		t.Fatalf("gauge = %d, want -2", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as counter then gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-2.565) > 1e-9 {
		t.Fatalf("sum = %v, want 2.565", got)
	}
	// Per-bucket (non-cumulative) expectations: le=0.01 gets 0.005 and
	// 0.01 (bounds are inclusive), le=0.1 gets 0.05, le=1 gets 0.5,
	// +Inf gets 2.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	// Quantile estimates resolve to bucket upper bounds.
	if q := h.Quantile(0.5); q != 0.1 {
		t.Fatalf("p50 = %v, want 0.1", q)
	}
	if q := h.Quantile(0.99); q != 1 { // +Inf degrades to the largest finite bound
		t.Fatalf("p99 = %v, want 1", q)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("ccspd_requests_total", "Total HTTP requests.").Add(7)
	r.Counter("ccspd_http_requests_total", "By endpoint.", L("endpoint", "query"), L("class", "2xx")).Add(3)
	r.Gauge("ccspd_inflight", "In-flight queries.").Set(2)
	r.GaugeFunc("ccspd_cache_entries", "Cache entries.", func() float64 { return 42 })
	h := r.Histogram("ccspd_request_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP ccspd_requests_total Total HTTP requests.",
		"# TYPE ccspd_requests_total counter",
		"ccspd_requests_total 7",
		`ccspd_http_requests_total{endpoint="query",class="2xx"} 3`,
		"# TYPE ccspd_inflight gauge",
		"ccspd_inflight 2",
		"ccspd_cache_entries 42",
		"# TYPE ccspd_request_seconds histogram",
		`ccspd_request_seconds_bucket{le="0.1"} 1`,
		`ccspd_request_seconds_bucket{le="1"} 2`,
		`ccspd_request_seconds_bucket{le="+Inf"} 3`,
		"ccspd_request_seconds_sum 5.55",
		"ccspd_request_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing line %q\n---\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "", L("member", `http://a:1/"x"\y`)).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `m_total{member="http://a:1/\"x\"\\y"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaped label missing: want %q in\n%s", want, b.String())
	}
}

// TestHotPathsConcurrent hammers one counter, gauge and histogram from
// many goroutines while a renderer scrapes concurrently; run under
// -race this pins the lock-free hot paths, and the final totals pin
// that no increment is lost.
func TestHotPathsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%100) / 1000)
				g.Dec()
				// Concurrent get-or-create of labeled children too.
				r.Counter("c_total", "", L("w", string(rune('a'+w)))).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WritePrometheus(&b)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter lost increments: %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram lost observations: %d, want %d", got, workers*iters)
	}
	wantSum := 0.0
	for i := 0; i < iters; i++ {
		wantSum += float64(i%100) / 1000
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("histogram sum drifted: %v, want %v", got, wantSum)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", []float64{0.001, 1})
	h.ObserveDuration(500 * time.Millisecond)
	if h.counts[1].Load() != 1 {
		t.Fatalf("500ms not in the le=1 bucket")
	}
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) from the
// bucket counts: the upper bound of the bucket the quantile falls in
// (+Inf degrades to the largest finite bound). It is a coarse,
// bucket-resolution estimate - load reports wanting exact percentiles
// keep raw samples instead - but good enough for smoke assertions.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return math.Inf(1)
	}
	return h.bounds[len(h.bounds)-1]
}
