package server

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/client"
)

// TestServedQueryAllocs pins what a warm served distance and a warm served
// q = 8 mssp allocate, in objects, at their measured values, counting both
// ends of the loopback as the benchmark harness does: client.Client.Query
// builds and sends the request, the daemon decodes, plans, answers lent and
// writes the body, and the client reads and decodes it. What is left is
// net/http's and context's own objects around one round trip and what the
// answer holds (DESIGN.md §13, "A served request allocates only what it
// holds": 102 and 109 before). testing.AllocsPerRun counts on one P, with
// the collector off. It skips under -race.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops Puts under it")
	}
	ctx := context.Background()
	const n = 1024
	eng, err := ccsp.NewEngine(ctx, randomGraph(n), ccsp.Options{Epsilon: 0.5, Execution: ccsp.ExecDirect})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, eng, Config{CacheSize: -1})
	// A collection empties the pools the answer's buffers come from, and
	// a count that straddles one takes their refill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := client.New(ts.URL)
	sources := make([]int, 8)
	for i := range sources {
		sources[i] = i * n / len(sources)
	}
	for _, tc := range []struct {
		req  api.Request
		most float64
	}{
		{api.Distance(1, n/2+3), 85},
		{api.MSSP(sources...), 92},
	} {
		for warm := 0; warm < 4; warm++ {
			if _, err := c.Query(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.Query(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v objects", tc.req.Kind, got)
		if got > tc.most {
			t.Errorf("%s: a warm served query allocates %v objects at both ends, want <= %v", tc.req.Kind, got, tc.most)
		}
	}
}
