package dynamic

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/congestedclique/ccsp/internal/graph"
)

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, int64(1+v%5))
	}
	return g
}

func edges(g *graph.Graph) map[string]bool {
	out := map[string]bool{}
	for u, adj := range g.Adj {
		for _, e := range adj {
			a, b := u, int(e.To)
			if a > b {
				a, b = b, a
			}
			out[fmt.Sprintf("%d-%d:%d", a, b, e.W)] = true
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	cases := []struct {
		ups []Update
		ok  bool
	}{
		{nil, false},
		{[]Update{{U: 0, V: 0, W: 1}}, false},
		{[]Update{{U: -1, V: 2, W: 1}}, false},
		{[]Update{{U: 0, V: 8, W: 1}}, false},
		{[]Update{{U: 0, V: 7, W: 0}}, true},
		{[]Update{{U: 0, V: 7, W: -1}}, true}, // delete
		{[]Update{{U: 0, V: 7, W: graph.MaxWeightFor(8)}}, true},
		{[]Update{{U: 0, V: 7, W: graph.MaxWeightFor(8) + 1}}, false}, // would overflow the semiring rank
	}
	for i, c := range cases {
		err := Validate(8, c.ups)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestApplyInsertReweightDelete(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 1, 7) // parallel
	g.MustAddEdge(1, 2, 3)

	out, err := Apply(g, []Update{
		{U: 0, V: 1, W: 2},  // reweight: collapses both parallels to one edge
		{U: 2, V: 3, W: 9},  // insert
		{U: 1, V: 2, W: -1}, // delete
		{U: 0, V: 3, W: -1}, // delete absent: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"0-1:2": true, "2-3:9": true}
	if got := edges(out); !reflect.DeepEqual(got, want) {
		t.Errorf("edges = %v, want %v", got, want)
	}
	// The input graph is untouched.
	if g.M() != 3 || len(g.Adj[0]) != 2 {
		t.Errorf("Apply mutated its input: M=%d deg(0)=%d", g.M(), len(g.Adj[0]))
	}
	// Idempotence: the same batch applied to the result is a fixpoint.
	again, err := Apply(out, []Update{{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 9}, {U: 1, V: 2, W: -1}, {U: 0, V: 3, W: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edges(again), want) {
		t.Errorf("reapply changed edges: %v", edges(again))
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	g := ring(4)
	if _, err := Apply(g, []Update{{U: 1, V: 1, W: 2}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := Apply(g, []Update{{U: 0, V: 99, W: 2}}); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestCoordinatorPublishAndWait(t *testing.T) {
	var built [][]Update
	c := New(0, func(ctx context.Context, epoch uint64, ups []Update) error {
		built = append(built, ups)
		return nil
	})
	defer c.Close()
	ep, err := c.Stage([]Update{{U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Fatalf("first epoch = %d, want 1", ep)
	}
	if err := c.Wait(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	if got := c.Published(); got != 1 {
		t.Errorf("Published = %d, want 1", got)
	}
	if len(built) != 1 || len(built[0]) != 1 {
		t.Errorf("built = %v", built)
	}
}

func TestCoordinatorCoalesces(t *testing.T) {
	// A build that blocks until released; updates staged meanwhile must
	// coalesce into ONE next generation.
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var gens [][]Update
	c := New(0, func(ctx context.Context, epoch uint64, ups []Update) error {
		mu.Lock()
		gens = append(gens, ups)
		first := len(gens) == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
		return nil
	})
	defer c.Close()

	ep1, _ := c.Stage([]Update{{U: 0, V: 1, W: 1}})
	<-started // the builder took generation 1 and is blocked inside it
	// An update in a running build is not visible yet, so it still counts.
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending during the first build = %d, want 1", got)
	}
	ep2, _ := c.Stage([]Update{{U: 1, V: 2, W: 2}})
	ep3, _ := c.Stage([]Update{{U: 2, V: 3, W: 3}})
	if ep1 != 1 || ep2 != 2 || ep3 != 2 {
		t.Fatalf("epochs = %d,%d,%d, want 1,2,2 (coalesced)", ep1, ep2, ep3)
	}
	if got := c.Pending(); got != 3 {
		t.Fatalf("Pending with one build running and two staged = %d, want 3", got)
	}
	close(release)
	if err := c.Wait(context.Background(), ep3); err != nil {
		t.Fatal(err)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending after the last publish = %d, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gens) != 2 || len(gens[1]) != 2 {
		t.Errorf("generations = %v, want 2 gens with the coalesced pair second", gens)
	}
}

func TestCoordinatorFailedGenerationDropped(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	c := New(5, func(ctx context.Context, epoch uint64, ups []Update) error {
		if calls.Add(1) == 1 {
			return boom
		}
		return nil
	})
	defer c.Close()
	ep1, _ := c.Stage([]Update{{U: 0, V: 1, W: 1}})
	if err := c.Wait(context.Background(), ep1); !errors.Is(err, boom) {
		t.Fatalf("Wait(failed gen) = %v, want boom", err)
	}
	if got := c.Published(); got != 5 {
		t.Errorf("Published after failure = %d, want 5 (unchanged)", got)
	}
	// The next generation gets a fresh epoch (failed numbers never reused)
	// and publishes past the dropped one.
	ep2, _ := c.Stage([]Update{{U: 1, V: 2, W: 1}})
	if ep2 != 7 {
		t.Errorf("epoch after failed gen = %d, want 7 (6 burned)", ep2)
	}
	if err := c.Wait(context.Background(), ep2); err != nil {
		t.Fatal(err)
	}
	// Waiting on the failed epoch still reports its failure.
	if err := c.Wait(context.Background(), ep1); !errors.Is(err, boom) {
		t.Errorf("late Wait(failed gen) = %v, want boom", err)
	}
}

func TestCoordinatorWaitContext(t *testing.T) {
	block := make(chan struct{})
	c := New(0, func(ctx context.Context, epoch uint64, ups []Update) error {
		<-block
		return nil
	})
	defer func() { close(block); c.Close() }()
	ep, _ := c.Stage([]Update{{U: 0, V: 1, W: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Wait(ctx, ep); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait = %v, want deadline exceeded", err)
	}
}

func TestCoordinatorClose(t *testing.T) {
	started := make(chan struct{})
	c := New(0, func(ctx context.Context, epoch uint64, ups []Update) error {
		close(started)
		<-ctx.Done() // the real rebuild unwinds on cancellation
		return ctx.Err()
	})
	ep, _ := c.Stage([]Update{{U: 0, V: 1, W: 1}})
	<-started
	c.Close()
	err := c.Wait(context.Background(), ep)
	if err == nil {
		t.Fatal("Wait after Close = nil, want error")
	}
	if _, err := c.Stage([]Update{{U: 0, V: 1, W: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Stage after Close = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

// TestCoordinatorConcurrentStagers is the package's -race workout:
// many goroutines staging while builds run, every Wait resolving, and
// the published epoch ending monotone and >= every returned epoch.
func TestCoordinatorConcurrentStagers(t *testing.T) {
	var builds atomic.Int64
	c := New(0, func(ctx context.Context, epoch uint64, ups []Update) error {
		builds.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	defer c.Close()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	var maxEpoch atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ep, err := c.Stage([]Update{{U: w, V: (w + 1) % workers, W: int64(i)}})
				if err != nil {
					errs <- err
					return
				}
				if err := c.Wait(context.Background(), ep); err != nil {
					errs <- err
					return
				}
				for {
					cur := maxEpoch.Load()
					if ep <= cur || maxEpoch.CompareAndSwap(cur, ep) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Published(); got < maxEpoch.Load() {
		t.Errorf("Published = %d < max waited epoch %d", got, maxEpoch.Load())
	}
	// Coalescing must have collapsed the 200 stages into fewer builds
	// (coalescing is the point; equality would mean none happened) while
	// every Wait above still resolved.
	if b := builds.Load(); b > workers*perWorker {
		t.Errorf("builds = %d > stages", b)
	}
	t.Logf("stages=%d builds=%d published=%d", workers*perWorker, builds.Load(), c.Published())
}

// Published returns the epoch of the newest successfully built
// generation.
func (c *Coordinator) Published() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published
}
