package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeProbe is a scriptable ProbeFunc: each member's next answer is set
// by the test between sweeps.
type fakeProbe struct {
	mu   sync.Mutex
	next map[string]func() (Status, error)
}

func (f *fakeProbe) set(member string, st Status, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next == nil {
		f.next = make(map[string]func() (Status, error))
	}
	f.next[member] = func() (Status, error) { return st, err }
}

func (f *fakeProbe) probe(_ context.Context, member string) (Status, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fn, ok := f.next[member]; ok {
		return fn()
	}
	return Status{}, errors.New("unscripted member")
}

func newTestProber(members []string, f *fakeProbe, threshold int) *Prober {
	return NewProber(members, Config{
		Probe:     f.probe,
		Threshold: threshold,
		Interval:  time.Hour, // tests drive Sweep explicitly
		Timeout:   time.Second,
	})
}

// TestProberStateMachine walks the liveness transitions: down until
// first success, Threshold consecutive failures to go down, one success
// to revive.
func TestProberStateMachine(t *testing.T) {
	const m = "http://a"
	f := &fakeProbe{}
	p := newTestProber([]string{m}, f, 3)
	ctx := context.Background()

	if p.Alive(m) {
		t.Fatal("member alive before any probe")
	}

	f.set(m, Status{Ready: true, Graphs: []string{"", "roads"}}, nil)
	p.Sweep(ctx)
	if !p.Alive(m) {
		t.Fatal("member down after a successful ready probe")
	}
	if !p.Holds(m, "roads") || !p.Holds(m, "") || p.Holds(m, "other") {
		t.Fatal("graph advertisement not recorded")
	}

	// Failures below the threshold keep the member up.
	f.set(m, Status{}, errors.New("connection refused"))
	p.Sweep(ctx)
	p.Sweep(ctx)
	if !p.Alive(m) {
		t.Fatal("member down after 2 failures with threshold 3")
	}
	p.Sweep(ctx)
	if p.Alive(m) {
		t.Fatal("member still up after 3 consecutive failures")
	}

	// A "ready: false" answer counts as failure toward the threshold.
	f.set(m, Status{Ready: true, Graphs: []string{"roads"}}, nil)
	p.Sweep(ctx)
	if !p.Alive(m) {
		t.Fatal("member not revived by one success")
	}
	f.set(m, Status{Ready: false}, nil)
	p.Sweep(ctx)
	p.Sweep(ctx)
	p.Sweep(ctx)
	if p.Alive(m) {
		t.Fatal("not-ready answers did not count toward the threshold")
	}
}

// TestProberFailureResetOnSuccess pins that a success zeroes the
// failure counter: 2 fails, success, 2 fails must stay alive at
// threshold 3.
func TestProberFailureResetOnSuccess(t *testing.T) {
	const m = "http://a"
	f := &fakeProbe{}
	p := newTestProber([]string{m}, f, 3)
	ctx := context.Background()

	f.set(m, Status{Ready: true}, nil)
	p.Sweep(ctx)
	f.set(m, Status{}, errors.New("refused"))
	p.Sweep(ctx)
	p.Sweep(ctx)
	f.set(m, Status{Ready: true}, nil)
	p.Sweep(ctx)
	f.set(m, Status{}, errors.New("refused"))
	p.Sweep(ctx)
	p.Sweep(ctx)
	if !p.Alive(m) {
		t.Fatal("interleaved success did not reset the failure counter")
	}
}

// TestMarkDown pins the passive path: a transport failure reported by
// the data path downs the member immediately, and the next successful
// probe revives it.
func TestMarkDown(t *testing.T) {
	const m = "http://a"
	f := &fakeProbe{}
	p := newTestProber([]string{m}, f, 3)
	ctx := context.Background()

	f.set(m, Status{Ready: true, Graphs: []string{"g"}}, nil)
	p.Sweep(ctx)
	p.MarkDown(m)
	if p.Alive(m) {
		t.Fatal("MarkDown did not take effect immediately")
	}
	p.Sweep(ctx)
	if !p.Alive(m) {
		t.Fatal("successful probe did not revive a marked-down member")
	}
	if p.Alive("http://unknown") {
		t.Fatal("unknown member reported alive")
	}
	p.MarkDown("http://unknown") // must not panic or register the member
	if got := p.Live(); !reflect.DeepEqual(got, []string{m}) {
		t.Fatalf("Live() = %v, want [%s]", got, m)
	}
}

// TestRoute pins the failover rule end to end: owner first, fall
// through dead members, skip members that do not hold the graph, empty
// when no live holder exists.
func TestRoute(t *testing.T) {
	r := NewRing(testMembers)
	f := &fakeProbe{}
	p := newTestProber(testMembers, f, 1)
	ctx := context.Background()

	const g = "graph-007"
	succ := r.Successors(g)

	// Everyone up and holding g: route order is exactly ring order.
	for _, m := range testMembers {
		f.set(m, Status{Ready: true, Graphs: []string{g}}, nil)
	}
	p.Sweep(ctx)
	if got := Route(r, p, g); !reflect.DeepEqual(got, succ) {
		t.Fatalf("all-up Route = %v, want ring order %v", got, succ)
	}

	// Dead owner: route starts at the next live successor.
	p.MarkDown(succ[0])
	if got := Route(r, p, g); !reflect.DeepEqual(got, succ[1:]) {
		t.Fatalf("dead-owner Route = %v, want %v", got, succ[1:])
	}

	// A live member that does not advertise g is skipped.
	f.set(succ[1], Status{Ready: true, Graphs: []string{"something-else"}}, nil)
	p.Sweep(ctx) // also revives succ[0]
	if got := Route(r, p, g); !reflect.DeepEqual(got, []string{succ[0], succ[2]}) {
		t.Fatalf("non-holder Route = %v, want %v", got, []string{succ[0], succ[2]})
	}

	// No live holder anywhere: empty (the typed-503 case).
	p.MarkDown(succ[0])
	p.MarkDown(succ[2])
	if got := Route(r, p, g); len(got) != 0 {
		t.Fatalf("no-holder Route = %v, want empty", got)
	}
}

// TestSweepConcurrent runs overlapping sweeps and reads under -race.
func TestSweepConcurrent(t *testing.T) {
	f := &fakeProbe{}
	for _, m := range testMembers {
		f.set(m, Status{Ready: true, Graphs: []string{"g"}}, nil)
	}
	p := newTestProber(testMembers, f, 2)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				p.Sweep(ctx)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				for _, m := range testMembers {
					p.Alive(m)
					p.Holds(m, "g")
				}
				p.Live()
			}
		}()
	}
	wg.Wait()
	for _, m := range testMembers {
		if !p.Alive(m) {
			t.Errorf("member %s down after all-success sweeps", m)
		}
	}
}
