package cc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// spinProgram is an effectively unbounded workload: every node keeps
// exchanging one message around a ring. Only cancellation (or the round
// guard) can end it, which makes it the reference workload for the
// cancellation tests.
func spinProgram(rounds int) Program {
	return func(nd *Node) error {
		for i := 0; i < rounds; i++ {
			nd.Sync([]Packet{{Dst: int32((nd.ID + 1) % nd.N)}})
		}
		return nil
	}
}

const spinForever = 1 << 40 // rounds; never reached before the test would time out

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test if the run's goroutines never exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled run: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shuffleProgram is spinProgram's route/sort-heavy counterpart: every
// round each node routes one packet to every node and sorts n records, so
// a cancel can land between the stages of the scatter and sort bodies as
// well as at the barrier.
func shuffleProgram(rounds int) Program {
	return func(nd *Node) error {
		pkts := make([]Packet, nd.N)
		recs := make([]Rec, nd.N)
		for i := range pkts {
			pkts[i] = Packet{Dst: int32(i)}
			recs[i] = Rec{Key: int64((nd.ID*31 + i*17) % nd.N)}
		}
		for i := 0; i < rounds; i++ {
			nd.Route(pkts)
			nd.Sort(recs)
		}
		return nil
	}
}

// TestRunCanceledMidRun: canceling mid-run unwinds every node, returns the
// partial stats accumulated so far, and matches both cc and context
// sentinels via errors.Is - at one shard and at four, on a sync ring and
// on a route/sort shuffle.
func TestRunCanceledMidRun(t *testing.T) {
	programs := []struct {
		name string
		n    int
		prog Program
	}{
		{"sync", 4, spinProgram(spinForever)},
		{"route+sort", 64, shuffleProgram(spinForever)},
	}
	for _, pc := range programs {
		for _, workers := range []int{1, 4} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			stats, err := Run(ctx, Config{N: pc.n, MaxRounds: 1 << 30, Workers: workers}, pc.prog)
			if err == nil {
				t.Fatalf("%s workers=%d: canceled run returned nil error", pc.name, workers)
			}
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%s workers=%d: errors.Is(err, ErrCanceled) = false for %v", pc.name, workers, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: errors.Is(err, context.Canceled) = false for %v", pc.name, workers, err)
			}
			if stats.TotalRounds() == 0 {
				t.Errorf("%s workers=%d: partial stats lost: %+v", pc.name, workers, stats)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestRunDeadlineExceeded: an expiring deadline aborts the run and the
// error matches ErrCanceled and context.DeadlineExceeded.
func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{N: 4, MaxRounds: 1 << 30}, spinProgram(spinForever))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

// TestRunPreCanceled: a context that is already dead aborts before any
// round executes; the returned stats are an empty (but well-formed) zero
// prefix.
func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, Config{N: 4}, spinProgram(spinForever))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping Canceled, got %v", err)
	}
	if stats.SimRounds != 0 || stats.TotalRounds() != 0 {
		t.Errorf("pre-canceled run executed rounds: %+v", stats)
	}
	if stats.N != 4 || stats.Charged == nil {
		t.Errorf("pre-canceled stats malformed: %+v", stats)
	}
}

// TestRunRoundLimitSentinel: exceeding MaxRounds is a typed failure.
func TestRunRoundLimitSentinel(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 2, MaxRounds: 5}, spinProgram(spinForever))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("round-limit error must not match ErrCanceled: %v", err)
	}
}

// TestRunNonFiringDeadlineIsInvisible is the determinism guard at the
// simulator level: a run that completes before its deadline returns
// byte-identical results and identical deterministic Stats whether or not
// a context deadline was attached, at one shard and at four.
func TestRunNonFiringDeadlineIsInvisible(t *testing.T) {
	const n = 8
	workload := func(out []int64) Program {
		return func(nd *Node) error {
			acc := int64(nd.ID)
			for i := 0; i < 50; i++ {
				vals := nd.BroadcastVal(acc)
				msgs := nd.Sync([]Packet{{Dst: int32((nd.ID + i) % n), M: Msg{A: vals[i%n]}}})
				for _, m := range msgs {
					acc += m.A
				}
			}
			out[nd.ID] = acc
			return nil
		}
	}
	type outcome struct {
		out   []int64
		stats Stats
	}
	var ref *outcome
	for _, workers := range []int{1, 4} {
		for _, withDeadline := range []bool{false, true} {
			ctx := context.Background()
			if withDeadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Hour)
				defer cancel()
			}
			out := make([]int64, n)
			stats, err := Run(ctx, Config{N: n, Workers: workers}, workload(out))
			if err != nil {
				t.Fatalf("workers=%d deadline=%v: %v", workers, withDeadline, err)
			}
			stats.CollectiveTime = nil
			if ref == nil {
				ref = &outcome{out: out, stats: stats}
				continue
			}
			if !reflect.DeepEqual(out, ref.out) {
				t.Errorf("workers=%d deadline=%v: results differ: %v vs %v", workers, withDeadline, out, ref.out)
			}
			if !reflect.DeepEqual(stats, ref.stats) {
				t.Errorf("workers=%d deadline=%v: stats differ:\n%+v\nvs\n%+v", workers, withDeadline, stats, ref.stats)
			}
		}
	}
}
