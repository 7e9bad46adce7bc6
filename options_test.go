package ccsp

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestOptionsValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"negative epsilon", Options{Epsilon: -0.1}, true},
		{"epsilon above one", Options{Epsilon: 1.0001}, true},
		{"NaN epsilon", Options{Epsilon: math.NaN()}, true},
		{"epsilon exactly one", Options{Epsilon: 1}, false},
		{"negative workers", Options{Epsilon: 0.5, Workers: -1}, true},
		{"zero value after defaults", Options{}.withDefaults(), false},
	}
	for _, tc := range cases {
		if err := tc.opts.validate(); (err != nil) != tc.wantErr {
			t.Errorf("%s: validate() err=%v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
	if got := (Options{}).withDefaults().Epsilon; got != 0.5 {
		t.Errorf("default epsilon %v, want 0.5", got)
	}
	// prepare chains graph validation, defaulting and option validation.
	if _, err := prepare(nil, Options{}); err == nil {
		t.Error("prepare(nil graph): want error")
	}
	if _, err := prepare(NewGraph(0), Options{}); err == nil {
		t.Error("prepare(empty graph): want error")
	}
	if _, err := prepare(NewGraph(3), Options{Epsilon: -1}); err == nil {
		t.Error("prepare(bad epsilon): want error")
	}
	opts, err := prepare(NewGraph(3), Options{})
	if err != nil || opts.Epsilon != 0.5 {
		t.Errorf("prepare defaults: opts=%+v err=%v", opts, err)
	}
}

// TestNewEngineRefusesNaNEpsilon: NaN compares false against both ends of
// (0, 1], so a range check written as two rejections lets it through; an
// artifact key holding it never equals itself, so every lookup would build
// again. Both modes refuse it before any build.
func TestNewEngineRefusesNaNEpsilon(t *testing.T) {
	for _, exec := range []Execution{ExecSimulated, ExecDirect} {
		eng, err := NewEngine(context.Background(), testGraph(8, 10, 4, 1), Options{Epsilon: math.NaN(), Execution: exec})
		if !errors.Is(err, ErrInvalidOption) || eng != nil {
			t.Errorf("%v: NewEngine with ε = NaN: got (%v, %v), want ErrInvalidOption", exec, eng, err)
		}
	}
}

func TestParseExecution(t *testing.T) {
	valid := map[string]Execution{
		"": ExecSimulated, "simulated": ExecSimulated, "sim": ExecSimulated,
		"direct": ExecDirect,
	}
	for in, want := range valid {
		got, err := ParseExecution(in)
		if err != nil || got != want {
			t.Errorf("ParseExecution(%q) = %v, %v; want %v, nil", in, got, err, want)
		}
	}
	for _, in := range []string{"Direct", "DIRECT", "fast", "simulate", "0"} {
		if _, err := ParseExecution(in); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("ParseExecution(%q) err = %v, want ErrInvalidOption", in, err)
		}
	}
	if got, want := ExecSimulated.String(), "simulated"; got != want {
		t.Errorf("ExecSimulated.String() = %q, want %q", got, want)
	}
	if got, want := ExecDirect.String(), "direct"; got != want {
		t.Errorf("ExecDirect.String() = %q, want %q", got, want)
	}
	// Out-of-range modes are rejected at validate time, matching the
	// snapshot loader's check.
	if err := (Options{Epsilon: 0.5, Execution: ExecDirect + 1}).validate(); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("validate(Execution=%d) err = %v, want ErrInvalidOption", ExecDirect+1, err)
	}
}

func TestStatsStringFormat(t *testing.T) {
	// The word count must appear: it is the unit the paper's bandwidth
	// bounds are stated in (a summary that drops it hides the cost).
	s := Stats{Nodes: 5, TotalRounds: 10, SimRounds: 4, Messages: 100, Words: 400}
	if got, want := s.String(), "n=5 rounds=10 (sim=4 charged=6) msgs=100 words=400"; got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
	if got := (Stats{}).String(); got != "n=0 rounds=0 (sim=0 charged=0) msgs=0 words=0" {
		t.Errorf("zero Stats.String() = %q", got)
	}
	// Direct-mode stats have no round accounting; the summary says so
	// explicitly instead of printing misleading zeros as if measured.
	d := Stats{Nodes: 7, Exec: ExecDirect,
		CollectiveTime: map[string]time.Duration{"direct": 3 * time.Millisecond}}
	if got, want := d.String(), "n=7 exec=direct rounds=0 msgs=0 wall=3ms"; got != want {
		t.Errorf("direct Stats.String() = %q, want %q", got, want)
	}
	if got, want := d.Wall(), 3*time.Millisecond; got != want {
		t.Errorf("Wall() = %v, want %v", got, want)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{
		Nodes: 8, TotalRounds: 10, SimRounds: 6, Messages: 100, Words: 400,
		ChargedRounds:  map[string]int{"route": 3, "sort": 1},
		PhaseRounds:    map[string]int{"hopset/levels": 9, "": 1},
		CollectiveTime: map[string]time.Duration{"sync": time.Millisecond},
	}
	b := Stats{
		Nodes: 8, TotalRounds: 5, SimRounds: 2, Messages: 40, Words: 160,
		ChargedRounds: map[string]int{"route": 2, "hitting-set": 1},
		PhaseRounds:   map[string]int{"mssp/source-detect": 5},
	}
	got := a.Merge(b)
	want := Stats{
		Nodes: 8, TotalRounds: 15, SimRounds: 8, Messages: 140, Words: 560,
		ChargedRounds:  map[string]int{"route": 5, "sort": 1, "hitting-set": 1},
		PhaseRounds:    map[string]int{"hopset/levels": 9, "": 1, "mssp/source-detect": 5},
		CollectiveTime: map[string]time.Duration{"sync": time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %+v, want %+v", got, want)
	}
	// Inputs are untouched.
	if a.ChargedRounds["route"] != 3 || b.ChargedRounds["route"] != 2 {
		t.Error("Merge mutated its inputs")
	}
	// Nodes is taken from the non-empty side.
	if m := (Stats{}).Merge(b); m.Nodes != 8 {
		t.Errorf("zero.Merge(b).Nodes = %d, want 8", m.Nodes)
	}
	// Exec propagates as a max: merging any direct-mode stats in taints
	// the total, because its zero rounds are not comparable to simulated
	// round counts.
	d := Stats{Nodes: 8, Exec: ExecDirect}
	if m := a.Merge(d); m.Exec != ExecDirect {
		t.Errorf("sim.Merge(direct).Exec = %v, want direct", m.Exec)
	}
	if m := d.Merge(a); m.Exec != ExecDirect {
		t.Errorf("direct.Merge(sim).Exec = %v, want direct", m.Exec)
	}
	if m := a.Merge(b); m.Exec != ExecSimulated {
		t.Errorf("sim.Merge(sim).Exec = %v, want simulated", m.Exec)
	}
}
