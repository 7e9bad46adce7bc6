package ccsp

import (
	"fmt"
	"maps"
	"time"

	"github.com/congestedclique/ccsp/internal/cc"
	"github.com/congestedclique/ccsp/internal/hopset"
	"github.com/congestedclique/ccsp/internal/semiring"
)

// Unreachable is the distance reported for disconnected pairs.
const Unreachable = semiring.Inf

// Preset selects the hopset parameterization (see DESIGN.md §6).
type Preset int

const (
	// PresetPractical (the default) uses a reduced hop budget whose
	// stretch guarantee is validated empirically (EXPERIMENTS.md E6); it
	// keeps the simulation fast at larger n.
	PresetPractical Preset = iota
	// PresetPaper uses the proof-faithful constants of Theorem 25
	// (δ = ε/4 per level, β = 3/δ).
	PresetPaper
)

// Execution selects how preprocessing and queries are computed
// (DESIGN.md §12).
type Execution uint8

const (
	// ExecSimulated (the default) runs every algorithm inside the
	// round-synchronous Congested Clique simulator, paying per-node
	// message construction, routing and sorting, and reporting the full
	// round/message accounting in Stats.
	ExecSimulated Execution = iota
	// ExecDirect computes the same algebra directly on flat host-side
	// matrices with the matmul kernels on the row pass, skipping the
	// simulator entirely. Results are byte-identical to ExecSimulated
	// (the differential oracle guarantee); Stats report zero rounds and
	// messages but real wall-clock time.
	ExecDirect
)

// String returns "simulated" or "direct".
func (x Execution) String() string {
	if x == ExecDirect {
		return "direct"
	}
	return "simulated"
}

// ParseExecution parses an execution-mode name as accepted by the CLI
// -exec flags: "simulated" (or "sim", or empty) and "direct".
func ParseExecution(s string) (Execution, error) {
	switch s {
	case "", "simulated", "sim":
		return ExecSimulated, nil
	case "direct":
		return ExecDirect, nil
	}
	return ExecSimulated, fmt.Errorf("%w: unknown execution mode %q (want \"simulated\" or \"direct\")", ErrInvalidOption, s)
}

// Options configures a run. The zero value is valid: ε = 0.5, the
// practical preset, simulated execution.
type Options struct {
	// Epsilon is the approximation parameter ε ∈ (0, 1]; 0 means 0.5.
	Epsilon float64
	// Preset selects hopset constants.
	Preset Preset
	// MaxRounds overrides the simulator's round guard; 0 keeps the
	// default. The guard applies to each simulator run individually: a
	// call that preprocesses and queries (or an Engine serving several
	// queries) runs the budget per run, not over the combined total.
	MaxRounds int
	// Workers is the number of shards the simulator splits each
	// collective into (DESIGN.md §5). 0 uses runtime.GOMAXPROCS(0); 1
	// runs every collective as one shard on the coordinator goroutine.
	// Results and all deterministic statistics are identical for every
	// value - only wall-clock time (and the observational
	// Stats.CollectiveTime) changes. In both modes it bounds a row pass,
	// a collective's shards or a direct kernel's rows: the pass starts at
	// most this many goroutines, and fewer while other passes hold the
	// cores (DESIGN.md §13, "A pass fans out only into idle cores").
	Workers int
	// Execution selects the execution mode: ExecSimulated (default) runs
	// the round-synchronous simulator, ExecDirect computes the identical
	// results on flat matrices with the host kernels (DESIGN.md
	// §12). Answers are byte-identical in both modes; only Stats (and
	// wall-clock) differ.
	Execution Execution
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.5
	}
	return o
}

func (o Options) validate() error {
	if !(o.Epsilon > 0 && o.Epsilon <= 1) { // NaN too: it compares false both ways
		return fmt.Errorf("%w: epsilon %v outside (0, 1]", ErrInvalidOption, o.Epsilon)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrInvalidOption, o.Workers)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("%w: negative MaxRounds %d", ErrInvalidOption, o.MaxRounds)
	}
	if o.Execution > ExecDirect {
		return fmt.Errorf("%w: unknown Execution %d", ErrInvalidOption, o.Execution)
	}
	return nil
}

func (o Options) hopsetParams() hopset.Params {
	if o.Preset == PresetPaper {
		return hopset.Paper(o.Epsilon)
	}
	return hopset.Practical(o.Epsilon)
}

func (o Options) config(n int) cc.Config {
	return cc.Config{N: n, MaxRounds: o.MaxRounds, Workers: o.Workers}
}

// prepare validates the graph and normalizes the options - the
// precondition chain shared by every public entry point.
func prepare(gr *Graph, opts Options) (Options, error) {
	if err := gr.validate(); err != nil {
		return opts, err
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return opts, err
	}
	return opts, nil
}

// Stats reports the communication cost of a run in the Congested Clique
// model: TotalRounds = SimRounds (barrier steps actually executed) plus the
// rounds charged by the primitives the paper cites as black boxes (Lenzen
// routing/sorting, the Lemma 4 hitting set), broken down in ChargedRounds.
// A breakdown with nothing in it (a direct run's ChargedRounds and
// PhaseRounds) is nil, never an empty map.
type Stats struct {
	Nodes int
	// Exec records which execution mode produced these stats. Direct-mode
	// runs have no rounds or messages - the round/message fields are all
	// zero by construction, not unmeasured - and report their cost as
	// wall-clock time under CollectiveTime["direct"].
	Exec          Execution
	TotalRounds   int
	SimRounds     int
	ChargedRounds map[string]int
	Messages      int64
	Words         int64
	// PhaseRounds attributes rounds to algorithm phases (e.g.
	// "hopset/levels", "mssp/source-detect") for cost breakdowns.
	PhaseRounds map[string]int
	// CollectiveTime is the wall-clock time the simulator spent executing
	// each collective kind ("sync", "broadcast", "route", "sort", ...).
	// It is observational - it varies run to run and with Options.Workers
	// - and is excluded from the determinism guarantee; all other fields
	// are identical across worker counts.
	CollectiveTime map[string]time.Duration

	// kernelTime is a direct run's wall-clock while its Stats are inside
	// the engine. leave files it under CollectiveTime["direct"] where the
	// Stats leave it (an Engine method's result, PreprocessStats), so an
	// answer that drops it - Engine.Query's, a served one - makes no map.
	kernelTime time.Duration
}

// leave is s as it leaves the engine: a direct run's kernel time filed
// under CollectiveTime["direct"].
func (s Stats) leave() Stats {
	if s.Exec == ExecDirect && s.CollectiveTime == nil {
		s.CollectiveTime = map[string]time.Duration{"direct": s.kernelTime}
	}
	s.kernelTime = 0
	return s
}

func statsFrom(s cc.Stats) Stats {
	if len(s.Charged) == 0 {
		s.Charged = nil // cc.Run makes it before the first charge
	}
	return Stats{
		Nodes:          s.N,
		TotalRounds:    s.TotalRounds(),
		SimRounds:      s.SimRounds,
		ChargedRounds:  maps.Clone(s.Charged),
		Messages:       s.Messages,
		Words:          s.Words(),
		PhaseRounds:    maps.Clone(s.Phases),
		CollectiveTime: maps.Clone(s.CollectiveTime),
	}
}

// String renders a one-line summary. Words is included alongside the
// message count: machine words are the currency the paper's bandwidth
// bounds are stated in. Direct-mode stats have no round or message
// accounting, so they render the mode tag and the wall-clock cost
// instead.
func (s Stats) String() string {
	if s.Exec == ExecDirect {
		return fmt.Sprintf("n=%d exec=direct rounds=0 msgs=0 wall=%s", s.Nodes, s.Wall())
	}
	return fmt.Sprintf("n=%d rounds=%d (sim=%d charged=%d) msgs=%d words=%d",
		s.Nodes, s.TotalRounds, s.SimRounds, s.TotalRounds-s.SimRounds, s.Messages, s.Words)
}

// Wall returns the total wall-clock time recorded in CollectiveTime -
// for a direct-mode run, the real cost of the computation.
func (s Stats) Wall() time.Duration {
	var total time.Duration
	for _, d := range s.CollectiveTime {
		total += d
	}
	return total
}

// Merge returns the element-wise sum of s and o: rounds, messages and the
// per-tag breakdowns add; Nodes is carried over (the runs must be on the
// same clique). Use it to combine an Engine's PreprocessStats with
// per-query Stats into the end-to-end totals a one-shot call would
// report.
func (s Stats) Merge(o Stats) Stats {
	out := Stats{
		Nodes: s.Nodes,
		Exec:  max(s.Exec, o.Exec), // direct taints the total: its rounds are not comparable

		TotalRounds:    s.TotalRounds + o.TotalRounds,
		SimRounds:      s.SimRounds + o.SimRounds,
		Messages:       s.Messages + o.Messages,
		Words:          s.Words + o.Words,
		ChargedRounds:  addMaps(s.ChargedRounds, o.ChargedRounds),
		PhaseRounds:    addMaps(s.PhaseRounds, o.PhaseRounds),
		CollectiveTime: addMaps(s.CollectiveTime, o.CollectiveTime),
	}
	if out.Nodes == 0 {
		out.Nodes = o.Nodes
	}
	return out
}

// addMaps sums two breakdown maps into a fresh map, leaving both inputs
// untouched.
func addMaps[V int | time.Duration](a, b map[string]V) map[string]V {
	out := make(map[string]V, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}
