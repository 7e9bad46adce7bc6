package cc

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats reports the communication cost of a run.
type Stats struct {
	// N is the number of nodes in the clique.
	N int
	// SimRounds counts barrier-synchronized rounds actually executed
	// (Sync and Broadcast steps).
	SimRounds int
	// Charged counts rounds charged by validated primitives (routing,
	// sorting, hitting set, ...), keyed by primitive tag. See package
	// documentation.
	Charged map[string]int
	// Messages counts point-to-point messages delivered (a broadcast
	// counts as n-1 messages).
	Messages int64
	// Phases attributes total rounds to the phase labels set via
	// Node.Phase; rounds before the first label are attributed to "".
	Phases map[string]int
	// CollectiveTime is the wall-clock time the engine spent executing
	// each collective kind ("sync", "broadcast", "route", "sort", ...),
	// including response distribution. It is purely observational - used
	// to measure the sharded bodies' speedup - and is excluded from the
	// determinism guarantee and from String.
	CollectiveTime map[string]time.Duration
}

// addTime attributes wall-clock time to a collective kind.
func (s *Stats) addTime(kind string, d time.Duration) {
	if s.CollectiveTime == nil {
		s.CollectiveTime = make(map[string]time.Duration)
	}
	s.CollectiveTime[kind] += d
}

// ExecTime is the total wall-clock time spent executing collectives.
func (s *Stats) ExecTime() time.Duration {
	var total time.Duration
	for _, d := range s.CollectiveTime {
		total += d
	}
	return total
}

// TotalRounds is the round complexity of the run: simulated plus charged.
func (s *Stats) TotalRounds() int {
	total := s.SimRounds
	for _, r := range s.Charged {
		total += r
	}
	return total
}

// ChargedRounds is the sum of all charged rounds across tags.
func (s *Stats) ChargedRounds() int {
	total := 0
	for _, r := range s.Charged {
		total += r
	}
	return total
}

// Words is the total number of payload words moved.
func (s *Stats) Words() int64 { return s.Messages * WordsPerMsg }

// Add accumulates o into s. It is used to aggregate multi-phase algorithms.
func (s *Stats) Add(o *Stats) {
	if o == nil {
		return
	}
	if s.N == 0 {
		s.N = o.N
	}
	s.SimRounds += o.SimRounds
	s.Messages += o.Messages
	if len(o.Charged) > 0 && s.Charged == nil {
		s.Charged = make(map[string]int, len(o.Charged))
	}
	for tag, r := range o.Charged {
		s.Charged[tag] += r
	}
	if len(o.Phases) > 0 && s.Phases == nil {
		s.Phases = make(map[string]int, len(o.Phases))
	}
	for tag, r := range o.Phases {
		s.Phases[tag] += r
	}
	if len(o.CollectiveTime) > 0 && s.CollectiveTime == nil {
		s.CollectiveTime = make(map[string]time.Duration, len(o.CollectiveTime))
	}
	for kind, d := range o.CollectiveTime {
		s.CollectiveTime[kind] += d
	}
}

// String renders a compact one-line summary, with charged rounds broken down
// by tag in deterministic order.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d (sim=%d", s.TotalRounds(), s.SimRounds)
	tags := make([]string, 0, len(s.Charged))
	for tag := range s.Charged {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		fmt.Fprintf(&b, " %s=%d", tag, s.Charged[tag])
	}
	fmt.Fprintf(&b, ") msgs=%d", s.Messages)
	return b.String()
}
