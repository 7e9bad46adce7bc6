package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

var testMembers = []string{
	"http://127.0.0.1:9001",
	"http://127.0.0.1:9002",
	"http://127.0.0.1:9003",
}

// graphIDs returns n synthetic graph IDs for placement tests.
func graphIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("graph-%03d", i)
	}
	return ids
}

// TestRingDeterministic pins the deployment contract: the same member
// set yields identical placement regardless of input order, vnode
// construction run, or which Ring instance answers.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(testMembers)
	b := NewRing([]string{testMembers[2], testMembers[0], testMembers[1], testMembers[0]})
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("member normalization differs: %v vs %v", a.Members(), b.Members())
	}
	for _, g := range graphIDs(200) {
		ao, aok := a.Owner(g)
		bo, bok := b.Owner(g)
		if !aok || !bok || ao != bo {
			t.Fatalf("placement of %q differs across instances: %q vs %q", g, ao, bo)
		}
		if succ := a.Successors(g); succ[0] != ao {
			t.Fatalf("Successors(%q)[0] = %q, want owner %q", g, succ[0], ao)
		}
	}
}

// TestRingSpreads checks the virtual nodes actually spread load: with
// 200 graphs on 3 members, every member owns a nontrivial share.
func TestRingSpreads(t *testing.T) {
	r := NewRing(testMembers)
	counts := make(map[string]int)
	for _, g := range graphIDs(200) {
		o, _ := r.Owner(g)
		counts[o]++
	}
	for _, m := range testMembers {
		if counts[m] < 20 {
			t.Errorf("member %s owns only %d/200 graphs; vnode spread is broken: %v", m, counts[m], counts)
		}
	}
}

// TestRingBoundedDisruption is the consistent-hashing property test:
// removing one member only remaps the graphs that member owned; every
// other graph keeps its owner.
func TestRingBoundedDisruption(t *testing.T) {
	full := NewRing(testMembers)
	for _, removed := range testMembers {
		var rest []string
		for _, m := range testMembers {
			if m != removed {
				rest = append(rest, m)
			}
		}
		shrunk := NewRing(rest)
		moved, kept := 0, 0
		for _, g := range graphIDs(500) {
			before, _ := full.Owner(g)
			after, _ := shrunk.Owner(g)
			if before != removed {
				kept++
				if after != before {
					t.Errorf("removing %s remapped %q: %s -> %s (owner was untouched)", removed, g, before, after)
				}
			} else {
				moved++
				if after == removed {
					t.Errorf("%q still owned by removed member %s", g, removed)
				}
			}
		}
		if moved == 0 || kept == 0 {
			t.Fatalf("degenerate placement: removed=%s moved=%d kept=%d", removed, moved, kept)
		}
	}
}

// TestRingSuccessorsDistinct pins that the failover chain visits each
// member exactly once, covering the whole cluster.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(testMembers)
	for _, g := range graphIDs(50) {
		succ := r.Successors(g)
		if len(succ) != len(testMembers) {
			t.Fatalf("Successors(%q) = %v, want all %d members", g, succ, len(testMembers))
		}
		seen := make(map[string]bool)
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("Successors(%q) repeats %s: %v", g, m, succ)
			}
			seen[m] = true
		}
	}
}

// TestRingEmpty pins the no-member edge cases.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if o, ok := r.Owner("g"); ok {
		t.Errorf("empty ring produced owner %q", o)
	}
	if succ := r.Successors("g"); succ != nil {
		t.Errorf("empty ring produced successors %v", succ)
	}
	single := NewRing([]string{"http://one"})
	if o, ok := single.Owner("g"); !ok || o != "http://one" {
		t.Errorf("single-member ring: Owner = %q, %v", o, ok)
	}
}
