package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing(0, "n1", "n2", "n3")
	b := NewRing(0, "n3", "n1", "n2") // insertion order must not matter
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %s differs across construction orders: %s vs %s",
				k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingSuccessorsDistinctAndStable(t *testing.T) {
	r := NewRing(0, "n1", "n2", "n3")
	for _, k := range keys(100) {
		s := r.Successors(k, 3)
		if len(s) != 3 {
			t.Fatalf("successors(%s) = %v, want 3 distinct nodes", k, s)
		}
		seen := map[string]bool{}
		for _, n := range s {
			if seen[n] {
				t.Fatalf("successors(%s) repeats %s: %v", k, n, s)
			}
			seen[n] = true
		}
		if s[0] != r.Owner(k) {
			t.Fatalf("successors(%s)[0] = %s, owner = %s", k, s[0], r.Owner(k))
		}
		if got := r.Successors(k, 10); len(got) != 3 {
			t.Fatalf("successors capped at membership: %v", got)
		}
	}
}

// TestRingStabilityOnRemoval is the consistent-hashing contract: removing
// one endpoint remaps only the keys that endpoint owned.  Every other
// key keeps its owner, so a node death never invalidates the surviving
// nodes' cache locality.
func TestRingStabilityOnRemoval(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r := NewRing(0, nodes...)
	ks := keys(500)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = r.Owner(k)
	}

	victim := "n3"
	r.Remove(victim)
	remapped := 0
	for _, k := range ks {
		after := r.Owner(k)
		if after == victim {
			t.Fatalf("removed node still owns %s", k)
		}
		switch {
		case before[k] == victim:
			remapped++
		case after != before[k]:
			t.Fatalf("key %s moved from surviving node %s to %s", k, before[k], after)
		}
	}
	if remapped == 0 {
		t.Fatal("victim owned no keys; test has no teeth (bad spread?)")
	}

	// Re-adding restores exactly the original assignment.
	r.Add(victim)
	for _, k := range ks {
		if got := r.Owner(k); got != before[k] {
			t.Fatalf("after rejoin, key %s owned by %s, want %s", k, got, before[k])
		}
	}
}

func TestRingSpread(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(0, nodes...)
	counts := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / float64(len(ks))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys; vnode spread broken: %v",
				n, share*100, counts)
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(4)
	if r.Owner("k") != "" || r.Successors("k", 2) != nil || r.Len() != 0 {
		t.Fatal("empty ring not empty")
	}
	r.Add("a")
	r.Add("a") // idempotent
	r.Remove("missing")
	if r.Len() != 1 || r.Owner("k") != "a" {
		t.Fatalf("membership: len=%d owner=%q", r.Len(), r.Owner("k"))
	}
	if got := r.Nodes(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("nodes %v", got)
	}
}
