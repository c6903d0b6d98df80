package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-node vnode count when NewRing is given
// zero.  128 points per node keeps the load spread within a few percent
// of uniform for small fleets while the ring stays tiny (a 3-node fleet
// is 384 points, one binary search per lookup).
const DefaultVirtualNodes = 128

// hash64 is the ring's hash: the first 8 bytes of SHA-256, matching the
// family of the artifact content addresses the ring is keyed on.  Speed
// is irrelevant here (one hash per lookup, a few hundred at membership
// changes); stability and spread are what matter.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring with virtual nodes.  Keys (artifact
// content addresses) map to the first node point at or clockwise after
// the key's hash; each node contributes vnodes points so load spreads
// evenly.  Membership changes move only the keys of the node that
// changed — the property the stability test pins down.
//
// All methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given nodes with vnodes virtual points
// per node (0 = DefaultVirtualNodes).
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node (idempotent).  Only keys owned by the removed
// node change owners.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Successors returns up to n distinct nodes in ring order starting at
// key's owner: the owner first, then each next distinct node clockwise.
// This is the failover order — when the owner is down, the next successor
// is the node whose cache is most likely warm for neighboring keys.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
