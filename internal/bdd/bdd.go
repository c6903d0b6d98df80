// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// RECORD models execution conditions of register-transfer templates as
// Boolean functions over instruction-word bits and mode-register bits
// (Leupers/Marwedel, DATE 1997, section 2).  This package provides the
// underlying BDD machinery: a manager with a unique table guaranteeing
// canonicity, the classic ternary ITE operator with memoization, quantifier
// and restriction operations, and satisfiability queries used to prune
// templates with conflicting encodings.
//
// Nodes are immutable and hash-consed: two structurally equal functions are
// represented by the same *Node pointer, so semantic equivalence is pointer
// equality.  All operations on nodes from different managers are invalid.
package bdd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// InvariantError is the panic value used for caller-contract violations
// (negative variable indices).  These panics are invariant-only: they are
// unreachable from well-formed pipeline input, so they are not converted to
// returned errors; instead every pipeline phase runs under a diag.Capture
// recovery boundary that turns them into Error diagnostics rather than
// driver crashes (see internal/diag and the boundary tests in this
// package's test file).
type InvariantError string

func (e InvariantError) Error() string { return string(e) }

// Node is a vertex of a shared ROBDD.  Leaf nodes are the manager's True
// and False constants.  For internal nodes, Low is the cofactor for
// variable=0 and High for variable=1.
type Node struct {
	Var  int // variable index (level); -1 for terminals
	Low  *Node
	High *Node
	id   int // unique id within the manager, used for cache keys
}

// IsLeaf reports whether n is a terminal (constant) node.
func (n *Node) IsLeaf() bool { return n.Var < 0 }

// Manager owns a universe of BDD nodes over a fixed, growable variable
// order.  The zero value is not usable; call New.
type Manager struct {
	unique  map[triple]*Node
	iteMemo map[triple]*Node
	nodes   []*Node
	names   []string // variable names, index = variable
	byName  map[string]int
	trueN   *Node
	falseN  *Node
	// frozen makes every table read-only: mutation panics, concurrent
	// reads become safe, and NewView hands out copy-on-write overlays.
	frozen bool

	// Optional observability counters (nil-safe, single atomic add on the
	// hot path): nodes allocated by mk, Ite invocations.  Set before the
	// manager is shared; per-template satisfiability cost then shows up
	// in /metrics instead of requiring a profiler.
	nodesAllocated *obs.Counter
	iteOps         *obs.Counter
}

type triple struct{ a, b, c int }

// New creates an empty manager with no variables declared.
func New() *Manager {
	m := &Manager{
		unique:  make(map[triple]*Node),
		iteMemo: make(map[triple]*Node),
		byName:  make(map[string]int),
	}
	m.falseN = &Node{Var: -1, id: 0}
	m.trueN = &Node{Var: -1, id: 1}
	m.nodes = []*Node{m.falseN, m.trueN}
	return m
}

// True returns the constant-true node.
func (m *Manager) True() *Node { return m.trueN }

// False returns the constant-false node.
func (m *Manager) False() *Node { return m.falseN }

// Const returns the constant node for b.
func (m *Manager) Const(b bool) *Node {
	if b {
		return m.trueN
	}
	return m.falseN
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.names) }

// VarName returns the declared name of variable v.
func (m *Manager) VarName(v int) string {
	if v >= 0 && v < len(m.names) {
		return m.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// DeclareVar declares (or retrieves) a named variable and returns its index.
// Variable order is declaration order.
func (m *Manager) DeclareVar(name string) int {
	if v, ok := m.byName[name]; ok {
		return v
	}
	if m.frozen {
		panic(InvariantError("bdd: DeclareVar on frozen manager"))
	}
	v := len(m.names)
	m.names = append(m.names, name)
	m.byName[name] = v
	return v
}

// VarByName returns the index of a declared variable, or -1.
func (m *Manager) VarByName(name string) int {
	if v, ok := m.byName[name]; ok {
		return v
	}
	return -1
}

// Var returns the BDD for the single variable v, declaring anonymous
// variables as needed so that v is in range.
func (m *Manager) Var(v int) *Node {
	if v < 0 {
		panic(InvariantError("bdd: negative variable index"))
	}
	for len(m.names) <= v {
		m.DeclareVar(fmt.Sprintf("x%d", len(m.names)))
	}
	return m.mk(v, m.falseN, m.trueN)
}

// NVar returns the BDD for the negation of variable v.
func (m *Manager) NVar(v int) *Node {
	if v < 0 {
		panic(InvariantError("bdd: negative variable index"))
	}
	for len(m.names) <= v {
		m.DeclareVar(fmt.Sprintf("x%d", len(m.names)))
	}
	return m.mk(v, m.trueN, m.falseN)
}

// mk returns the canonical node (v, lo, hi), applying the reduction rule.
func (m *Manager) mk(v int, lo, hi *Node) *Node {
	if lo == hi {
		return lo
	}
	key := triple{v, lo.id, hi.id}
	if n, ok := m.unique[key]; ok {
		return n
	}
	if m.frozen {
		panic(InvariantError("bdd: node creation on frozen manager (use a View)"))
	}
	n := &Node{Var: v, Low: lo, High: hi, id: len(m.nodes)}
	m.nodes = append(m.nodes, n)
	m.unique[key] = n
	m.nodesAllocated.Inc()
	return n
}

// Instrument wires observability counters into the manager's hot paths:
// nodesAllocated counts canonical nodes created by mk, iteOps counts Ite
// calls (the unit of BDD work).  Either may be nil.  Call before sharing
// the manager; the counters themselves are atomic, so instrumented
// managers stay safe under frozen-target parallel compilation.
func (m *Manager) Instrument(nodesAllocated, iteOps *obs.Counter) {
	m.nodesAllocated = nodesAllocated
	m.iteOps = iteOps
}

// Size returns the total number of nodes ever created in the manager
// (including the two terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Ite computes if-then-else: f·g + ¬f·h.  All binary operations are
// expressed through Ite, sharing one memo table.
func (m *Manager) Ite(f, g, h *Node) *Node {
	if err := faultpoint.Hit("bdd.ite", ""); err != nil {
		panic(err) // Ite cannot return errors; the phase boundary recovers.
	}
	m.iteOps.Inc()
	// Terminal cases.
	switch {
	case f == m.trueN:
		return g
	case f == m.falseN:
		return h
	case g == h:
		return g
	case g == m.trueN && h == m.falseN:
		return f
	}
	key := triple{f.id, g.id, h.id}
	if r, ok := m.iteMemo[key]; ok {
		return r
	}
	if m.frozen {
		// Even a cache-miss recomputation would write the memo table and
		// race concurrent readers; residual operations go through a View.
		panic(InvariantError("bdd: Ite on frozen manager (use a View)"))
	}
	v := topVar(f, g, h)
	f0, f1 := m.cofactors(f, v)
	g0, g1 := m.cofactors(g, v)
	h0, h1 := m.cofactors(h, v)
	lo := m.Ite(f0, g0, h0)
	hi := m.Ite(f1, g1, h1)
	r := m.mk(v, lo, hi)
	m.iteMemo[key] = r
	return r
}

func topVar(ns ...*Node) int {
	v := int(^uint(0) >> 1) // max int
	for _, n := range ns {
		if !n.IsLeaf() && n.Var < v {
			v = n.Var
		}
	}
	return v
}

func (m *Manager) cofactors(n *Node, v int) (lo, hi *Node) {
	if n.IsLeaf() || n.Var != v {
		return n, n
	}
	return n.Low, n.High
}

// And returns the conjunction of its arguments (true for zero arguments).
func (m *Manager) And(ns ...*Node) *Node {
	r := m.trueN
	for _, n := range ns {
		r = m.Ite(r, n, m.falseN)
		if r == m.falseN {
			return r
		}
	}
	return r
}

// Or returns the disjunction of its arguments (false for zero arguments).
func (m *Manager) Or(ns ...*Node) *Node {
	r := m.falseN
	for _, n := range ns {
		r = m.Ite(n, m.trueN, r)
		if r == m.trueN {
			return r
		}
	}
	return r
}

// Not returns the complement of f.
func (m *Manager) Not(f *Node) *Node { return m.Ite(f, m.falseN, m.trueN) }

// Xor returns the exclusive-or of f and g.
func (m *Manager) Xor(f, g *Node) *Node { return m.Ite(f, m.Not(g), g) }

// Xnor returns the complement of Xor(f, g), i.e. Boolean equality.
func (m *Manager) Xnor(f, g *Node) *Node { return m.Ite(f, g, m.Not(g)) }

// Implies returns ¬f + g.
func (m *Manager) Implies(f, g *Node) *Node { return m.Ite(f, g, m.trueN) }

// Restrict fixes variable v to the given value in f.
func (m *Manager) Restrict(f *Node, v int, value bool) *Node {
	if f.IsLeaf() || f.Var > v {
		return f
	}
	if f.Var == v {
		if value {
			return f.High
		}
		return f.Low
	}
	return m.mk(f.Var, m.Restrict(f.Low, v, value), m.Restrict(f.High, v, value))
}

// Exists existentially quantifies variable v out of f.
func (m *Manager) Exists(f *Node, v int) *Node {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// ExistsAll existentially quantifies every variable in vs out of f.
func (m *Manager) ExistsAll(f *Node, vs []int) *Node {
	for _, v := range vs {
		f = m.Exists(f, v)
	}
	return f
}

// Sat reports whether f is satisfiable.
func (m *Manager) Sat(f *Node) bool { return f != m.falseN }

// Tautology reports whether f is constant true.
func (m *Manager) Tautology(f *Node) bool { return f == m.trueN }

// AnySat returns one satisfying assignment of f as a map from variable to
// value.  Variables not in the map are don't-cares.  ok is false when f is
// unsatisfiable.
func (m *Manager) AnySat(f *Node) (assign map[int]bool, ok bool) {
	if f == m.falseN {
		return nil, false
	}
	assign = make(map[int]bool)
	for !f.IsLeaf() {
		if f.Low != m.falseN {
			assign[f.Var] = false
			f = f.Low
		} else {
			assign[f.Var] = true
			f = f.High
		}
	}
	return assign, true
}

// Eval evaluates f under a total assignment (missing variables read false).
func (m *Manager) Eval(f *Node, assign map[int]bool) bool {
	for !f.IsLeaf() {
		if assign[f.Var] {
			f = f.High
		} else {
			f = f.Low
		}
	}
	return f == m.trueN
}

// SatCount returns the number of satisfying assignments of f over the first
// nvars variables (nvars must be at least the index of every variable in f,
// plus one).  The result is a float64 because counts grow as 2^nvars.
func (m *Manager) SatCount(f *Node, nvars int) float64 {
	memo := make(map[int]float64)
	var count func(n *Node) float64 // over variables n.Var..nvars-1
	count = func(n *Node) float64 {
		if n == m.falseN {
			return 0
		}
		if n == m.trueN {
			return 1
		}
		if c, ok := memo[n.id]; ok {
			return c
		}
		c := count(n.Low)*pow2(gap(n, n.Low, nvars)) +
			count(n.High)*pow2(gap(n, n.High, nvars))
		memo[n.id] = c
		return c
	}
	if f.IsLeaf() {
		if f == m.trueN {
			return pow2(nvars)
		}
		return 0
	}
	return count(f) * pow2(f.Var)
}

// gap returns the number of skipped variable levels between parent n and
// child c, counting toward nvars for terminals.
func gap(n, c *Node, nvars int) int {
	if c.IsLeaf() {
		return nvars - n.Var - 1
	}
	return c.Var - n.Var - 1
}

func pow2(k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= 2
	}
	return r
}

// Support returns the sorted set of variables f depends on.
func (m *Manager) Support(f *Node) []int {
	seen := make(map[int]bool)
	visited := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() || visited[n.id] {
			return
		}
		visited[n.id] = true
		seen[n.Var] = true
		walk(n.Low)
		walk(n.High)
	}
	walk(f)
	vars := make([]int, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars
}

// NodeCount returns the number of distinct internal nodes reachable from f.
func (m *Manager) NodeCount(f *Node) int {
	visited := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() || visited[n.id] {
			return
		}
		visited[n.id] = true
		walk(n.Low)
		walk(n.High)
	}
	walk(f)
	return len(visited)
}

// Cube builds the conjunction of literals given as variable→value.
func (m *Manager) Cube(assign map[int]bool) *Node {
	vars := make([]int, 0, len(assign))
	for v := range assign {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	r := m.trueN
	// Build bottom-up for linear-size construction.
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if assign[v] {
			r = m.mk(v, m.falseN, r)
		} else {
			r = m.mk(v, r, m.falseN)
		}
	}
	return r
}

// Lit is one literal of a cube: variable Var with value Val.  Slices of
// literals replace map[int]bool on hot paths so one scratch slice can be
// reused across many cube constructions (see View.CubeLits).
type Lit struct {
	Var int
	Val bool
}

// AnySatWalk visits one satisfying assignment of f literal by literal
// (variables absent from the path are don't-cares), avoiding the map
// allocation of AnySat.  It reports whether f is satisfiable; fn is never
// called when it is not.
func (m *Manager) AnySatWalk(f *Node, fn func(v int, val bool)) bool {
	if f == m.falseN {
		return false
	}
	for !f.IsLeaf() {
		if f.Low != m.falseN {
			fn(f.Var, false)
			f = f.Low
		} else {
			fn(f.Var, true)
			f = f.High
		}
	}
	return true
}

// String renders f as a sum of cubes over variable names (for diagnostics;
// exponential in the worst case, so callers should keep f small).
func (m *Manager) String(f *Node) string {
	switch f {
	case m.trueN:
		return "1"
	case m.falseN:
		return "0"
	}
	var cubes []string
	lits := make([]string, 0, 8)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == m.falseN {
			return
		}
		if n == m.trueN {
			if len(lits) == 0 {
				cubes = append(cubes, "1")
			} else {
				cubes = append(cubes, strings.Join(lits, "&"))
			}
			return
		}
		lits = append(lits, "!"+m.VarName(n.Var))
		walk(n.Low)
		lits = lits[:len(lits)-1]
		lits = append(lits, m.VarName(n.Var))
		walk(n.High)
		lits = lits[:len(lits)-1]
	}
	walk(f)
	return strings.Join(cubes, " | ")
}
