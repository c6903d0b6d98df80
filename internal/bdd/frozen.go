// Frozen managers and copy-on-write views.
//
// A Manager memoizes destructively: every Ite call may insert into the
// unique table and the operation cache, so two goroutines sharing one
// manager race even when they compute logically independent functions.
// RECORD's serving shape makes that expensive — one retarget produces a
// condition universe that thousands of compiles then only *query* — so the
// manager can be frozen once retargeting is done: Freeze marks every table
// read-only (mutation panics with InvariantError), and NewView hands out
// cheap copy-on-write overlays for the residual node construction a
// compile still needs (conjoining word conditions, operand-field cubes).
//
// A View resolves nodes against the frozen base tables first and keeps its
// private inserts in overlay maps, so concurrent views never write shared
// state; reads of the frozen maps are safe because Freeze guarantees no
// further writes.  Canonicity is preserved per view: structurally equal
// functions built through one view are pointer-equal, and any function
// already present in the frozen base resolves to the base node, so results
// are bit-for-bit the ones a serial, unfrozen run would produce (ROBDDs
// are canonical for a fixed variable order).  A View is NOT safe for
// concurrent use itself — it belongs to one encoding session at a time.
package bdd

// Freeze marks the manager read-only.  Subsequent calls that would create
// nodes, declare variables or write the operation cache panic with an
// InvariantError; read-only queries (Sat, AnySat, Eval, SatCount, Support,
// NodeCount, String) remain valid, and become safe for concurrent use
// because nothing writes anymore.  Freeze is idempotent.
func (m *Manager) Freeze() { m.frozen = true }

// Frozen reports whether Freeze was called.
func (m *Manager) Frozen() bool { return m.frozen }

// View is a copy-on-write overlay over a frozen Manager: node construction
// reads the frozen unique table and operation cache, and keeps its own
// inserts privately.  Views of the same manager may be used concurrently
// with each other (one goroutine per view).
type View struct {
	base    *Manager
	unique  map[triple]*Node
	iteMemo map[triple]*Node
	nextID  int
	// baseN is the frozen manager's node count: ids below it are base
	// nodes, so a key holding any id at or above it is overlay-only and
	// the frozen tables need not be probed for it.
	baseN int
}

// NewView returns a fresh copy-on-write overlay.  The manager must be
// frozen first: a live manager could still grow its tables under the view.
func (m *Manager) NewView() *View {
	if !m.frozen {
		panic(InvariantError("bdd: NewView on unfrozen manager (call Freeze first)"))
	}
	return &View{base: m, nextID: len(m.nodes), baseN: len(m.nodes)}
}

// True returns the constant-true node of the underlying manager.
func (v *View) True() *Node { return v.base.trueN }

// False returns the constant-false node of the underlying manager.
func (v *View) False() *Node { return v.base.falseN }

// mk is Manager.mk against base-then-overlay tables.  Overlay node ids
// start past the frozen table so memo keys never collide with base ids.
func (v *View) mk(va int, lo, hi *Node) *Node {
	if lo == hi {
		return lo
	}
	key := triple{va, lo.id, hi.id}
	if lo.id < v.baseN && hi.id < v.baseN {
		if n, ok := v.base.unique[key]; ok {
			return n
		}
	}
	if n, ok := v.unique[key]; ok {
		return n
	}
	if v.unique == nil {
		v.unique = make(map[triple]*Node)
	}
	n := &Node{Var: va, Low: lo, High: hi, id: v.nextID}
	v.nextID++
	v.unique[key] = n
	return n
}

// Ite computes if-then-else through the overlay, consulting the frozen
// operation cache read-only and memoizing privately.
func (v *View) Ite(f, g, h *Node) *Node {
	m := v.base
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
	if f.id < v.baseN && g.id < v.baseN && h.id < v.baseN {
		if r, ok := m.iteMemo[key]; ok {
			return r
		}
	}
	if r, ok := v.iteMemo[key]; ok {
		return r
	}
	vv := topVar(f, g, h)
	f0, f1 := m.cofactors(f, vv)
	g0, g1 := m.cofactors(g, vv)
	h0, h1 := m.cofactors(h, vv)
	lo := v.Ite(f0, g0, h0)
	hi := v.Ite(f1, g1, h1)
	r := v.mk(vv, lo, hi)
	if v.iteMemo == nil {
		v.iteMemo = make(map[triple]*Node)
	}
	v.iteMemo[key] = r
	return r
}

// And returns the conjunction of its arguments (true for zero arguments).
func (v *View) And(ns ...*Node) *Node {
	r := v.base.trueN
	for _, n := range ns {
		r = v.Ite(r, n, v.base.falseN)
		if r == v.base.falseN {
			return r
		}
	}
	return r
}

// Or returns the disjunction of its arguments (false for zero arguments).
func (v *View) Or(ns ...*Node) *Node {
	r := v.base.falseN
	for _, n := range ns {
		r = v.Ite(n, v.base.trueN, r)
		if r == v.base.trueN {
			return r
		}
	}
	return r
}

// Not returns the complement of f.
func (v *View) Not(f *Node) *Node { return v.Ite(f, v.base.falseN, v.base.trueN) }

// CubeLits builds the conjunction of the given literals through the
// overlay.  lits must be sorted by Var ascending with no duplicate
// variables; nothing is allocated beyond the nodes themselves.
func (v *View) CubeLits(lits []Lit) *Node {
	r := v.base.trueN
	for i := len(lits) - 1; i >= 0; i-- {
		l := lits[i]
		if l.Val {
			r = v.mk(l.Var, v.base.falseN, r)
		} else {
			r = v.mk(l.Var, r, v.base.falseN)
		}
	}
	return r
}

// AnySat returns one satisfying assignment of f (which may contain overlay
// nodes); semantics match Manager.AnySat.
func (v *View) AnySat(f *Node) (map[int]bool, bool) { return v.base.AnySat(f) }

// AnySatWalk visits one satisfying assignment of f without allocating;
// semantics match Manager.AnySatWalk.
func (v *View) AnySatWalk(f *Node, fn func(va int, val bool)) bool {
	return v.base.AnySatWalk(f, fn)
}

// OverlaySize returns the number of private nodes this view has created —
// the memory it retains beyond the frozen base.  Session pools use it to
// decide when a recycled view has grown too large to be worth keeping.
func (v *View) OverlaySize() int { return len(v.unique) }

// Sat reports whether f is satisfiable.
func (v *View) Sat(f *Node) bool { return f != v.base.falseN }
