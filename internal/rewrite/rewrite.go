// Package rewrite implements the template-base extension of paper
// section 3: the RT template base delivered by instruction-set extraction
// is enlarged by templates that cannot be derived directly from the
// processor model.
//
// Two mechanisms are provided:
//
//   - Commutativity.  For each template containing a commutative operator, a
//     complementary template with swapped arguments is added.  This avoids
//     code-quality loss on badly structured expression trees, which matters
//     for the sum-of-product computations dominating DSP code.
//
//   - An external transformation library of algebraic rewrite rules.  Each
//     rule pairs a program-side pattern with a hardware-side pattern; when a
//     template subtree matches the hardware side, a synthetic template with
//     the program-side form is added, so that source programs written in
//     the program form can be covered by the same hardware route.
package rewrite

import (
	"fmt"

	"repro/internal/rtl"
)

// PatKind discriminates pattern nodes.
type PatKind int

// Pattern node kinds.
const (
	PVar      PatKind = iota // matches any subtree, binds it by name
	PConst                   // matches a specific constant value
	PAnyConst                // matches any constant, binds its value by name
	POp                      // matches an operator application
)

// Pattern is a tree pattern over RT expressions.
type Pattern struct {
	Kind PatKind
	Name string // PVar / PAnyConst
	Val  int64  // PConst
	Op   rtl.Op // POp
	Kids []*Pattern
}

// V builds a subtree variable pattern.
func V(name string) *Pattern { return &Pattern{Kind: PVar, Name: name} }

// C builds a specific-constant pattern.
func C(val int64) *Pattern { return &Pattern{Kind: PConst, Val: val} }

// AC builds an any-constant pattern binding the value as name.
func AC(name string) *Pattern { return &Pattern{Kind: PAnyConst, Name: name} }

// Op builds an operator pattern.
func Op(op rtl.Op, kids ...*Pattern) *Pattern {
	return &Pattern{Kind: POp, Op: op, Kids: kids}
}

func (p *Pattern) String() string {
	switch p.Kind {
	case PVar:
		return "$" + p.Name
	case PConst:
		return fmt.Sprintf("%d", p.Val)
	case PAnyConst:
		return "#" + p.Name
	case POp:
		if len(p.Kids) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, p.Kids[0])
		}
		return fmt.Sprintf("(%s %s %s)", p.Kids[0], p.Op, p.Kids[1])
	}
	return "?"
}

// Bindings holds the result of a successful match.  A map is nil when the
// pattern binds nothing of its kind.
type Bindings struct {
	Sub   map[string]*rtl.Expr // PVar bindings
	Const map[string]int64     // PAnyConst bindings
}

// Match attempts to match p against e, returning bindings on success.  The
// binding maps are made on the first binding and the result is allocated
// only on success, so a mismatch — almost every node the extension visits
// fails at the root — allocates nothing.
func (p *Pattern) Match(e *rtl.Expr) (*Bindings, bool) {
	var b Bindings
	if !p.match(e, &b) {
		return nil, false
	}
	out := b
	return &out, true
}

func (p *Pattern) match(e *rtl.Expr, b *Bindings) bool {
	switch p.Kind {
	case PVar:
		if prev, ok := b.Sub[p.Name]; ok {
			return prev.Equal(e)
		}
		if b.Sub == nil {
			b.Sub = make(map[string]*rtl.Expr)
		}
		b.Sub[p.Name] = e
		return true
	case PConst:
		return e.Kind == rtl.Const && e.Val == p.Val
	case PAnyConst:
		if e.Kind != rtl.Const {
			return false
		}
		if prev, ok := b.Const[p.Name]; ok {
			return prev == e.Val
		}
		if b.Const == nil {
			b.Const = make(map[string]int64)
		}
		b.Const[p.Name] = e.Val
		return true
	case POp:
		if e.Kind != rtl.OpApp || e.Op != p.Op || len(e.Kids) != len(p.Kids) {
			return false
		}
		for i, k := range p.Kids {
			if !k.match(e.Kids[i], b) {
				return false
			}
		}
		return true
	}
	return false
}

// Instantiate builds an expression from p under bindings, with the given
// result width.  Constants bound by name are looked up in b.Const.
func (p *Pattern) Instantiate(b *Bindings, width int) (*rtl.Expr, error) {
	switch p.Kind {
	case PVar:
		e, ok := b.Sub[p.Name]
		if !ok {
			return nil, fmt.Errorf("rewrite: unbound variable $%s", p.Name)
		}
		return e, nil
	case PConst:
		return rtl.NewConst(p.Val, width), nil
	case PAnyConst:
		v, ok := b.Const[p.Name]
		if !ok {
			return nil, fmt.Errorf("rewrite: unbound constant #%s", p.Name)
		}
		return rtl.NewConst(v, width), nil
	case POp:
		kids := make([]*rtl.Expr, len(p.Kids))
		for i, k := range p.Kids {
			kw := width
			if isComparison(p.Op) && width == 1 {
				// Comparison operands keep their own widths via bindings;
				// fresh constants inherit the sibling width below.
				kw = siblingWidth(p.Kids, i, b, width)
			}
			kid, err := k.Instantiate(b, kw)
			if err != nil {
				return nil, err
			}
			kids[i] = kid
		}
		return rtl.NewOp(p.Op, width, kids...), nil
	}
	return nil, fmt.Errorf("rewrite: bad pattern kind")
}

func isComparison(op rtl.Op) bool {
	switch op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
		return true
	}
	return false
}

func siblingWidth(kids []*Pattern, i int, b *Bindings, fallback int) int {
	for j, k := range kids {
		if j == i {
			continue
		}
		if k.Kind == PVar {
			if e, ok := b.Sub[k.Name]; ok {
				return e.Width
			}
		}
	}
	return fallback
}

// Rule pairs a program-side pattern with a hardware-side pattern.
// During extension, template subtrees matching HW spawn synthetic templates
// with the Prog form substituted (the hardware still executes HW; the rule
// asserts semantic equivalence).
type Rule struct {
	Name string
	Prog *Pattern
	HW   *Pattern
	// MapConsts optionally derives program-side constant bindings from the
	// hardware-side ones (e.g. c = 2^k for shift-to-multiply).  It returns
	// false when the match should be rejected.
	MapConsts func(hw map[string]int64) (map[string]int64, bool)
}

// StandardLibrary returns the default transformation library: algebraic
// identities that commonly bridge DSP source code and datapath structure.
func StandardLibrary() []Rule {
	return []Rule{
		{
			// a * 2^k  ==  a << k
			Name: "mul2shift",
			Prog: Op(rtl.OpMul, V("a"), AC("c")),
			HW:   Op(rtl.OpShl, V("a"), AC("k")),
			MapConsts: func(hw map[string]int64) (map[string]int64, bool) {
				k := hw["k"]
				if k < 0 || k > 30 {
					return nil, false
				}
				return map[string]int64{"c": 1 << uint(k)}, true
			},
		},
		{
			// a - b  ==  a + neg(b)
			Name: "subIsAddNeg",
			Prog: Op(rtl.OpSub, V("a"), V("b")),
			HW:   Op(rtl.OpAdd, V("a"), Op(rtl.OpNeg, V("b"))),
		},
		{
			// neg(a)  ==  0 - a
			Name: "negIsZeroSub",
			Prog: Op(rtl.OpNeg, V("a")),
			HW:   Op(rtl.OpSub, C(0), V("a")),
		},
		{
			// a  ==  pass(a): wires through ALU pass modes cover plain moves
			Name: "passthrough",
			Prog: V("a"),
			HW:   Op(rtl.OpPass, V("a")),
		},
	}
}

// Options configures Extend.
type Options struct {
	Commutativity bool
	Rules         []Rule
	// MaxVariantsPerTemplate bounds combinatorial swap generation.
	MaxVariantsPerTemplate int
}

// DefaultOptions enables commutativity and the standard library.
func DefaultOptions() Options {
	return Options{
		Commutativity:          true,
		Rules:                  StandardLibrary(),
		MaxVariantsPerTemplate: 128,
	}
}

// Extend enlarges base in place with synthetic templates and returns the
// number added (paper section 3).
func Extend(base *rtl.Base, opts Options) int {
	if opts.MaxVariantsPerTemplate <= 0 {
		opts.MaxVariantsPerTemplate = 128
	}
	before := base.Len()
	// Snapshot: extension applies to extracted templates (and first-level
	// synthetic results), not to its own output transitively forever.
	snapshot := append([]*rtl.Template(nil), base.Templates...)

	for _, t := range snapshot {
		var variants []*rtl.Expr
		if opts.Commutativity {
			variants = append(variants, commuteVariants(t.Src, opts.MaxVariantsPerTemplate)...)
		}
		for _, r := range opts.Rules {
			variants = append(variants, ruleVariants(t.Src, r, opts.MaxVariantsPerTemplate)...)
		}
		for _, v := range variants {
			if v.Equal(t.Src) {
				continue
			}
			nt := &rtl.Template{
				Dest:      t.Dest,
				DestPort:  t.DestPort,
				DestAddr:  t.DestAddr,
				Src:       v,
				Width:     t.Width,
				Cond:      t.Cond,
				Synthetic: true,
			}
			base.Add(nt)
		}
	}
	return base.Len() - before
}

// commuteVariants returns every tree obtainable by swapping the operands of
// commutative operator nodes (all subsets of swap positions), excluding the
// original.
func commuteVariants(e *rtl.Expr, limit int) []*rtl.Expr {
	var out []*rtl.Expr
	var rec func(n *rtl.Expr) []*rtl.Expr
	rec = func(n *rtl.Expr) []*rtl.Expr {
		if n.Kind != rtl.OpApp {
			return []*rtl.Expr{n}
		}
		if len(n.Kids) == 1 {
			kidVars := rec(n.Kids[0])
			vars := make([]*rtl.Expr, 0, len(kidVars))
			for _, kv := range kidVars {
				vars = append(vars, rtl.NewOp(n.Op, n.Width, kv))
			}
			return vars
		}
		ls := rec(n.Kids[0])
		rs := rec(n.Kids[1])
		var vars []*rtl.Expr
		for _, l := range ls {
			for _, r := range rs {
				vars = append(vars, rtl.NewOp(n.Op, n.Width, l, r))
				if n.Op.Commutative() {
					vars = append(vars, rtl.NewOp(n.Op, n.Width, r, l))
				}
				if len(vars) > limit {
					return vars[:limit]
				}
			}
		}
		return vars
	}
	for _, v := range rec(e) {
		if !v.Equal(e) {
			out = append(out, v)
		}
	}
	return out
}

// ruleVariants applies rule r at every node of e (one application per
// variant).
func ruleVariants(e *rtl.Expr, r Rule, limit int) []*rtl.Expr {
	var out []*rtl.Expr
	// replaceAt returns e with the node at path replaced by repl.
	var replaceAt func(n *rtl.Expr, path []int, repl *rtl.Expr) *rtl.Expr
	replaceAt = func(n *rtl.Expr, path []int, repl *rtl.Expr) *rtl.Expr {
		if len(path) == 0 {
			return repl
		}
		c := *n
		c.Kids = append([]*rtl.Expr(nil), n.Kids...)
		c.Kids[path[0]] = replaceAt(n.Kids[path[0]], path[1:], repl)
		return &c
	}
	// path is one stack shared by the whole walk; replaceAt only reads it.
	var path []int
	var walk func(n *rtl.Expr)
	walk = func(n *rtl.Expr) {
		if len(out) >= limit {
			return
		}
		if b, ok := r.HW.Match(n); ok {
			accept := true
			if r.MapConsts != nil {
				mapped, okm := r.MapConsts(b.Const)
				if !okm {
					accept = false
				} else {
					b.Const = mapped
				}
			}
			if accept {
				if repl, err := r.Prog.Instantiate(b, n.Width); err == nil {
					out = append(out, replaceAt(e, path, repl))
				}
			}
		}
		for i, k := range n.Kids {
			path = append(path, i)
			walk(k)
			path = path[:len(path)-1]
		}
	}
	walk(e)
	return out
}
