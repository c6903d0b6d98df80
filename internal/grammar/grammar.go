// Package grammar translates an (extended) RT template base into a tree
// grammar, following paper section 3.1.
//
// The grammar G = (Σ_T, Σ_N, S, R, c) is constructed so that exactly the
// expression trees of the intermediate representation can be derived from
// the start symbol:
//
//   - Terminals: the designated ASSIGN symbol plus Term(x) for every
//     sequential component, primary port, hardware operator and hardwired
//     constant.  Instruction-field immediates appear as IMM terminals that
//     match any program constant fitting the field.
//
//   - Nonterminals: the designated START symbol plus NonTerm(x) for every
//     sequential component and primary port — registers double as
//     "temporary locations" for intermediate results, which is what makes
//     special-purpose register allocation fall out of tree parsing.
//
//   - Rules: start rules START → ASSIGN(Term(dest), NonTerm(dest)) at cost
//     0 for every possible ET destination; one RT rule NonTerm(dest) →
//     L(src) at cost 1 per template (table 2 of the paper); and stop rules
//     NonTerm(reg) → Term(reg) at cost 0 terminating derivations at leaves.
//
// Patterns and subject trees share the rtl.Expr vocabulary; a pattern
// position is either a terminal node or a nonterminal placeholder.
package grammar

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/obs"

	"repro/internal/netlist"
	"repro/internal/rtl"
)

// PatKind discriminates pattern node roles.
type PatKind int

// Pattern node kinds.
const (
	PatNT    PatKind = iota // nonterminal placeholder
	PatOp                   // hardware operator terminal
	PatReg                  // scalar storage terminal (stop-rule leaves)
	PatMem                  // addressable storage terminal; Kids[0] = address
	PatImm                  // instruction-field immediate terminal
	PatConst                // hardwired constant terminal
	PatPort                 // primary input port terminal
	PatSlice                // subword-select terminal; one kid
)

// Pat is a tree-grammar pattern node.  The JSON tags define the
// retarget-artifact wire form (internal/artifact).
type Pat struct {
	Kind    PatKind `json:"k,omitempty"`
	NT      int     `json:"nt,omitempty"`   // PatNT: nonterminal index
	Op      rtl.Op  `json:"op,omitempty"`   // PatOp
	Width   int     `json:"w,omitempty"`    // result width (all kinds)
	Storage string  `json:"st,omitempty"`   // PatReg / PatMem: qualified storage name
	ImmHi   int     `json:"ihi,omitempty"`  // PatImm: instruction field bits
	ImmLo   int     `json:"ilo,omitempty"`  // PatImm
	Val     int64   `json:"val,omitempty"`  // PatConst
	Port    string  `json:"port,omitempty"` // PatPort
	Hi      int     `json:"hi,omitempty"`   // PatSlice
	Lo      int     `json:"lo,omitempty"`
	Kids    []*Pat  `json:"kids,omitempty"`
}

// TermKey returns the rule-indexing bucket for this pattern node (empty for
// nonterminals).  Subject trees map into the same buckets via SubjectKey.
func (p *Pat) TermKey() string {
	switch p.Kind {
	case PatOp:
		return opKey(p.Op, p.Width)
	case PatReg:
		return "reg:" + p.Storage
	case PatMem:
		return "mem:" + p.Storage
	case PatImm, PatConst:
		return "#const"
	case PatPort:
		return "port:" + p.Port
	case PatSlice:
		return sliceKey(p.Hi, p.Lo)
	}
	return ""
}

// opKey and sliceKey are the operator and slice buckets shared by TermKey
// and SubjectKey.  They concatenate instead of calling fmt: SubjectKey runs
// for every subject node labelled.
func opKey(op rtl.Op, width int) string {
	return "op:" + string(op) + ":" + strconv.Itoa(width)
}

func sliceKey(hi, lo int) string {
	return "slice:" + strconv.Itoa(hi) + ":" + strconv.Itoa(lo)
}

// SubjectKey returns the rule bucket a subject tree node falls into.
func SubjectKey(e *rtl.Expr) string {
	switch e.Kind {
	case rtl.OpApp:
		return opKey(e.Op, e.Width)
	case rtl.Read:
		if e.Addr() != nil {
			return "mem:" + e.Storage
		}
		return "reg:" + e.Storage
	case rtl.Const:
		return "#const"
	case rtl.PortRef:
		return "port:" + e.Port
	case rtl.Slice:
		return sliceKey(e.Hi, e.Lo)
	case rtl.InsnField:
		return "#const" // fields in subject trees behave like immediates
	}
	return ""
}

// MatchesLeaf reports whether terminal pattern p matches subject node e at
// this level (kids are matched by the parser).
func (p *Pat) MatchesLeaf(e *rtl.Expr) bool {
	switch p.Kind {
	case PatOp:
		return e.Kind == rtl.OpApp && e.Op == p.Op && e.Width == p.Width &&
			len(e.Kids) == len(p.Kids)
	case PatReg:
		return e.Kind == rtl.Read && e.Addr() == nil && e.Storage == p.Storage
	case PatMem:
		return e.Kind == rtl.Read && e.Addr() != nil && e.Storage == p.Storage
	case PatImm:
		return e.Kind == rtl.Const && fitsField(e.Val, p.ImmHi-p.ImmLo+1)
	case PatConst:
		// Hardwired constants match by value; the surrounding operator
		// node already checks widths, and literal widths are inference
		// artifacts (a shift amount infers at minimal width).
		return e.Kind == rtl.Const && e.Val == p.Val
	case PatPort:
		return e.Kind == rtl.PortRef && e.Port == p.Port
	case PatSlice:
		return e.Kind == rtl.Slice && e.Hi == p.Hi && e.Lo == p.Lo
	}
	return false
}

// fitsField reports whether v can be encoded in a w-bit instruction field
// (unsigned or two's-complement signed).
func fitsField(v int64, w int) bool {
	if w >= 64 {
		return true
	}
	if v >= 0 {
		return v < 1<<uint(w)
	}
	return v >= -(1 << uint(w-1))
}

func (p *Pat) String() string {
	switch p.Kind {
	case PatNT:
		return fmt.Sprintf("<%d>", p.NT)
	case PatOp:
		if len(p.Kids) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, p.Kids[0])
		}
		return fmt.Sprintf("(%s %s %s)", p.Kids[0], p.Op, p.Kids[1])
	case PatReg:
		return p.Storage
	case PatMem:
		return fmt.Sprintf("%s[%s]", p.Storage, p.Kids[0])
	case PatImm:
		return fmt.Sprintf("IMM[%d:%d]", p.ImmHi, p.ImmLo)
	case PatConst:
		return fmt.Sprintf("%d", p.Val)
	case PatPort:
		return p.Port
	case PatSlice:
		return fmt.Sprintf("%s[%d:%d]", p.Kids[0], p.Hi, p.Lo)
	}
	return "?"
}

// RuleKind classifies rules per the paper's three groups.
type RuleKind int

// Rule kinds.
const (
	KindStart RuleKind = iota
	KindRT
	KindStop
)

func (k RuleKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindRT:
		return "rt"
	case KindStop:
		return "stop"
	}
	return "?"
}

// Rule is one grammar rule "LHS → Pattern" with cost and provenance.
type Rule struct {
	ID       int
	Kind     RuleKind
	LHS      int // nonterminal index (START for start rules)
	Pat      *Pat
	Cost     int
	Template *rtl.Template // KindRT: the originating template
	Dest     string        // KindStart: the destination this rule targets
}

// IsChain reports whether the rule's pattern is a bare nonterminal (a chain
// rule for the dynamic-programming closure).
func (r *Rule) IsChain() bool { return r.Pat.Kind == PatNT }

func (r *Rule) String() string {
	return fmt.Sprintf("#%d %s: <%d> -> %s (cost %d)", r.ID, r.Kind, r.LHS, r.Pat, r.Cost)
}

// Grammar is the constructed tree grammar.
type Grammar struct {
	// NTNames[i] names nonterminal i; index 0 is START.
	NTNames []string
	ntIdx   map[string]int

	Rules []*Rule
	// RulesByKey indexes non-chain RT and stop rules by root terminal
	// bucket.
	RulesByKey map[string][]*Rule
	// ChainRules[src] lists chain rules deriving from nonterminal src.
	ChainRules map[int][]*Rule
	// StartRules maps destination name to its start rule.
	StartRules map[string]*Rule

	// StorageWidths/Sizes echo the machine spec for clients.
	Spec Spec
}

// START is the index of the start symbol.
const START = 0

// NT returns the index for the nonterminal of object name (a storage
// qualified name or port name), or -1.
func (g *Grammar) NT(name string) int {
	if i, ok := g.ntIdx[name]; ok {
		return i
	}
	return -1
}

// NumNT returns the number of nonterminals.
func (g *Grammar) NumNT() int { return len(g.NTNames) }

// StorageInfo describes one sequential component to the grammar builder.
type StorageInfo struct {
	Name  string // qualified name
	Width int
	Size  int // 1 for plain registers
}

// Spec is the machine information the grammar builder needs beyond the
// template base.
type Spec struct {
	Storages []StorageInfo
	OutPorts []string
}

// SpecFromNetlist derives a Spec from an elaborated netlist (data storages
// plus primary output ports).
func SpecFromNetlist(n *netlist.Netlist) Spec {
	var s Spec
	for _, st := range n.DataStorages() {
		s.Storages = append(s.Storages, StorageInfo{
			Name: st.QName(), Width: st.Width(), Size: st.Size(),
		})
	}
	for name := range n.PrimaryOut {
		s.OutPorts = append(s.OutPorts, name)
	}
	sort.Strings(s.OutPorts)
	return s
}

// Build constructs the tree grammar from a template base and machine spec.
func Build(base *rtl.Base, spec Spec) (*Grammar, error) {
	return BuildReported(base, spec, nil)
}

// BuildObs is BuildReported with instrumentation: it computes the finished
// grammar's Stats once and returns them, and the rule counts land in the
// scope's registry, broken down by rule kind, so `record -stats` and the
// recordd /metrics endpoint report grammar size without recomputing Stats.
// scope may be nil.
func BuildObs(base *rtl.Base, spec Spec, rep *diag.Reporter, scope *obs.Scope) (*Grammar, Stats, error) {
	g, err := BuildReported(base, spec, rep)
	if err != nil {
		return nil, Stats{}, err
	}
	st := g.Stats()
	if reg := scope.Registry(); reg != nil {
		rules := reg.CounterVec("record_grammar_rules_total",
			"tree-grammar rules constructed, by rule kind", "kind")
		rules.With("start").Add(st.StartRules)
		rules.With("rt").Add(st.RTRules)
		rules.With("stop").Add(st.StopRules)
		reg.Counter("record_grammar_nonterminals_total",
			"tree-grammar nonterminals constructed").Add(st.Nonterminals)
	}
	return g, st, nil
}

// BuildReported is Build with degraded-mode diagnostics: a template that
// cannot be lowered into a pattern is skipped with a warning on rep (its RT
// simply stays unselectable) instead of failing the whole build.  The build
// fails only when no selectable rule survives.  rep may be nil.
//
// Extension shares subtrees between the templates it derives, so each
// distinct *rtl.Expr is lowered once per build and rules share the
// resulting *Pat subtrees; grammar patterns are immutable.
func BuildReported(base *rtl.Base, spec Spec, rep *diag.Reporter) (*Grammar, error) {
	g := &Grammar{
		ntIdx:      make(map[string]int),
		RulesByKey: make(map[string][]*Rule),
		ChainRules: make(map[int][]*Rule),
		StartRules: make(map[string]*Rule),
		Spec:       spec,
	}
	g.NTNames = append(g.NTNames, "START")

	addNT := func(name string) int {
		if i, ok := g.ntIdx[name]; ok {
			return i
		}
		i := len(g.NTNames)
		g.NTNames = append(g.NTNames, name)
		g.ntIdx[name] = i
		return i
	}

	// Nonterminals: SEQ ∪ PORTS.
	for _, s := range spec.Storages {
		addNT(s.Name)
	}
	for _, p := range spec.OutPorts {
		addNT(p)
	}

	addRule := func(r *Rule) {
		r.ID = len(g.Rules)
		g.Rules = append(g.Rules, r)
		switch {
		case r.Kind == KindStart:
			g.StartRules[r.Dest] = r
		case r.IsChain():
			g.ChainRules[r.Pat.NT] = append(g.ChainRules[r.Pat.NT], r)
		default:
			key := r.Pat.TermKey()
			g.RulesByKey[key] = append(g.RulesByKey[key], r)
		}
	}

	// 1. Start rules, cost 0.
	for _, s := range spec.Storages {
		addRule(&Rule{Kind: KindStart, LHS: START, Dest: s.Name, Cost: 0,
			Pat: &Pat{Kind: PatNT, NT: g.ntIdx[s.Name], Width: s.Width}})
	}
	for _, p := range spec.OutPorts {
		addRule(&Rule{Kind: KindStart, LHS: START, Dest: p, Cost: 0,
			Pat: &Pat{Kind: PatNT, NT: g.ntIdx[p], Width: 0}})
	}

	// 2. RT rules, cost 1.
	memo := make(map[*rtl.Expr]*Pat)
	var skipErr error
	skipped, rtRules := 0, 0
	for _, t := range base.Templates {
		if len(t.Cond.Dynamic) > 0 {
			// Templates with residual dynamic guards (conditional jumps,
			// flag-steered transfers) execute only under run-time
			// conditions and are not selectable as unconditional ET
			// covers.
			continue
		}
		lhs, ok := g.ntIdx[t.Dest]
		if !ok {
			// Destination outside the spec (e.g. the PC of a machine whose
			// spec excludes it): skip rather than fail, the template simply
			// is not selectable.
			continue
		}
		var pat *Pat
		err := faultpoint.Hit("grammar.rule", t.Dest)
		if err == nil {
			pat, err = g.lower(t.Src, memo)
		}
		if err != nil {
			err = fmt.Errorf("template %d (%s): %w", t.ID, t, err)
			if skipErr == nil {
				skipErr = err
			}
			skipped++
			rep.Warnf("grammar", diag.Pos{}, "skipping %v; its RT stays unselectable", err)
			continue
		}
		addRule(&Rule{Kind: KindRT, LHS: lhs, Pat: pat, Cost: 1, Template: t})
		rtRules++
	}
	if skipped > 0 && rtRules == 0 {
		return nil, fmt.Errorf("grammar: no selectable rules survive lowering: %w", skipErr)
	}

	// 3. Stop rules, cost 0, for plain registers.
	for _, s := range spec.Storages {
		if s.Size != 1 {
			continue
		}
		addRule(&Rule{Kind: KindStop, LHS: g.ntIdx[s.Name], Cost: 0,
			Pat: &Pat{Kind: PatReg, Storage: s.Name, Width: s.Width}})
	}
	return g, nil
}

// LowerPattern converts an RT expression pattern (such as a template's
// destination-address pattern) into a grammar pattern; clients use it to
// match addressing modes against subject address trees.
func (g *Grammar) LowerPattern(e *rtl.Expr) (*Pat, error) { return g.lower(e, nil) }

// lower converts a template source expression into a pattern per table 2 of
// the paper.  memo, when non-nil, maps already lowered subtrees to their
// patterns; lowering depends only on the expression and the nonterminal
// table, so a hit is the pattern a fresh lowering would build.
func (g *Grammar) lower(e *rtl.Expr, memo map[*rtl.Expr]*Pat) (*Pat, error) {
	if p, ok := memo[e]; ok {
		return p, nil
	}
	p, err := g.lowerNode(e, memo)
	if err == nil && memo != nil {
		memo[e] = p
	}
	return p, err
}

// lowerNode lowers the root of e, its kids through lower.
func (g *Grammar) lowerNode(e *rtl.Expr, memo map[*rtl.Expr]*Pat) (*Pat, error) {
	switch e.Kind {
	case rtl.Const:
		return &Pat{Kind: PatConst, Val: e.Val, Width: e.Width}, nil
	case rtl.InsnField:
		return &Pat{Kind: PatImm, ImmHi: e.Hi, ImmLo: e.Lo, Width: e.Width}, nil
	case rtl.PortRef:
		return &Pat{Kind: PatPort, Port: e.Port, Width: e.Width}, nil
	case rtl.Read:
		if e.Addr() == nil {
			nt, ok := g.ntIdx[e.Storage]
			if !ok {
				return nil, fmt.Errorf("grammar: storage %s not in spec", e.Storage)
			}
			return &Pat{Kind: PatNT, NT: nt, Width: e.Width}, nil
		}
		addr, err := g.lower(e.Addr(), memo)
		if err != nil {
			return nil, err
		}
		return &Pat{Kind: PatMem, Storage: e.Storage, Width: e.Width,
			Kids: []*Pat{addr}}, nil
	case rtl.Slice:
		kid, err := g.lower(e.Kids[0], memo)
		if err != nil {
			return nil, err
		}
		return &Pat{Kind: PatSlice, Hi: e.Hi, Lo: e.Lo, Width: e.Width,
			Kids: []*Pat{kid}}, nil
	case rtl.OpApp:
		kids := make([]*Pat, len(e.Kids))
		for i, k := range e.Kids {
			p, err := g.lower(k, memo)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		return &Pat{Kind: PatOp, Op: e.Op, Width: e.Width, Kids: kids}, nil
	}
	return nil, fmt.Errorf("grammar: cannot lower expression %s", e)
}

// Stats summarizes the grammar for diagnostics and the retargeting report.
type Stats struct {
	Nonterminals int
	Terminals    int
	StartRules   int
	RTRules      int
	StopRules    int
	ChainRules   int
}

// Stats computes summary counts.  Rules share pattern subtrees, so each
// distinct *Pat is visited once.
func (g *Grammar) Stats() Stats {
	st := Stats{Nonterminals: len(g.NTNames)}
	terms := make(map[string]bool)
	seen := make(map[*Pat]bool)
	var walkTerms func(p *Pat)
	walkTerms = func(p *Pat) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.Kind != PatNT {
			terms[p.TermKey()] = true
		}
		for _, k := range p.Kids {
			walkTerms(k)
		}
	}
	for _, r := range g.Rules {
		switch r.Kind {
		case KindStart:
			st.StartRules++
		case KindRT:
			st.RTRules++
			walkTerms(r.Pat)
		case KindStop:
			st.StopRules++
			walkTerms(r.Pat)
		}
		if r.Kind != KindStart && r.IsChain() {
			st.ChainRules++
		}
	}
	st.Terminals = len(terms) + 1 // + ASSIGN
	return st
}

// String renders the grammar in a BNF-like form.
func (g *Grammar) String() string {
	var b strings.Builder
	for _, r := range g.Rules {
		lhs := g.NTNames[r.LHS]
		switch r.Kind {
		case KindStart:
			fmt.Fprintf(&b, "%-8s -> ASSIGN(%s, %s)  [0]\n", lhs, r.Dest, g.patString(r.Pat))
		default:
			fmt.Fprintf(&b, "%-8s -> %s  [%d]\n", lhs, g.patString(r.Pat), r.Cost)
		}
	}
	return b.String()
}

func (g *Grammar) patString(p *Pat) string {
	if p.Kind == PatNT {
		return g.NTNames[p.NT]
	}
	if len(p.Kids) == 0 {
		return p.String()
	}
	parts := make([]string, len(p.Kids))
	for i, k := range p.Kids {
		parts[i] = g.patString(k)
	}
	switch p.Kind {
	case PatOp:
		if len(parts) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, parts[0])
		}
		return fmt.Sprintf("(%s %s %s)", parts[0], p.Op, parts[1])
	case PatMem:
		return fmt.Sprintf("%s[%s]", p.Storage, parts[0])
	case PatSlice:
		return fmt.Sprintf("%s[%d:%d]", parts[0], p.Hi, p.Lo)
	}
	return p.String()
}
