// Package rtl defines the register-transfer-level expression trees and RT
// templates that form RECORD's behavioral processor view.
//
// An RT template represents one primitive processor operation: a transfer
// of a value, computed by a tree of hardware operators, into a storage
// destination (register, memory cell) or output port within a single
// machine cycle (paper section 2).  Templates carry an execution condition
// — the instruction-word/mode-register constraint under which the hardware
// actually performs the transfer — represented as a BDD, plus any residual
// dynamic guards (e.g. a conditional jump's flag test).
package rtl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bdd"
)

// Op names an RT-level hardware operator.  The set is open: HDL models may
// use any operator the simulator and IR agree on, but these cover the
// fixed-point DSP class of the paper.
type Op string

// Canonical operator names shared between HDL behaviors, extracted
// templates, the tree grammar and the compiler IR.
const (
	OpAdd  Op = "+"
	OpSub  Op = "-"
	OpMul  Op = "*"
	OpDiv  Op = "/"
	OpMod  Op = "%"
	OpAnd  Op = "&"
	OpOr   Op = "|"
	OpXor  Op = "^"
	OpShl  Op = "<<"
	OpShr  Op = ">>"  // logical right shift
	OpAshr Op = ">>>" // arithmetic right shift
	OpEq   Op = "=="
	OpNe   Op = "!="
	OpLt   Op = "<"
	OpLe   Op = "<="
	OpGt   Op = ">"
	OpGe   Op = ">="
	OpNeg  Op = "neg"
	OpNot  Op = "~"
	OpPass Op = "pass" // identity (wire through an FU)
)

// Commutative reports whether swapping the two operands of op preserves
// semantics; used by the template-base extension (paper section 3).
func (op Op) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// Arity returns the operand count of op (1 or 2).
func (op Op) Arity() int {
	switch op {
	case OpNeg, OpNot, OpPass:
		return 1
	}
	return 2
}

// ExprKind discriminates RT expression nodes.
type ExprKind int

// Expression node kinds.
const (
	Const     ExprKind = iota // integer constant (hardwired or program)
	OpApp                     // operator application
	Read                      // storage read; Kids[0] is the address for arrays
	PortRef                   // primary processor input port
	InsnField                 // instruction word bits Lo..Hi (an immediate operand)
	Slice                     // bit slice Lo..Hi of Kids[0] (a subword select)
)

// Expr is an RT-level expression tree.  Exprs are treated as immutable
// after construction; sharing subtrees is allowed.  The JSON tags define
// the retarget-artifact wire form (internal/artifact); zero-valued fields
// are omitted and restore to their zero values.
type Expr struct {
	Kind    ExprKind `json:"k,omitempty"`
	Width   int      `json:"w,omitempty"` // result width in bits
	Op      Op       `json:"op,omitempty"` // OpApp
	Val     int64    `json:"val,omitempty"` // Const
	Storage string   `json:"st,omitempty"` // Read: qualified "part.var"
	Port    string   `json:"port,omitempty"` // PortRef: qualified primary port name
	Lo      int      `json:"lo,omitempty"` // InsnField: bit range within the instruction word
	Hi      int      `json:"hi,omitempty"`
	Kids    []*Expr  `json:"kids,omitempty"`
}

// NewConst builds a constant node.
func NewConst(val int64, width int) *Expr {
	return &Expr{Kind: Const, Val: val, Width: width}
}

// NewOp builds an operator application.
func NewOp(op Op, width int, kids ...*Expr) *Expr {
	return &Expr{Kind: OpApp, Op: op, Width: width, Kids: kids}
}

// NewRead builds a storage read; addr may be nil for plain registers.
func NewRead(storage string, width int, addr *Expr) *Expr {
	e := &Expr{Kind: Read, Storage: storage, Width: width}
	if addr != nil {
		e.Kids = []*Expr{addr}
	}
	return e
}

// NewPort builds a primary input port reference.
func NewPort(port string, width int) *Expr {
	return &Expr{Kind: PortRef, Port: port, Width: width}
}

// NewInsnField builds an instruction-field (immediate) reference covering
// instruction word bits lo..hi.
func NewInsnField(hi, lo int) *Expr {
	return &Expr{Kind: InsnField, Lo: lo, Hi: hi, Width: hi - lo + 1}
}

// NewSlice builds a bit slice hi..lo of kid, folding constants, nested
// slices, instruction fields and full-range slices.
func NewSlice(hi, lo int, kid *Expr) *Expr {
	w := hi - lo + 1
	switch {
	case lo == 0 && w == kid.Width:
		return kid
	case kid.Kind == Const:
		mask := int64(1)<<uint(w) - 1
		return NewConst((kid.Val>>uint(lo))&mask, w)
	case kid.Kind == InsnField:
		return NewInsnField(kid.Lo+hi, kid.Lo+lo)
	case kid.Kind == Slice:
		return NewSlice(kid.Lo+hi, kid.Lo+lo, kid.Kids[0])
	}
	return &Expr{Kind: Slice, Lo: lo, Hi: hi, Width: w, Kids: []*Expr{kid}}
}

// Addr returns the address subexpression of a Read, or nil.
func (e *Expr) Addr() *Expr {
	if e.Kind == Read && len(e.Kids) == 1 {
		return e.Kids[0]
	}
	return nil
}

// Size returns the number of nodes in the tree.
func (e *Expr) Size() int {
	if e == nil {
		return 0
	}
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Depth returns the height of the tree (1 for a leaf).
func (e *Expr) Depth() int {
	if e == nil {
		return 0
	}
	d := 0
	for _, k := range e.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Clone returns a deep copy of the tree.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := *e
	if len(e.Kids) > 0 {
		c.Kids = make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return &c
}

// Equal reports structural equality of two trees.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Kind != o.Kind || e.Width != o.Width || len(e.Kids) != len(o.Kids) {
		return false
	}
	switch e.Kind {
	case Const:
		if e.Val != o.Val {
			return false
		}
	case OpApp:
		if e.Op != o.Op {
			return false
		}
	case Read:
		if e.Storage != o.Storage {
			return false
		}
	case PortRef:
		if e.Port != o.Port {
			return false
		}
	case InsnField, Slice:
		if e.Lo != o.Lo || e.Hi != o.Hi {
			return false
		}
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Walk calls f on every node of the tree in pre-order.
func (e *Expr) Walk(f func(*Expr)) {
	if e == nil {
		return
	}
	f(e)
	for _, k := range e.Kids {
		k.Walk(f)
	}
}

// InsnFields returns every instruction-field leaf in the tree, in pre-order.
func (e *Expr) InsnFields() []*Expr {
	var fields []*Expr
	e.Walk(func(n *Expr) {
		if n.Kind == InsnField {
			fields = append(fields, n)
		}
	})
	return fields
}

// Reads returns every storage-read node in the tree, in pre-order.
func (e *Expr) Reads() []*Expr {
	var reads []*Expr
	e.Walk(func(n *Expr) {
		if n.Kind == Read {
			reads = append(reads, n)
		}
	})
	return reads
}

// String renders the tree in a compact prefix-free infix form used in
// diagnostics and golden tests.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	switch e.Kind {
	case Const:
		return fmt.Sprintf("%d", e.Val)
	case PortRef:
		return e.Port
	case InsnField:
		if e.Hi == e.Lo {
			return fmt.Sprintf("IW[%d]", e.Lo)
		}
		return fmt.Sprintf("IW[%d:%d]", e.Hi, e.Lo)
	case Read:
		if a := e.Addr(); a != nil {
			return fmt.Sprintf("%s[%s]", e.Storage, a)
		}
		return e.Storage
	case Slice:
		return fmt.Sprintf("%s[%d:%d]", e.Kids[0], e.Hi, e.Lo)
	case OpApp:
		if e.Op.Arity() == 1 {
			return fmt.Sprintf("%s(%s)", e.Op, e.Kids[0])
		}
		return fmt.Sprintf("(%s %s %s)", e.Kids[0], e.Op, e.Kids[1])
	}
	return "<bad expr>"
}

// Key returns a canonical string usable for structural deduplication; two
// trees have equal keys iff Equal reports true (widths included).
func (e *Expr) Key() string { return string(e.appendKey(nil)) }

// appendKey appends e's key to dst.  Keys are built with strconv appends,
// not fmt: they are computed for every template the extension proposes.
func (e *Expr) appendKey(dst []byte) []byte {
	if e == nil {
		return append(dst, '_')
	}
	switch e.Kind {
	case Const:
		dst = append(dst, 'c')
		dst = strconv.AppendInt(dst, e.Val, 10)
		dst = appendWidth(dst, e.Width)
	case PortRef:
		dst = append(dst, 'p')
		dst = append(dst, e.Port...)
		dst = appendWidth(dst, e.Width)
	case InsnField:
		dst = appendRange(append(dst, 'f'), e.Hi, e.Lo)
	case Read:
		dst = append(dst, 'r')
		dst = append(dst, e.Storage...)
		dst = appendWidth(dst, e.Width)
	case OpApp:
		dst = append(dst, 'o')
		dst = append(dst, e.Op...)
		dst = appendWidth(dst, e.Width)
	case Slice:
		dst = appendRange(append(dst, 's'), e.Hi, e.Lo)
	}
	if len(e.Kids) > 0 {
		dst = append(dst, '(')
		for i, k := range e.Kids {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = k.appendKey(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// appendWidth appends ":width".
func appendWidth(dst []byte, w int) []byte {
	return strconv.AppendInt(append(dst, ':'), int64(w), 10)
}

// appendRange appends "hi.lo".
func appendRange(dst []byte, hi, lo int) []byte {
	dst = strconv.AppendInt(dst, int64(hi), 10)
	return strconv.AppendInt(append(dst, '.'), int64(lo), 10)
}

// ExecCond is an RT template's execution condition: a static constraint over
// instruction-word and mode-register bits (the BDD), plus residual dynamic
// guards that depend on run-time state (e.g. a zero flag for conditional
// jumps).  A template is valid iff Static is satisfiable.
type ExecCond struct {
	Static  *bdd.Node
	Dynamic []*Expr
}

// Template is one extracted RT template: Dest := Src under Cond.
type Template struct {
	ID       int
	Dest     string // qualified storage name, or primary output port name
	DestPort bool   // true when Dest is a primary output port
	DestAddr *Expr  // address pattern for array destinations, nil otherwise
	Src      *Expr  // the tree pattern
	Cond     ExecCond
	Width    int // transfer width
	// Synthetic marks templates added by algebraic extension rather than
	// extracted from the netlist.
	Synthetic bool
}

// String renders the template as "dest := src [cond]".
func (t *Template) String() string {
	dest := t.Dest
	if t.DestAddr != nil {
		dest = fmt.Sprintf("%s[%s]", t.Dest, t.DestAddr)
	}
	var dyn string
	if len(t.Cond.Dynamic) > 0 {
		parts := make([]string, len(t.Cond.Dynamic))
		for i, d := range t.Cond.Dynamic {
			parts[i] = d.String()
		}
		dyn = " when " + strings.Join(parts, " && ")
	}
	return fmt.Sprintf("%s := %s%s", dest, t.Src, dyn)
}

// Key returns a canonical deduplication key covering destination and source
// pattern (but not the condition: structurally equal transfers with
// different encodings are merged by Base.Add, OR-ing their conditions).
func (t *Template) Key() string { return string(t.appendKey(nil)) }

func (t *Template) appendKey(dst []byte) []byte {
	if t.DestPort {
		dst = append(dst, "P!"...)
	}
	dst = append(dst, t.Dest...)
	dst = append(dst, '=')
	if t.DestAddr != nil {
		dst = t.DestAddr.appendKey(dst)
	}
	dst = append(dst, ';')
	return t.Src.appendKey(dst)
}

// Base is an RT template base: the complete set of valid templates for one
// processor, with structural deduplication.
type Base struct {
	Templates []*Template
	byKey     map[string]*Template
	nextID    int
	keyBuf    []byte // Add's reused key buffer
	// BDD is the manager owning every template's static condition.
	BDD *bdd.Manager
}

// NewBase creates an empty template base whose conditions live in m.
func NewBase(m *bdd.Manager) *Base {
	return &Base{byKey: make(map[string]*Template), BDD: m}
}

// Add inserts t unless an identical transfer already exists; when a
// duplicate transfer arrives, their static conditions are OR-ed (the same
// RT reachable under several encodings).  It returns the canonical
// template.
//
// The key is built in a reused buffer and looked up without converting it
// (m[string(buf)] does not allocate); only an inserted key becomes a
// string.
func (b *Base) Add(t *Template) *Template {
	b.keyBuf = t.appendKey(b.keyBuf[:0])
	if prev, ok := b.byKey[string(b.keyBuf)]; ok {
		if len(t.Cond.Dynamic) == 0 && len(prev.Cond.Dynamic) == 0 {
			prev.Cond.Static = b.BDD.Or(prev.Cond.Static, t.Cond.Static)
			return prev
		}
		// Distinct dynamic guards: keep both; disambiguate the key.
		b.keyBuf = appendDupID(b.keyBuf, b.nextID)
	}
	t.ID = b.nextID
	b.nextID++
	b.byKey[string(b.keyBuf)] = t
	b.Templates = append(b.Templates, t)
	return t
}

// appendDupID appends the suffix that disambiguates the key of template id
// from an earlier template with the same transfer but other dynamic guards.
func appendDupID(key []byte, id int) []byte {
	return strconv.AppendInt(append(key, '#'), int64(id), 10)
}

// Len returns the number of templates.
func (b *Base) Len() int { return len(b.Templates) }

// Destinations returns the sorted set of distinct destinations.
func (b *Base) Destinations() []string {
	set := make(map[string]bool)
	for _, t := range b.Templates {
		set[t.Dest] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// String renders the whole base, one template per line, sorted by ID.
func (b *Base) String() string {
	var sb strings.Builder
	for _, t := range b.Templates {
		fmt.Fprintf(&sb, "%4d: %s\n", t.ID, t)
	}
	return sb.String()
}
