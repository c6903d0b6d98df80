package rtl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bdd"
)

// fmtExprKey is the fmt rendering Expr keys were first defined by; the
// strconv-built keys must match it byte for byte, because template keys
// fix which templates Base.Add merges.
func fmtExprKey(b *strings.Builder, e *Expr) {
	if e == nil {
		b.WriteString("_")
		return
	}
	switch e.Kind {
	case Const:
		fmt.Fprintf(b, "c%d:%d", e.Val, e.Width)
	case PortRef:
		fmt.Fprintf(b, "p%s:%d", e.Port, e.Width)
	case InsnField:
		fmt.Fprintf(b, "f%d.%d", e.Hi, e.Lo)
	case Read:
		fmt.Fprintf(b, "r%s:%d", e.Storage, e.Width)
	case OpApp:
		fmt.Fprintf(b, "o%s:%d", e.Op, e.Width)
	case Slice:
		fmt.Fprintf(b, "s%d.%d", e.Hi, e.Lo)
	}
	if len(e.Kids) > 0 {
		b.WriteByte('(')
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteByte(',')
			}
			fmtExprKey(b, k)
		}
		b.WriteByte(')')
	}
}

// fmtTemplateKey is the fmt-era Template.Key.
func fmtTemplateKey(t *Template) string {
	var b strings.Builder
	if t.DestPort {
		b.WriteString("P!")
	}
	b.WriteString(t.Dest)
	b.WriteByte('=')
	if t.DestAddr != nil {
		fmtExprKey(&b, t.DestAddr)
	}
	b.WriteByte(';')
	fmtExprKey(&b, t.Src)
	return b.String()
}

// keyExprs covers every expression kind, negative and extreme constants,
// wide slices and fields, nested kids and nil.
func keyExprs() []*Expr {
	acc := NewRead("dp.acc", 32, nil)
	mem := NewRead("ram.m", 16, NewInsnField(7, 0))
	return []*Expr{
		nil,
		NewConst(0, 1),
		NewConst(-1, 16),
		NewConst(-9223372036854775808, 64),
		NewConst(9223372036854775807, 64),
		NewConst(255, 8),
		NewPort("in.p", 16),
		NewInsnField(0, 0),
		NewInsnField(63, 0),
		NewInsnField(47, 32),
		acc,
		mem,
		{Kind: Slice, Hi: 63, Lo: 1, Width: 63, Kids: []*Expr{NewRead("w.r", 64, nil)}},
		{Kind: Slice, Hi: 31, Lo: 16, Width: 16, Kids: []*Expr{acc}},
		NewOp(OpNeg, 16, mem),
		NewOp(OpAshr, 32, acc, NewConst(-3, 5)),
		NewOp(OpAdd, 32, NewOp(OpMul, 32, acc, mem), NewOp(OpPass, 32, NewPort("in.p", 32))),
		{Kind: OpApp, Op: OpAdd, Width: 16, Kids: []*Expr{nil, acc}},
		{Kind: ExprKind(99), Width: 3},
	}
}

func TestKeyMatchesFmtRendering(t *testing.T) {
	for i, e := range keyExprs() {
		var b strings.Builder
		fmtExprKey(&b, e)
		if got, want := e.Key(), b.String(); got != want {
			t.Errorf("expr %d: Key() = %q, fmt rendering %q", i, got, want)
		}
	}
}

func TestTemplateKeyMatchesFmtRendering(t *testing.T) {
	exprs := keyExprs()[1:] // a template always has a source
	for i, src := range exprs {
		for _, tp := range []*Template{
			{Dest: "dp.acc", Src: src},
			{Dest: "out.q", DestPort: true, Src: src},
			{Dest: "ram.m", DestAddr: NewInsnField(7, 0), Src: src},
			{Dest: "ram.m", DestAddr: NewOp(OpAdd, 8, NewRead("ar.r", 8, nil), NewConst(-1, 8)), Src: src},
		} {
			if got, want := tp.Key(), fmtTemplateKey(tp); got != want {
				t.Errorf("template %d: Key() = %q, fmt rendering %q", i, got, want)
			}
		}
	}
}

// TestBaseAddKeysMatchRestore checks that the keys Add files templates
// under, disambiguated ones included, are the keys RestoreBase rebuilds: a
// restored base must merge further Adds exactly like the original.
func TestBaseAddKeysMatchRestore(t *testing.T) {
	m := bdd.New()
	x := m.Var(0)
	src := NewOp(OpAdd, 16, NewRead("dp.acc", 16, nil), NewConst(-2, 16))
	guard := NewRead("st.z", 1, nil)
	b := NewBase(m)
	b.Add(&Template{Dest: "dp.acc", Src: src, Cond: ExecCond{Static: x}})
	b.Add(&Template{Dest: "dp.acc", Src: src, Cond: ExecCond{Static: x, Dynamic: []*Expr{guard}}})
	b.Add(&Template{Dest: "dp.acc", Src: src, Cond: ExecCond{Static: x, Dynamic: []*Expr{guard}}})
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3 (dynamic guards keep templates apart)", b.Len())
	}
	r, err := RestoreBase(m, append([]*Template(nil), b.Templates...))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.byKey) != len(b.byKey) {
		t.Fatalf("restored %d keys, original %d", len(r.byKey), len(b.byKey))
	}
	for k, tp := range b.byKey {
		if r.byKey[k] != tp {
			t.Errorf("key %q: restored base files %v, original %v", k, r.byKey[k], tp)
		}
	}
}
