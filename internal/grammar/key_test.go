package grammar

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

// fmtTermKey and fmtSubjectKey are the fmt renderings the rule buckets were
// first defined by.  Bucket keys are stored in retarget artifacts
// (burs.Tables), so the strconv-built keys must match them byte for byte.
func fmtTermKey(p *Pat) string {
	switch p.Kind {
	case PatOp:
		return fmt.Sprintf("op:%s:%d", p.Op, p.Width)
	case PatReg:
		return "reg:" + p.Storage
	case PatMem:
		return "mem:" + p.Storage
	case PatImm, PatConst:
		return "#const"
	case PatPort:
		return "port:" + p.Port
	case PatSlice:
		return fmt.Sprintf("slice:%d:%d", p.Hi, p.Lo)
	}
	return ""
}

func fmtSubjectKey(e *rtl.Expr) string {
	switch e.Kind {
	case rtl.OpApp:
		return fmt.Sprintf("op:%s:%d", e.Op, e.Width)
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
		return fmt.Sprintf("slice:%d:%d", e.Hi, e.Lo)
	case rtl.InsnField:
		return "#const"
	}
	return ""
}

func TestTermKeyMatchesFmtRendering(t *testing.T) {
	pats := []*Pat{
		{Kind: PatNT, NT: 3, Width: 16},
		{Kind: PatOp, Op: rtl.OpAdd, Width: 8},
		{Kind: PatOp, Op: rtl.OpAshr, Width: 128},
		{Kind: PatOp, Op: rtl.OpNeg, Width: 0},
		{Kind: PatOp, Op: rtl.OpMul, Width: -1},
		{Kind: PatReg, Storage: "dp.acc", Width: 32},
		{Kind: PatMem, Storage: "ram.m", Width: 16},
		{Kind: PatImm, ImmHi: 63, ImmLo: 0, Width: 64},
		{Kind: PatConst, Val: -32768, Width: 16},
		{Kind: PatConst, Val: -9223372036854775808, Width: 64},
		{Kind: PatPort, Port: "in.p", Width: 8},
		{Kind: PatSlice, Hi: 7, Lo: 0, Width: 8},
		{Kind: PatSlice, Hi: 127, Lo: 100, Width: 28},
		{Kind: PatKind(99)},
	}
	for i, p := range pats {
		if got, want := p.TermKey(), fmtTermKey(p); got != want {
			t.Errorf("pattern %d (%v): TermKey() = %q, fmt rendering %q", i, p.Kind, got, want)
		}
	}
}

func TestSubjectKeyMatchesFmtRendering(t *testing.T) {
	exprs := []*rtl.Expr{
		rtl.NewConst(-1, 16),
		rtl.NewConst(-9223372036854775808, 64),
		rtl.NewOp(rtl.OpSub, 16, rtl.NewConst(0, 16), rtl.NewConst(-5, 16)),
		rtl.NewOp(rtl.OpShl, 1000, rtl.NewConst(0, 16), rtl.NewConst(3, 4)),
		rtl.NewOp(rtl.OpNot, 99, rtl.NewConst(0, 99)),
		rtl.NewRead("acc.r", 8, nil),
		rtl.NewRead("ram.m", 8, rtl.NewConst(1, 4)),
		rtl.NewPort("pin", 8),
		rtl.NewInsnField(63, 0),
		{Kind: rtl.Slice, Hi: 7, Lo: 0, Width: 8, Kids: []*rtl.Expr{rtl.NewRead("w.r", 16, nil)}},
		{Kind: rtl.Slice, Hi: 255, Lo: 128, Width: 128, Kids: []*rtl.Expr{rtl.NewRead("w.r", 256, nil)}},
		{Kind: rtl.ExprKind(99)},
	}
	for i, e := range exprs {
		if got, want := SubjectKey(e), fmtSubjectKey(e); got != want {
			t.Errorf("expr %d (%v): SubjectKey() = %q, fmt rendering %q", i, e.Kind, got, want)
		}
	}
}

// TestBuildSharesLoweredSubtrees checks the per-build lowering memo: rules
// whose templates share an *rtl.Expr share its pattern, and every rule's
// pattern equals what a fresh LowerPattern builds.
func TestBuildSharesLoweredSubtrees(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	shared := rtl.NewOp(rtl.OpMul, 8, rtl.NewRead("acc.r", 8, nil), rtl.NewRead("ram.m", 8, rtl.NewInsnField(3, 0)))
	srcs := []*rtl.Expr{
		rtl.NewOp(rtl.OpAdd, 8, shared, rtl.NewConst(1, 8)),
		rtl.NewOp(rtl.OpSub, 8, shared, rtl.NewConst(1, 8)),
		shared,
	}
	for _, src := range srcs {
		base.Add(&rtl.Template{Dest: "acc.r", Src: src, Width: 8, Cond: rtl.ExecCond{Static: m.True()}})
	}
	g, err := Build(base, Spec{Storages: []StorageInfo{
		{Name: "acc.r", Width: 8, Size: 1},
		{Name: "ram.m", Width: 8, Size: 16},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var rt []*Rule
	for _, r := range g.Rules {
		if r.Kind == KindRT {
			rt = append(rt, r)
		}
	}
	if len(rt) != len(srcs) {
		t.Fatalf("%d RT rules, want %d", len(rt), len(srcs))
	}
	if rt[0].Pat.Kids[0] != rt[1].Pat.Kids[0] || rt[0].Pat.Kids[0] != rt[2].Pat {
		t.Errorf("shared source subtree lowered more than once")
	}
	for i, r := range rt {
		fresh, err := g.LowerPattern(r.Template.Src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, r.Pat) {
			t.Errorf("rule %d: pattern %v, fresh lowering %v", i, r.Pat, fresh)
		}
	}
	if st := g.Stats(); st.RTRules != 3 || st.Terminals != 7 {
		t.Errorf("stats = %+v, want 3 RT rules and 7 terminals", st)
	}
}
