package burs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/rtl"
)

// fmtPrefixPat is the fmt rendering the emitted rule table was first
// defined by; appendPrefixPat must match it byte for byte.
func fmtPrefixPat(p *grammar.Pat) string {
	switch p.Kind {
	case grammar.PatNT:
		return fmt.Sprintf("nt%d", p.NT)
	case grammar.PatOp:
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = fmtPrefixPat(k)
		}
		return fmt.Sprintf("%s/%d(%s)", p.Op, p.Width, strings.Join(parts, ","))
	case grammar.PatReg:
		return "reg:" + p.Storage
	case grammar.PatMem:
		return fmt.Sprintf("mem:%s(%s)", p.Storage, fmtPrefixPat(p.Kids[0]))
	case grammar.PatImm:
		return fmt.Sprintf("imm[%d:%d]", p.ImmHi, p.ImmLo)
	case grammar.PatConst:
		return fmt.Sprintf("const:%d", p.Val)
	case grammar.PatPort:
		return "port:" + p.Port
	case grammar.PatSlice:
		return fmt.Sprintf("slice[%d:%d](%s)", p.Hi, p.Lo, fmtPrefixPat(p.Kids[0]))
	}
	return "?"
}

func TestPrefixPatMatchesFmtRendering(t *testing.T) {
	nt := &grammar.Pat{Kind: grammar.PatNT, NT: 12, Width: 16}
	imm := &grammar.Pat{Kind: grammar.PatImm, ImmHi: 63, ImmLo: 32, Width: 32}
	pats := []*grammar.Pat{
		nt,
		imm,
		{Kind: grammar.PatReg, Storage: "dp.acc", Width: 16},
		{Kind: grammar.PatConst, Val: -9223372036854775808, Width: 64},
		{Kind: grammar.PatConst, Val: -1, Width: 16},
		{Kind: grammar.PatPort, Port: "in.p", Width: 8},
		{Kind: grammar.PatMem, Storage: "ram.m", Width: 16, Kids: []*grammar.Pat{imm}},
		{Kind: grammar.PatSlice, Hi: 127, Lo: 64, Width: 64, Kids: []*grammar.Pat{nt}},
		{Kind: grammar.PatOp, Op: rtl.OpNeg, Width: 16, Kids: []*grammar.Pat{nt}},
		{Kind: grammar.PatOp, Op: rtl.OpAshr, Width: 128, Kids: []*grammar.Pat{
			{Kind: grammar.PatOp, Op: rtl.OpMul, Width: 32, Kids: []*grammar.Pat{nt, imm}},
			{Kind: grammar.PatConst, Val: 3, Width: 5},
		}},
		{Kind: grammar.PatKind(99)},
	}
	for i, p := range pats {
		if got, want := string(appendPrefixPat(nil, p)), fmtPrefixPat(p); got != want {
			t.Errorf("pattern %d: appendPrefixPat = %q, fmt rendering %q", i, got, want)
		}
	}
}
