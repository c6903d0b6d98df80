package burs

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/grammar"
)

// EmitGo renders the grammar as a standalone Go source file — the analogue
// of iburg emitting C code for a grammar-specific tree parser that is then
// compiled into the retargeted compiler.  The emitted file contains the
// nonterminal table, the rule table (patterns in prefix form) and a
// table-driven labeller skeleton; it is valid Go and self-contained.
func EmitGo(g *grammar.Grammar, pkg string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by record's tree-parser generator; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "// Grammar: %d nonterminals, %d rules.\n\n", g.NumNT(), len(g.Rules))
	fmt.Fprintf(&b, "package %s\n\n", pkg)

	b.WriteString("// NT indices.\nconst (\n")
	for i, n := range g.NTNames {
		fmt.Fprintf(&b, "\tnt%d = %d // %s\n", i, i, n)
	}
	b.WriteString(")\n\n")

	b.WriteString("// Rule describes one grammar rule in prefix pattern form.\n")
	b.WriteString("type Rule struct {\n\tID   int\n\tLHS  int\n\tCost int\n\tPat  string\n\tKind string\n}\n\n")

	// Each rule line is appended into one reused buffer, the pattern into
	// another: grammars run to thousands of rules.
	b.WriteString("// Rules is the generated rule table.\nvar Rules = []Rule{\n")
	var line, pat []byte
	for _, r := range g.Rules {
		line = strconv.AppendInt(append(line[:0], "\t{ID: "...), int64(r.ID), 10)
		line = strconv.AppendInt(append(line, ", LHS: "...), int64(r.LHS), 10)
		line = strconv.AppendInt(append(line, ", Cost: "...), int64(r.Cost), 10)
		pat = appendPrefixPat(pat[:0], r.Pat)
		line = strconv.AppendQuote(append(line, ", Pat: "...), string(pat))
		line = strconv.AppendQuote(append(line, ", Kind: "...), r.Kind.String())
		b.Write(append(line, "},\n"...))
	}
	b.WriteString("}\n\n")

	b.WriteString(`// Labels holds per-node dynamic-programming state.
type Labels struct {
	Cost []int32
	Rule []int
}

// NewLabels allocates a label record with every cost infinite.
func NewLabels() *Labels {
	l := &Labels{Cost: make([]int32, ` + fmt.Sprint(g.NumNT()) + `), Rule: make([]int, ` + fmt.Sprint(g.NumNT()) + `)}
	for i := range l.Cost {
		l.Cost[i] = 1 << 29
		l.Rule[i] = -1
	}
	return l
}

// Record applies rule id if it improves nonterminal lhs at cost c.
func (l *Labels) Record(lhs int, c int32, id int) bool {
	if c < l.Cost[lhs] {
		l.Cost[lhs] = c
		l.Rule[lhs] = id
		return true
	}
	return false
}
`)
	return b.String()
}

// appendPrefixPat appends p in compact prefix form for the emitted table.
func appendPrefixPat(dst []byte, p *grammar.Pat) []byte {
	switch p.Kind {
	case grammar.PatNT:
		return strconv.AppendInt(append(dst, "nt"...), int64(p.NT), 10)
	case grammar.PatOp:
		dst = append(dst, p.Op...)
		dst = strconv.AppendInt(append(dst, '/'), int64(p.Width), 10)
		dst = append(dst, '(')
		for i, k := range p.Kids {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendPrefixPat(dst, k)
		}
		return append(dst, ')')
	case grammar.PatReg:
		return append(append(dst, "reg:"...), p.Storage...)
	case grammar.PatMem:
		dst = append(append(append(dst, "mem:"...), p.Storage...), '(')
		return append(appendPrefixPat(dst, p.Kids[0]), ')')
	case grammar.PatImm:
		return append(appendBits(append(dst, "imm["...), p.ImmHi, p.ImmLo), ']')
	case grammar.PatConst:
		return strconv.AppendInt(append(dst, "const:"...), p.Val, 10)
	case grammar.PatPort:
		return append(append(dst, "port:"...), p.Port...)
	case grammar.PatSlice:
		dst = append(appendBits(append(dst, "slice["...), p.Hi, p.Lo), "]("...)
		return append(appendPrefixPat(dst, p.Kids[0]), ')')
	}
	return append(dst, '?')
}

// appendBits appends "hi:lo".
func appendBits(dst []byte, hi, lo int) []byte {
	dst = strconv.AppendInt(dst, int64(hi), 10)
	return strconv.AppendInt(append(dst, ':'), int64(lo), 10)
}
