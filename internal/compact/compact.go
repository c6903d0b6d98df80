// Package compact implements code compaction (paper section 3.2, citing
// the authors' time-constrained compaction work [17]): the sequential RT
// instructions produced by code selection are packed into horizontal
// instruction words, exploiting the instruction-level parallelism the
// encoding permits.
//
// An RT may move into an earlier word when (a) data dependences allow it —
// read-after-write and write-after-write predecessors must be in strictly
// earlier words, write-after-read predecessors in the same word or earlier
// (time-stationary RTs read cycle-start values) — and (b) the combined
// word remains encodable: execution conditions conjoin satisfiably,
// operand fields do not clash, and all untouched storages stay quiescent.
// The encoder provides exactly that feasibility test, so compaction and
// encoding can never disagree.
package compact

import (
	"context"
	"fmt"

	"repro/internal/code"
	"repro/internal/obs"
)

// Options tunes compaction.
type Options struct {
	// Disable turns compaction off: one RT per word (the ablation
	// baseline).
	Disable bool
	// Obs receives compaction instruments (instructions in, words out);
	// nil is safe.
	Obs *obs.Scope
	// Ctx, when set, is checked before each instruction is placed:
	// scheduling is quadratic in the program length, so a long program
	// must be able to stop at its caller's deadline.  nil never cancels.
	Ctx context.Context
}

// record lands the compaction ratio in the registry; the instruction and
// word totals together give the paper's table 4 packing factor.
func record(scope *obs.Scope, seq *code.Seq, p *code.Program) {
	reg := scope.Registry()
	if reg == nil {
		return
	}
	reg.Counter("record_compact_instrs_total",
		"sequential RT instructions fed to compaction").Add(len(seq.Instrs))
	reg.Counter("record_compact_words_total",
		"instruction words emitted by compaction").Add(len(p.Words))
}

// Feasibility is the encodability test compaction schedules against —
// satisfied by *asm.Encoder and, for concurrent compiles against a frozen
// target, by *asm.Session.
type Feasibility interface {
	Feasible([]*code.Instr) bool
}

// Compact packs a sequential RT list into instruction words using greedy
// earliest-fit list scheduling.
func Compact(seq *code.Seq, enc Feasibility, opts Options) (*code.Program, error) {
	p := &code.Program{}
	if opts.Disable {
		for _, in := range seq.Instrs {
			if !enc.Feasible([]*code.Instr{in}) {
				return nil, fmt.Errorf("compact: instruction %s not encodable alone", in)
			}
			p.Words = append(p.Words, &code.Word{Instrs: []*code.Instr{in}})
		}
		record(opts.Obs, seq, p)
		return p, nil
	}

	wordOf := make([]int, len(seq.Instrs))
	var trial []*code.Instr // placement-probe scratch, reused across trials
	for idx, in := range seq.Instrs {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, opts.Ctx.Err()
		}
		earliest := 0
		for j := 0; j < idx; j++ {
			w := wordOf[j]
			if code.RAW(seq.Instrs[j], in) || code.WAW(seq.Instrs[j], in) {
				if w+1 > earliest {
					earliest = w + 1
				}
			} else if code.WAR(seq.Instrs[j], in) {
				if w > earliest {
					earliest = w
				}
			}
		}
		placed := false
		for w := earliest; w < len(p.Words); w++ {
			trial = append(trial[:0], p.Words[w].Instrs...)
			trial = append(trial, in)
			if enc.Feasible(trial) {
				p.Words[w].Instrs = append(p.Words[w].Instrs, in)
				wordOf[idx] = w
				placed = true
				break
			}
		}
		if !placed {
			if !enc.Feasible([]*code.Instr{in}) {
				return nil, fmt.Errorf("compact: instruction %s not encodable alone", in)
			}
			p.Words = append(p.Words, &code.Word{Instrs: []*code.Instr{in}})
			wordOf[idx] = len(p.Words) - 1
		}
	}
	record(opts.Obs, seq, p)
	return p, nil
}

// Verify checks that a compacted program respects every dependence of the
// original sequence and that each word is encodable; it is used by tests
// and as a safety net after compaction.
func Verify(seq *code.Seq, p *code.Program, enc Feasibility) error {
	// Map instructions to their word index (pointer identity).
	wordOf := make(map[*code.Instr]int)
	count := 0
	for w, word := range p.Words {
		for _, in := range word.Instrs {
			wordOf[in] = w
			count++
		}
		if !enc.Feasible(word.Instrs) {
			return fmt.Errorf("compact: word %d not encodable", w)
		}
	}
	if count != len(seq.Instrs) {
		return fmt.Errorf("compact: %d instructions packed, %d expected", count, len(seq.Instrs))
	}
	// Only a pair placed out of order can violate a dependence, so the
	// quadratic sweep compares word indices first and runs the dependence
	// tests on those pairs alone.
	words := make([]int, len(seq.Instrs))
	for i, in := range seq.Instrs {
		words[i] = wordOf[in]
	}
	for i := 0; i < len(seq.Instrs); i++ {
		for j := i + 1; j < len(seq.Instrs); j++ {
			wa, wb := words[i], words[j]
			if wb > wa {
				continue
			}
			a, b := seq.Instrs[i], seq.Instrs[j]
			if code.RAW(a, b) || code.WAW(a, b) {
				return fmt.Errorf("compact: dependence %s -> %s violated (words %d, %d)", a, b, wa, wb)
			}
			if code.WAR(a, b) && wb < wa {
				return fmt.Errorf("compact: anti-dependence %s -> %s violated (words %d, %d)", a, b, wa, wb)
			}
		}
	}
	return nil
}
