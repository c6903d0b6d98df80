package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// retargetGoldenFile pins the retarget output of every bundled model: one
// line per model with the template count, the grammar statistics and the
// SHA-256 of the rendered template base, the rendered grammar and the
// emitted Go tree parser.  Retarget speed work must keep every line
// byte-identical.
const retargetGoldenFile = "testdata/retarget_golden.txt"

// retargetGoldenLine renders one model's line of the golden file.
func retargetGoldenLine(name string, t *Target) string {
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	st := t.Stats.GrammarSz
	return fmt.Sprintf("%s templates %d grammar nt=%d term=%d start=%d rt=%d stop=%d chain=%d base %s grammar %s parser %s",
		name, t.Stats.Templates,
		st.Nonterminals, st.Terminals, st.StartRules, st.RTRules, st.StopRules, st.ChainRules,
		digest(t.Base.String()), digest(t.Grammar.String()), digest(t.ParserSource))
}

// TestRetargetGolden retargets every bundled model and compares the result
// line by line with the committed golden file.  A mismatch prints the line
// the current code produces; after checking that an output change is
// intended, replace the old line with it by hand.
func TestRetargetGolden(t *testing.T) {
	f, err := os.Open(filepath.FromSlash(retargetGoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // model → line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", retargetGoldenFile, line)
		}
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	all := models.All()
	for _, m := range all {
		tg, err := RetargetContext(context.Background(), m.MDL, RetargetOptions{EmitParserSource: true})
		if err != nil {
			t.Fatalf("retarget %s: %v", m.Name, err)
		}
		if st := tg.Grammar.Stats(); st != tg.Stats.GrammarSz {
			t.Errorf("%s: Stats.GrammarSz %+v, Grammar.Stats() %+v", m.Name, tg.Stats.GrammarSz, st)
		}
		got := retargetGoldenLine(m.Name, tg)
		if w, ok := want[m.Name]; !ok {
			t.Errorf("%s: no golden line; current output:\n%s", m.Name, got)
		} else if w != got {
			t.Errorf("%s: output changed\n  golden:  %s\n  current: %s", m.Name, w, got)
		}
	}
	if len(want) != len(all) {
		t.Errorf("%s has %d lines for %d models", retargetGoldenFile, len(want), len(all))
	}
}
