package dspstone

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// goldenFile pins the compiled output of every bundled model × every
// kernel × {default, no-compaction, no-peephole}: one line per cell with
// the SHA-256 of the encoded words plus the listing, or the compile error
// text.  Encoding changes must keep every cell byte-identical.
const goldenFile = "testdata/golden.txt"

var goldenVariants = []struct {
	name string
	opts core.CompileOptions
}{
	{"default", core.CompileOptions{}},
	{"no-compaction", core.CompileOptions{NoCompaction: true}},
	{"no-peephole", core.CompileOptions{NoPeephole: true}},
}

// goldenLine renders one cell of the golden file.
func goldenLine(tg *core.Target, model string, k Kernel, variant string, opts core.CompileOptions) string {
	key := fmt.Sprintf("%s %s %s", model, k.Name, variant)
	res, err := tg.CompileSourceContext(context.Background(), k.Source, opts)
	if err != nil {
		return fmt.Sprintf("%s error %q", key, err.Error())
	}
	h := sha256.New()
	for _, w := range res.Words() {
		fmt.Fprintf(h, "%016x\n", w)
	}
	h.Write([]byte(tg.Listing(res)))
	return fmt.Sprintf("%s sha256 %x", key, h.Sum(nil))
}

// TestGoldenDigests compiles the whole grid and compares it line by line
// with the committed golden file.  A mismatch prints the line the current
// code produces; after checking that an output change is intended,
// replace the old line with it by hand.
func TestGoldenDigests(t *testing.T) {
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // "model kernel variant" → line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.SplitN(line, " ", 4)
		if len(fields) < 4 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[strings.Join(fields[:3], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	cells := 0
	for _, m := range models.All() {
		tg, err := core.RetargetContext(context.Background(), m.MDL, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("retarget %s: %v", m.Name, err)
		}
		for _, k := range Suite() {
			for _, v := range goldenVariants {
				cells++
				got := goldenLine(tg, m.Name, k, v.name, v.opts)
				key := fmt.Sprintf("%s %s %s", m.Name, k.Name, v.name)
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no golden line; current output:\n%s", key, got)
				} else if w != got {
					t.Errorf("%s: output changed\n  golden:  %s\n  current: %s", key, w, got)
				}
			}
		}
	}
	if len(want) != cells {
		t.Errorf("%s has %d lines for %d cells", goldenFile, len(want), cells)
	}
}
