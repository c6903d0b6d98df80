package rcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dspstone"
	"repro/internal/faultpoint"
	"repro/internal/models"
)

func demoModel(t testing.TB) string {
	t.Helper()
	mdl, ok := models.Get("demo")
	if !ok {
		t.Fatal("demo model missing")
	}
	return mdl
}

func newCache(t testing.TB, dir string, max int) *Cache {
	t.Helper()
	c, err := New(Options{Dir: dir, MaxEntries: max})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMemoryTier(t *testing.T) {
	c := newCache(t, "", 0) // memory-only
	mdl := demoModel(t)

	e1, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("first get: %s, want miss", out)
	}
	e2, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Mem || e2 != e1 {
		t.Fatalf("second get: %s (same entry: %t), want memory hit of same entry", out, e2 == e1)
	}
	st := c.Stats()
	if st.Retargets != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDiskTierAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	c1 := newCache(t, dir, 0)
	if _, out, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("warm: %v %s", err, out)
	}

	// A fresh cache (new process) finds the artifact on disk.
	c2 := newCache(t, dir, 0)
	e, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Disk {
		t.Fatalf("fresh instance: %s, want disk hit", out)
	}
	if c2.Stats().Retargets != 0 {
		t.Fatal("disk hit still retargeted")
	}
	// The decoded target compiles.
	res, err := e.Compile(context.Background(), "int a = 2; int b = 3; int y; y = a + b;", core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CodeLen() == 0 {
		t.Fatal("empty program from disk-tier target")
	}
}

func TestCorruptAndTruncatedArtifacts(t *testing.T) {
	mdl := demoModel(t)
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"garbage":   func([]byte) []byte { return []byte("recordart 1 feedface\nnot json") },
		"empty":     func([]byte) []byte { return nil },
		"bitflip": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-5] ^= 1
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := newCache(t, dir, 0)
			if _, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
				t.Fatal(err)
			}
			key := c1.Key(mdl, core.RetargetOptions{})
			path := filepath.Join(dir, key+".rart")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			rep := diag.NewReporter()
			c2, err := New(Options{Dir: dir, Reporter: rep})
			if err != nil {
				t.Fatal(err)
			}
			_, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
			if err != nil {
				t.Fatalf("corrupt artifact became an error: %v", err)
			}
			if out != Miss {
				t.Fatalf("corrupt artifact: %s, want miss", out)
			}
			st := c2.Stats()
			if st.Corrupt != 1 || st.Retargets != 1 {
				t.Fatalf("stats %+v", st)
			}
			if rep.Warns() == 0 {
				t.Fatal("no corruption warning reported")
			}
			found := false
			for _, d := range rep.Diags() {
				if strings.Contains(d.Msg, "corrupt") {
					found = true
				}
			}
			if !found {
				t.Fatalf("warning does not mention corruption: %v", rep.Diags())
			}
			// The bad file was replaced by a good one.
			c3 := newCache(t, dir, 0)
			if _, out, err := c3.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Disk {
				t.Fatalf("store not repaired: %v %s", err, out)
			}
		})
	}
}

// TestStaleFormatVersionIsMiss stores a validly framed version-2 artifact
// (header and checksum intact) under the current content address: the
// cache must treat it as a miss, retarget, and compile the same words as a
// fresh target.
func TestStaleFormatVersionIsMiss(t *testing.T) {
	mdl := demoModel(t)
	ropts := core.RetargetOptions{}
	k, _ := dspstone.Get("dot_product")
	fresh, err := core.RetargetContext(context.Background(), mdl, ropts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	a, err := artifact.New(fresh, mdl, ropts)
	if err != nil {
		t.Fatal(err)
	}
	a.Format = 2 // Encode frames the payload with a.Format in the header
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := newCache(t, dir, 0)
	if err := os.WriteFile(filepath.Join(dir, c.Key(mdl, ropts)+".rart"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, out, err := c.GetContext(context.Background(), mdl, ropts)
	if err != nil {
		t.Fatalf("stale artifact became an error: %v", err)
	}
	if out != Miss || c.Stats().Retargets != 1 {
		t.Fatalf("stale artifact: %s after %d retargets, want miss after 1", out, c.Stats().Retargets)
	}
	got, err := e.Compile(context.Background(), k.Source, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Words(), want.Words()) {
		t.Fatalf("words after stale miss differ from a fresh target:\n got %x\nwant %x", got.Words(), want.Words())
	}
	// The retarget replaced the stale file with a current one.
	if _, out, err := newCache(t, dir, 0).GetContext(context.Background(), mdl, ropts); err != nil || out != Disk {
		t.Fatalf("stale file not replaced: %v %s", err, out)
	}
}

func TestSingleflight(t *testing.T) {
	c := newCache(t, t.TempDir(), 0)
	mdl := demoModel(t)

	const n = 16
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _, errs[i] = c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if entries[i] == nil {
			t.Fatalf("request %d got nil entry", i)
		}
	}
	if got := c.Stats().Retargets; got != 1 {
		t.Fatalf("%d concurrent gets ran %d retargets, want 1", n, got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, "", 2)
	// Distinct keys via distinct option fingerprints on one model.
	mdl := demoModel(t)
	get := func(maxAlts int) {
		opts := core.RetargetOptions{}
		opts.ISE.MaxAlts = maxAlts
		if _, _, err := c.GetContext(context.Background(), mdl, opts); err != nil {
			t.Fatal(err)
		}
	}
	get(100)
	get(101)
	get(102) // evicts the first
	if c.Len() != 2 {
		t.Fatalf("memory tier holds %d entries, cap 2", c.Len())
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions %d, want 1", c.Stats().Evictions)
	}
	get(100) // must retarget again (memory-only cache)
	if got := c.Stats().Retargets; got != 4 {
		t.Fatalf("retargets %d, want 4", got)
	}
}

func TestLookupByKey(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)
	c1 := newCache(t, dir, 0)
	e, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if _, out, ok := c1.Lookup("no-such-key"); ok || out != Miss {
		t.Fatalf("unknown key resolved (%s)", out)
	}
	if got, out, ok := c1.Lookup(e.Key); !ok || got != e || out != Mem {
		t.Fatalf("memory lookup failed (%s)", out)
	}
	c2 := newCache(t, dir, 0)
	if _, out, ok := c2.Lookup(e.Key); !ok || out != Disk {
		t.Fatalf("disk lookup failed (%s)", out)
	}
}

func TestDistinctModelsDistinctEntries(t *testing.T) {
	c := newCache(t, "", 0)
	var keys []string
	for _, name := range []string{"demo", "ref"} {
		mdl, ok := models.Get(name)
		if !ok {
			t.Fatalf("model %s missing", name)
		}
		e, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e.Key)
	}
	if keys[0] == keys[1] {
		t.Fatal("different models share a content address")
	}
	if c.Len() != 2 {
		t.Fatalf("expected 2 entries, got %d", c.Len())
	}
}

func TestConcurrentCompilesOneEntry(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	e, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := "int a = 2; int b = 3; int y; y = a + b;"
	ref, err := e.Compile(context.Background(), src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Compile(context.Background(), src, core.CompileOptions{})
			if err != nil {
				panic(err)
			}
			if fmt.Sprint(res.Words()) != fmt.Sprint(ref.Words()) {
				panic("concurrent compile produced different words")
			}
		}()
	}
	wg.Wait()
}

func TestRecoveryScanRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	// Simulate a process killed mid-store: a torn temp file next to a
	// valid artifact.
	c1 := newCache(t, dir, 0)
	if _, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".deadbeef.tmp123456")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newCache(t, dir, 0)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan survived the recovery scan: %v", err)
	}
	if got := c2.Stats().Orphans; got != 1 {
		t.Fatalf("orphans recovered = %d, want 1", got)
	}
	// The valid artifact next to it is untouched.
	if _, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Disk {
		t.Fatalf("after recovery: %v %s, want disk hit", err, out)
	}
}

func TestStoreFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	faultpoint.Arm("rcache.disk.write", faultpoint.Action{Kind: faultpoint.KindError})
	defer faultpoint.Reset()

	rep := diag.NewReporter()
	c, err := New(Options{Dir: dir, Reporter: rep})
	if err != nil {
		t.Fatal(err)
	}
	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("get through store failure: %v %s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("failed store left %s behind", e.Name())
	}
	if rep.Warns() == 0 {
		t.Fatal("store failure produced no warning")
	}
	if c.Degraded() {
		t.Fatal("an injected one-off error must not disable the disk tier")
	}
	if got := c.Stats().DiskFails; got != 1 {
		t.Fatalf("disk failures = %d, want 1", got)
	}
}

func TestDiskDegradationToMemoryOnly(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("read-only directories do not bind as root")
	}
	dir := t.TempDir()
	mdl := demoModel(t)

	rep := diag.NewReporter()
	c, err := New(Options{Dir: dir, Reporter: rep})
	if err != nil {
		t.Fatal(err)
	}
	// Make the store unwritable after New succeeded, as if the disk went
	// read-only under a running service.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("get on read-only disk: %v %s", err, out)
	}
	if !c.Degraded() {
		t.Fatal("read-only store did not degrade the disk tier")
	}
	warns := rep.Warns()
	if warns == 0 {
		t.Fatal("degradation produced no warning")
	}
	// Further traffic works memory-only and does not warn again.
	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("degraded get: %v %s, want memory hit", err, out)
	}
	if _, _, err := c.GetContext(context.Background(), mdl+" ", core.RetargetOptions{}); err != nil {
		t.Fatalf("degraded miss: %v", err)
	}
	if got := rep.Warns(); got != warns {
		t.Fatalf("degradation warned %d more times; want exactly one warning", got-warns)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close on degraded cache: %v", err)
	}
}

func TestCloseFlushesDir(t *testing.T) {
	dir := t.TempDir()
	c := newCache(t, dir, 0)
	if _, _, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close holds no handles: the cache keeps working.
	if _, out, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("get after Close: %v %s", err, out)
	}
}

func TestDiskFailENOSPCDegrades(t *testing.T) {
	rep := diag.NewReporter()
	c, err := New(Options{Dir: t.TempDir(), Reporter: rep})
	if err != nil {
		t.Fatal(err)
	}
	full := &os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}
	c.diskFail("k1", full)
	if !c.Degraded() {
		t.Fatal("ENOSPC did not degrade the disk tier")
	}
	warns := rep.Warns()
	c.diskFail("k2", full)
	if rep.Warns() != warns {
		t.Fatal("degradation warned more than once")
	}
	if got := c.Stats().DiskFails; got != 2 {
		t.Fatalf("disk failures = %d, want 2", got)
	}
	if e := c.loadDisk("k1"); e != nil {
		t.Fatal("degraded cache still reads disk")
	}
}
