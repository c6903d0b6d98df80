package rcache

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPrewarmFromDiskAttribution(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	// Seed the disk tier, then start a fresh instance (cold memory).
	c1 := newCache(t, dir, 0)
	e, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := e.Key

	c2 := newCache(t, dir, 0)
	if c2.InMemory(key) {
		t.Fatal("fresh cache claims key in memory")
	}
	out, err := c2.Prewarm(context.Background(), key, "", core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Disk {
		t.Fatalf("prewarm outcome %s, want %s", out, Disk)
	}
	if !c2.InMemory(key) {
		t.Fatal("prewarm did not land in the memory tier")
	}

	// Nothing pre-warm did shows up in the serving counters.
	st := c2.Stats()
	if st.MemHits != 0 || st.DiskHits != 0 || st.Misses != 0 || st.Retargets != 0 {
		t.Fatalf("prewarm leaked into serving stats: %+v", st)
	}
	if st.PrewarmLoads != 1 || st.PrewarmRetargets != 0 {
		t.Fatalf("prewarm attribution: %+v", st)
	}

	// The first real request is now a memory hit.
	e2, out2, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != Mem || e2.Key != key {
		t.Fatalf("post-prewarm get: %s (key %s)", out2, e2.Key)
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("serving stats after real hit: %+v", st)
	}

	// Prewarming an already-warm key is a cheap no-op.
	if out, err := c2.Prewarm(context.Background(), key, "", core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("warm prewarm: %s, %v", out, err)
	}
}

func TestPrewarmRetargetsFromSource(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	key := c.Key(mdl, core.RetargetOptions{})

	out, err := c.Prewarm(context.Background(), key, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("prewarm outcome %s, want %s (retargeted)", out, Miss)
	}
	if !c.InMemory(key) {
		t.Fatal("retargeting prewarm did not land in memory")
	}
	st := c.Stats()
	if st.Retargets != 0 || st.Misses != 0 {
		t.Fatalf("prewarm retarget counted as serving work: %+v", st)
	}
	if st.PrewarmRetargets != 1 || st.PrewarmLoads != 1 {
		t.Fatalf("prewarm attribution: %+v", st)
	}
	// First real request: memory hit.
	_, out2, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil || out2 != Mem {
		t.Fatalf("post-prewarm get: %s, %v", out2, err)
	}
}

func TestPrewarmNothingToWarmFrom(t *testing.T) {
	c := newCache(t, "", 0)
	key := strings.Repeat("a", 64)
	out, err := c.Prewarm(context.Background(), key, "", core.RetargetOptions{})
	if err != nil || out != Miss {
		t.Fatalf("sourceless prewarm: %s, %v", out, err)
	}
	if c.InMemory(key) || c.Len() != 0 {
		t.Fatal("skipped prewarm inserted something")
	}
	if st := c.Stats(); st.PrewarmLoads != 0 || st.PrewarmRetargets != 0 {
		t.Fatalf("skipped prewarm counted work: %+v", st)
	}
}

func TestPrewarmRejectsBadKeys(t *testing.T) {
	c := newCache(t, "", 0)
	if _, err := c.Prewarm(context.Background(), "../../etc/passwd", "", core.RetargetOptions{}); err == nil {
		t.Fatal("malformed key accepted")
	}
	// A source that addresses a different key is a caller bug, not a
	// silent warm of the wrong artifact.
	mdl := demoModel(t)
	if _, err := c.Prewarm(context.Background(), strings.Repeat("b", 64), mdl, core.RetargetOptions{}); err == nil {
		t.Fatal("mismatched source accepted")
	}
}

func TestPrewarmCoalescesWithRealRequests(t *testing.T) {
	// While a real retarget is in flight, Prewarm for the same key backs
	// off with Coalesced instead of duplicating the work.
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	key := c.Key(mdl, core.RetargetOptions{})

	c.mu.Lock()
	c.flight[key] = &flight{done: make(chan struct{})}
	c.mu.Unlock()
	out, err := c.Prewarm(context.Background(), key, mdl, core.RetargetOptions{})
	if err != nil || out != Coalesced {
		t.Fatalf("prewarm during flight: %s, %v", out, err)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()

	// Conversely, a real GetContext arriving while a prewarm retarget is
	// registered coalesces onto it: run the prewarm, then check the
	// flight bookkeeping emptied and real traffic proceeds.
	if out, err := c.Prewarm(context.Background(), key, mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("prewarm: %s, %v", out, err)
	}
	c.mu.Lock()
	inflight := len(c.flight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d stale flights after prewarm", inflight)
	}
}
