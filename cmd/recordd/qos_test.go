package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/models"
	"repro/internal/qos"
)

// postPriority is rawPost with an X-Record-Priority header (empty =
// no header, the server's per-route default applies).
func postPriority(url, priority string, body interface{}) (int, http.Header, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, "", err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if priority != "" {
		req.Header.Set("X-Record-Priority", priority)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.String(), nil
}

// waitCond polls cond until it holds or the test deadline budget runs out.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQoSMixedPriorityStorm is the priority-class acceptance test: with
// the pool saturated by a batch flood, interactive traffic must displace
// queued batch work and complete, and every shed must land on the batch
// class — zero interactive requests refused.
func TestQoSMixedPriorityStorm(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, maxQueue: 4})

	// Warm the cache so no queued request needs a retarget.
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}

	// Occupy the only worker slot for the whole storm.
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}

	// Batch flood: 12 distinct programs (distinct so none coalesce).
	// With the slot held, 4 queue and the remaining 8 shed immediately.
	const flood, queueCap = 12, 4
	batchCodes := make(chan int, flood)
	for i := 0; i < flood; i++ {
		go func(i int) {
			code, _, _, err := postPriority(ts.URL+"/v1/compile", "batch", map[string]interface{}{
				"model_name": "demo",
				"source":     fmt.Sprintf("int a = %d; int y; y = a + 1;", i+2),
			})
			if err != nil {
				code = -1
			}
			batchCodes <- code
		}(i)
	}
	waitCond(t, "batch flood to fill the queue", func() bool {
		return s.sched.Depth(qos.Batch) == queueCap && s.sched.Shed(qos.Batch) == flood-queueCap
	})

	// Interactive trickle: each arrival finds the queue full, evicts the
	// newest queued batch waiter and takes its place.
	const trickle = 4
	iCodes := make(chan int, trickle)
	for i := 0; i < trickle; i++ {
		go func(i int) {
			code, _, _, err := postPriority(ts.URL+"/v1/compile", "interactive", map[string]interface{}{
				"model_name": "demo",
				"source":     fmt.Sprintf("int b = %d; int y; y = b + 2;", i+2),
			})
			if err != nil {
				code = -1
			}
			iCodes <- code
		}(i)
		waitCond(t, "interactive request to displace a batch waiter", func() bool {
			return s.sched.Depth(qos.Interactive) == i+1
		})
	}
	if d := s.sched.Depth(qos.Batch); d != 0 {
		t.Fatalf("batch depth %d after interactive displacement, want 0", d)
	}

	// Free the slot: the queued interactive work drains and completes.
	hold()
	for i := 0; i < trickle; i++ {
		if code := <-iCodes; code != http.StatusOK {
			t.Fatalf("interactive request finished %d, want 200", code)
		}
	}
	for i := 0; i < flood; i++ {
		if code := <-batchCodes; code != http.StatusTooManyRequests {
			t.Fatalf("batch request finished %d, want 429", code)
		}
	}

	// Every shed was a batch shed.
	if got := s.sched.Shed(qos.Interactive); got != 0 {
		t.Fatalf("interactive sheds = %d, want 0", got)
	}
	if got := s.sched.Shed(qos.Batch); got != flood {
		t.Fatalf("batch sheds = %d, want %d", got, flood)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`record_recordd_shed_total{class="batch"} 12`,
		`record_recordd_shed_total{class="interactive"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQoSCompileCoalescing asserts the thundering-herd contract: N
// identical compiles queued at once cost exactly one underlying
// execution, and every caller receives byte-identical bytes.
func TestQoSCompileCoalescing(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}

	const dup = 6
	prog := "int a = 2; int b = 3; int y; y = a * b;"
	type reply struct {
		code int
		body string
	}
	replies := make(chan reply, dup)
	for i := 0; i < dup; i++ {
		go func() {
			code, _, raw, err := postPriority(ts.URL+"/v1/compile", "", map[string]interface{}{
				"model_name": "demo", "source": prog,
			})
			if err != nil {
				code = -1
			}
			replies <- reply{code, raw}
		}()
	}
	// One leader queues for the held slot; the duplicates join its flight
	// without ever entering the scheduler.
	waitCond(t, "duplicates to coalesce onto the leader", func() bool {
		return s.sched.Queued() == 1 && s.coal.Merged() == dup-1
	})
	base := s.sched.Dispatched(qos.Interactive)

	hold()
	var first string
	for i := 0; i < dup; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("coalesced compile finished %d: %s", r.code, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatalf("coalesced responses differ:\n%q\nvs\n%q", r.body, first)
		}
	}

	// Exactly one slot grant ran the compile; the rest were merged.
	if got := s.sched.Dispatched(qos.Interactive) - base; got != 1 {
		t.Fatalf("underlying executions = %d, want 1", got)
	}
	if got := s.coal.Merged(); got != dup-1 {
		t.Fatalf("merged = %d, want %d", got, dup-1)
	}
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body,
		fmt.Sprintf("record_recordd_qos_coalesced_total %d", dup-1)) {
		t.Errorf("coalescing counter missing from metrics:\n%s", body)
	}
}

// TestQoSPriorityHeaderGarbage: whatever a client puts in
// X-Record-Priority, the request is served — garbage degrades to the
// route default, it can never become an error.
func TestQoSPriorityHeaderGarbage(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	for _, hdr := range []string{
		"", "interactive", "batch", "BATCH", " Interactive ", "urgent",
		"batch;q=1", "0", strings.Repeat("x", 4096), "ínterâctive",
	} {
		code, _, raw, err := postPriority(ts.URL+"/v1/compile", hdr, map[string]interface{}{
			"model_name": "demo", "source": "int a = 2; int y; y = a;",
		})
		if err != nil {
			t.Fatalf("header %q: %v", hdr, err)
		}
		if code != http.StatusOK {
			t.Errorf("header %q: status %d, want 200 (%s)", hdr, code, raw)
		}
	}

	// A well-formed "batch" header actually routes to the batch class.
	before := s.sched.Dispatched(qos.Batch)
	if code, _, raw, err := postPriority(ts.URL+"/v1/compile", "batch", map[string]interface{}{
		"model_name": "demo", "source": "int a = 3; int y; y = a;",
	}); err != nil || code != http.StatusOK {
		t.Fatalf("batch-class compile: %d %s %v", code, raw, err)
	}
	if got := s.sched.Dispatched(qos.Batch) - before; got != 1 {
		t.Fatalf("batch dispatches = %d, want 1", got)
	}
}

// demoKey returns the bundled demo model's source and content address.
func demoKey(t *testing.T, s *server) (string, string) {
	t.Helper()
	src, ok := models.Get("demo")
	if !ok {
		t.Fatal("bundled model demo missing")
	}
	return src, s.cache.Key(src, core.RetargetOptions{})
}

// TestQoSPrewarmServesFromMemory is the pre-warm acceptance test: a hot
// model that is not in memory is retargeted from its source by a sweep,
// serves its first external request from the memory tier, and the
// pre-warm work is attributed to its own counters so the serving
// hit-rate is not inflated.
func TestQoSPrewarmServesFromMemory(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{prewarmEvery: time.Hour})
	src, key := demoKey(t, s)
	if s.cache.InMemory(key) {
		t.Fatal("fresh instance claims the model in memory")
	}
	s.pop.Touch(key, src)
	if n := s.prewarmer.Sweep(context.Background()); n != 1 {
		t.Fatalf("sweep warmed %d models, want 1", n)
	}
	if !s.cache.InMemory(key) {
		t.Fatal("sweep did not land the model in memory")
	}

	// The first external request is a memory hit.
	var cp compileResponse
	code, raw := post(t, ts.URL+"/v1/compile", map[string]interface{}{
		"key": key, "source": "int a = 2; int y; y = a + 1;",
	}, &cp)
	if code != http.StatusOK {
		t.Fatalf("post-prewarm compile: %d %s", code, raw)
	}
	if cp.Cache != "hit" {
		t.Fatalf("post-prewarm compile served from %q, want hit (memory)", cp.Cache)
	}

	// Attribution: the pre-warm shows up only in its own counters.
	st := s.cache.Stats()
	if st.PrewarmLoads != 1 || st.PrewarmRetargets != 1 {
		t.Fatalf("prewarm loads/retargets = %d/%d, want 1/1 (%+v)", st.PrewarmLoads, st.PrewarmRetargets, st)
	}
	if st.MemHits != 1 || st.Misses != 0 || st.Retargets != 0 {
		t.Fatalf("serving stats inflated by prewarm: %+v", st)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`record_rcache_prewarm_total{outcome="retargeted"} 1`,
		`record_rcache_hits_total{tier="mem"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQoSPrewarmFaultpoint: an armed recordd.prewarm.retarget fault
// makes the sweep count an error and warm nothing; once cleared, the
// next sweep succeeds — pre-warm failures never escalate.
func TestQoSPrewarmFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	s, _ := newTestServer(t, serverConfig{prewarmEvery: time.Hour})
	src, key := demoKey(t, s)
	s.pop.Touch(key, src)
	faultpoint.Arm("recordd.prewarm.retarget", faultpoint.Action{Kind: faultpoint.KindError})
	if n := s.prewarmer.Sweep(context.Background()); n != 0 {
		t.Fatalf("faulted sweep warmed %d models, want 0", n)
	}
	if s.cache.InMemory(key) {
		t.Fatal("faulted sweep warmed the model anyway")
	}
	if _, _, _, errs := s.prewarmer.Stats(); errs != 1 {
		t.Fatalf("sweep errors = %d, want 1", errs)
	}
	// The fault fired once and disarmed; the next sweep recovers.
	if n := s.prewarmer.Sweep(context.Background()); n != 1 {
		t.Fatalf("post-fault sweep warmed %d models, want 1", n)
	}
	if !s.cache.InMemory(key) {
		t.Fatal("post-fault sweep did not warm the model")
	}
}

// scrapeMetrics fetches /metrics as text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
