package rclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
)

// fakeNode is a scriptable stand-in for one recordd instance: the test
// swaps its handler after fleet construction, once ring order is known.
type fakeNode struct {
	name    string
	srv     *httptest.Server
	handler atomic.Value // http.HandlerFunc
	hits    atomic.Int64
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	n.handler.Store(okCompileHandler(name))
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		n.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) url() string { return n.srv.URL }

// okCompileHandler answers every compile with a result naming the node,
// so tests can tell which replica won.
func okCompileHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(CompileResult{Key: "k", Name: name, Cache: "hit"})
	}
}

func drainingHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{
			"error": "service draining: retry in 1s",
			"kind":  "draining",
		})
	}
}

// newTestFleet builds a fleet over the nodes with instant retries and
// hedging off (tests that want hedging turn it back on).
func newTestFleet(t *testing.T, nodes ...*fakeNode) *Fleet {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url()
	}
	f, err := NewFleet(urls)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	f.Policy = fastPolicy(3)
	f.HedgeDelay = -1
	return f
}

// byURL finds the fakeNode behind an endpoint URL.
func byURL(t *testing.T, nodes []*fakeNode, url string) *fakeNode {
	t.Helper()
	for _, n := range nodes {
		if n.url() == url {
			return n
		}
	}
	t.Fatalf("no fake node for %s", url)
	return nil
}

func TestFleetRoutesToRingOwner(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	nodes := []*fakeNode{a, b, c}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("ab", 32)}
	order := f.ring.Successors(ref.routeKey(), 3)
	owner := byURL(t, nodes, order[0])

	for i := 0; i < 5; i++ {
		res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if res.Name != owner.name {
			t.Fatalf("request %d answered by %q, want ring owner %q", i, res.Name, owner.name)
		}
	}
	for _, n := range nodes {
		if n != owner && n.hits.Load() != 0 {
			t.Errorf("non-owner %q saw %d requests, want 0", n.name, n.hits.Load())
		}
	}
}

func TestFleetFailoverConnectionRefused(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("cd", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.srv.Close() // connections to the primary now refuse

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with dead primary: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
	}
	if st := f.health.State(order[0]); st == fleet.Healthy {
		t.Fatalf("dead primary still %v, want degraded", st)
	}
	if st := f.health.State(order[1]); st != fleet.Healthy {
		t.Fatalf("backup is %v, want healthy", st)
	}
}

func TestFleetFailoverDraining(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("ef", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.handler.Store(drainingHandler())

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with draining primary: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
	}
	// Failover happens inside one policy attempt: the race walks to the
	// backup without sleeping out the draining node's Retry-After.
	if primary.hits.Load() != 1 || backup.hits.Load() != 1 {
		t.Fatalf("hits primary=%d backup=%d, want 1 and 1",
			primary.hits.Load(), backup.hits.Load())
	}
}

func TestFleetDrainingReconstructedOverWire(t *testing.T) {
	a := newFakeNode(t, "a")
	a.handler.Store(drainingHandler())
	f := newTestFleet(t, a)

	_, err := f.Compile(context.Background(), ModelRef{Key: strings.Repeat("01", 32)}, "x = 1", CompileOptions{})
	if err == nil {
		t.Fatal("Compile against lone draining node succeeded")
	}
	if !resilience.IsDraining(err) {
		t.Fatalf("error %v does not unwrap to DrainingError", err)
	}
	var se *StatusError
	if !asStatusError(err, &se) || se.Kind != "draining" || se.After != time.Second {
		t.Fatalf("got %#v, want draining StatusError with 1s hint", err)
	}
}

func TestFleetFailoverOpenBreaker(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("23", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])

	// Trip the primary's local per-model circuit: default window opens at
	// 4 consecutive failures.
	brk := f.clients[order[0]].Breaker
	for i := 0; i < 4; i++ {
		brk.Record(ref.fingerprint(), false)
	}
	if brk.Allow(ref.fingerprint()) == nil {
		t.Fatal("breaker did not open")
	}

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with open primary breaker: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
	}
	if primary.hits.Load() != 0 {
		t.Fatalf("primary was contacted %d times through an open circuit", primary.hits.Load())
	}
}

func TestFleetCallerErrorDoesNotFailOver(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("45", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown key"})
	}))

	_, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	var se *StatusError
	if !asStatusError(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 StatusError", err)
	}
	if backup.hits.Load() != 0 {
		t.Fatalf("4xx failed over to backup (%d hits)", backup.hits.Load())
	}
	if primary.hits.Load() != 1 {
		t.Fatalf("4xx retried against primary (%d hits)", primary.hits.Load())
	}
	if st := f.health.State(order[0]); st != fleet.Healthy {
		t.Fatalf("4xx degraded primary health to %v", st)
	}
}

func TestFleetHedgedRequestLoserCancelled(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("67", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])

	cancelled := make(chan struct{})
	primaryIn := make(chan struct{})
	primary.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(primaryIn)
		// Drain the body so the server's background read can observe the
		// client abandoning the connection.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			close(cancelled)
		case <-time.After(10 * time.Second):
			t.Error("slow primary was never cancelled")
		}
	}))

	// The hedge must not win before the primary's request has arrived:
	// a race the hedge wins first cancels a leg that never reached its
	// node, and there is nothing left to observe.
	backup.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-primaryIn:
		case <-time.After(5 * time.Second):
			t.Error("primary leg never reached its node")
		}
		okCompileHandler(backup.name)(w, r)
	}))

	// Hedge fires immediately via an injected, pre-fired timer.
	f.HedgeDelay = time.Millisecond
	f.After = func(time.Duration) <-chan time.Time {
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("hedged Compile: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want hedge winner %q", res.Name, backup.name)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing leg was not cancelled")
	}
	started, won := f.Hedges()
	if started != 1 || won != 1 {
		t.Fatalf("hedges started=%d won=%d, want 1 and 1", started, won)
	}
	// Cancellation is not evidence about the slow node's health.
	if st := f.health.State(order[0]); st != fleet.Healthy {
		t.Fatalf("cancelled leg degraded primary health to %v", st)
	}
	if primary.hits.Load() != 1 || backup.hits.Load() != 1 {
		t.Fatalf("hits primary=%d backup=%d, want 1 and 1",
			primary.hits.Load(), backup.hits.Load())
	}
}

func TestFleetAllDownLastResort(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	f := newTestFleet(t, a, b)

	// Mark both endpoints down via the health tracker.
	for _, ep := range f.endpoints {
		for i := 0; i < 3; i++ {
			f.health.Report(ep, false)
		}
		if f.health.State(ep) != fleet.Down {
			t.Fatalf("setup: %s not down", ep)
		}
	}
	// Both nodes actually answer: the last-resort path must still reach
	// them rather than refuse with "no usable endpoints".
	res, err := f.Compile(context.Background(), ModelRef{Key: strings.Repeat("89", 32)}, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with all-down health state: %v", err)
	}
	if res.Name == "" {
		t.Fatal("empty result")
	}
}

func TestFleetRejectsEmptyEndpointList(t *testing.T) {
	if _, err := NewFleet([]string{" ", ""}); err == nil {
		t.Fatal("NewFleet accepted an empty endpoint list")
	}
	f, err := NewFleet([]string{"http://x:1/", "http://x:1"})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if len(f.Endpoints()) != 1 {
		t.Fatalf("duplicates not collapsed: %v", f.Endpoints())
	}
}

func TestLatencyWindowPercentile(t *testing.T) {
	var w latencyWindow
	if _, ok := w.percentile(0.95); ok {
		t.Fatal("percentile available with no samples")
	}
	for i := 1; i <= 100; i++ {
		w.observe(time.Duration(i) * time.Millisecond)
	}
	// Window holds the last 64 samples: 37ms..100ms.
	p, ok := w.percentile(0.95)
	if !ok {
		t.Fatal("percentile unavailable after 100 samples")
	}
	if p < 90*time.Millisecond || p > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want in [90ms, 100ms]", p)
	}
}

func asStatusError(err error, out **StatusError) bool {
	return errors.As(err, out)
}
