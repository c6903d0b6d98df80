// Fleet chaos harness: three real recordd processes (re-execed from this
// test binary), each a stateless shard, under a fleet client — then one
// of them is SIGKILLed mid-storm.  The invariants:
//
//   - a node that does not hold a model answers a by-key compile with a
//     typed 404 and a by-name compile by recomputing, byte-identical;
//   - every storm request completes through failover with byte-identical
//     output after the routing primary is SIGKILLed, and a model nobody
//     warmed before the kill compiles on a survivor;
//   - surviving nodes' metrics agree with a quiesced fleet;
//   - the killed node restarts on the same address, recomputes on its
//     first request, and rejoins the client's ring.
//
// Like the single-node chaos harness, `go test -short` skips this.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/rclient"
)

// TestMain lets this test binary double as the recordd executable: a
// child process spawned with RECORDD_FLEET_CHILD=1 runs the real main(),
// so the fleet harness exercises the daemon end to end — flags, signal
// handling, drain — not a test-only approximation.
func TestMain(m *testing.M) {
	if os.Getenv("RECORDD_FLEET_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fleetNode is one child recordd process under test control.
type fleetNode struct {
	id    string
	addr  string // host:port
	url   string
	extra []string // additional flags (e.g. -faultpoints)
	cmd   *exec.Cmd
}

// start launches the child and waits for /healthz to answer.
func (n *fleetNode) start(t *testing.T) {
	t.Helper()
	args := []string{
		"-addr", n.addr,
		"-node-id", n.id,
		"-workers", "2",
		"-drain-timeout", "3s",
	}
	args = append(args, n.extra...)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RECORDD_FLEET_CHILD=1")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting node %s: %v", n.id, err)
	}
	n.cmd = cmd
	t.Cleanup(func() {
		if n.cmd != nil && n.cmd.Process != nil {
			_ = n.cmd.Process.Kill()
			_, _ = n.cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("node %s (%s) did not become healthy", n.id, n.url)
}

// kill SIGKILLs the child — no drain, no goodbye — and reaps it.
func (n *fleetNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing node %s: %v", n.id, err)
	}
	_, _ = n.cmd.Process.Wait()
	n.cmd = nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; the tiny race against other processes is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// scrape fetches a node's /metrics exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startFleet boots three nodes on free loopback ports; extra, when set,
// gives node i additional flags, knowing every node's URL.  It returns
// the nodes and their URLs.
func startFleet(t *testing.T, extra func(urls []string, i int) []string) ([]*fleetNode, []string) {
	t.Helper()
	addrs := freeAddrs(t, 3)
	urls := make([]string, 3)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		nodes[i] = &fleetNode{id: fmt.Sprintf("n%d", i+1), addr: addrs[i], url: urls[i]}
		if extra != nil {
			nodes[i].extra = extra(urls, i)
		}
		nodes[i].start(t)
	}
	return nodes, urls
}

// newChaosFleet is a fleet client with fast retries and no hedging
// (hedging has its own unit tests).
func newChaosFleet(t *testing.T, urls []string) *rclient.Fleet {
	t.Helper()
	fl, err := rclient.NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	fl.Policy.MaxAttempts = 5
	fl.Policy.Base = 50 * time.Millisecond
	fl.Policy.Cap = 500 * time.Millisecond
	fl.HedgeDelay = -1
	return fl
}

// localListing compiles prog in process, the reference a served listing
// must equal byte for byte.
func localListing(t *testing.T, model, prog string) string {
	t.Helper()
	src, ok := models.Get(model)
	if !ok {
		t.Fatalf("bundled model %s missing", model)
	}
	ctx := context.Background()
	tg, err := core.RetargetContext(ctx, src, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tg.CompileSourceContext(ctx, prog, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tg.Listing(res)
}

// metricLine matches an exposition line for name with the given label
// pairs (in any order) and a non-zero value.
func metricLine(body, name string, labels ...string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(line, l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if m := regexp.MustCompile(`\} ([0-9.e+]+)$`).FindStringSubmatch(line); m != nil && m[1] != "0" {
			return true
		}
	}
	return false
}

func TestFleetChaosNodeKillFailover(t *testing.T) {
	skipChaos(t)
	if testing.Verbose() {
		t.Log("booting 3-node fleet")
	}
	nodes, urls := startFleet(t, nil)
	byURL := make(map[string]*fleetNode, 3)
	for _, n := range nodes {
		byURL[n.url] = n
	}
	fl := newChaosFleet(t, urls)

	ctx := context.Background()
	const prog = "int a = 2; int b = 3; int y; y = a + b;"
	demo := rclient.ModelRef{ModelName: "demo"}

	// Retarget through the fleet: the model lands in the memory of the
	// key's ring owner.
	rt, err := fl.Retarget(ctx, demo)
	if err != nil {
		t.Fatalf("fleet retarget: %v", err)
	}

	// The client-side ring and the test agree on replica order because
	// both hash the same endpoint URLs.
	order := fleet.NewRing(fleet.DefaultVirtualNodes, urls...).Successors(rt.Key, 3)
	owner := byURL[order[0]]
	t.Logf("model %.12s… owned by %s", rt.Key, owner.id)

	expected, err := fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	if expected.Cache != "hit" {
		t.Fatalf("reference compile on the owner: %q, want hit", expected.Cache)
	}
	if expected.Listing != localListing(t, "demo", prog) {
		t.Fatal("served listing differs from the in-process compile")
	}

	// A node without the model cannot resolve its key (typed 404, no
	// retry) but recomputes it from the name, byte-identical.
	direct := rclient.NewClient(byURL[order[1]].url)
	var se *rclient.StatusError
	if _, err := direct.Compile(ctx, rclient.ModelRef{Key: rt.Key}, prog, rclient.CompileOptions{}); !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("by-key compile on a non-owner: %v, want a 404", err)
	}
	res, err := direct.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("by-name compile on a non-owner: %v", err)
	}
	if res.Cache != "miss" || res.Listing != expected.Listing {
		t.Fatalf("non-owner recompute: cache %q, identical listing %v", res.Cache, res.Listing == expected.Listing)
	}

	// Storm, with a real SIGKILL of the routing primary mid-batch.  Every
	// request must complete via failover with byte-identical output.
	const storms = 24
	results := make([]*rclient.CompileResult, storms)
	errs := make([]error, storms)
	var wg sync.WaitGroup
	for i := 0; i < storms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 25 * time.Millisecond) // spread across the kill
			results[i], errs[i] = fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	owner.kill(t)
	t.Logf("SIGKILLed %s mid-batch", owner.id)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("storm request %d failed despite failover: %v", i, errs[i])
		}
		if results[i].Listing != expected.Listing || fmt.Sprint(results[i].Words) != fmt.Sprint(expected.Words) {
			t.Fatalf("storm request %d output differs from pre-kill reference", i)
		}
	}

	// A model nobody warmed before the kill compiles on a survivor.
	cold, err := fl.Compile(ctx, rclient.ModelRef{ModelName: "manocpu"}, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("cold model after the kill: %v", err)
	}
	if cold.Listing != localListing(t, "manocpu", prog) {
		t.Fatal("cold model's served listing differs from the in-process compile")
	}

	// Surviving nodes' metrics agree with a quiesced fleet: correct node
	// identity, nothing in flight, nothing queued.
	for _, u := range order[1:] {
		n := byURL[u]
		body := scrape(t, u)
		if !metricLine(body, "record_recordd_node_info", `node="`+n.id+`"`) {
			t.Errorf("node %s does not report its node_info metric", n.id)
		}
		for _, want := range []string{
			"record_recordd_inflight_compiles 0",
			`record_recordd_queue_depth{class="batch"} 0`,
			`record_recordd_queue_depth{class="interactive"} 0`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("node %s not quiesced: missing %q", n.id, want)
			}
		}
	}

	// Revive the killed node on the same address.  It starts empty and
	// recomputes, and the fleet client's ring routes to it again after a
	// probe.
	owner.start(t)
	res, err = rclient.NewClient(owner.url).Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("compile on revived %s: %v", owner.id, err)
	}
	if res.Cache != "miss" || res.Listing != expected.Listing {
		t.Fatalf("revived node: cache %q, identical listing %v", res.Cache, res.Listing == expected.Listing)
	}
	fl.Probe(ctx)
	if st := fl.States()[owner.url]; st != fleet.Healthy {
		t.Fatalf("revived node state %v in client ring, want healthy", st)
	}
	post, err := fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil || post.Listing != expected.Listing {
		t.Fatalf("post-revival fleet compile: %v", err)
	}
}
