// Chaos harness for the resilient compile service: concurrent traffic with
// armed faultpoints, a mid-flight SIGTERM drain and a model that fails
// until its circuit opens.  The invariants under
// test are the resilience model's contract (DESIGN.md "Resilience model"):
//
//   - no accepted request is dropped without an explicit 4xx/5xx status;
//   - SIGTERM loses no in-flight request and the process exits within the
//     drain timeout;
//   - a repeatedly failing model trips its breaker (fast 503s with
//     Retry-After) while other models keep compiling, and recovers through
//     a half-open probe once the fault clears.
//
// These run under -race in the CI chaos job; `go test -short` skips them.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

func skipChaos(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos harness skipped under -short")
	}
}

// rawPost is like post but never fails the test on a non-OK status: the
// chaos invariant is exactly that every request yields SOME status.
func rawPost(url string, body interface{}) (int, http.Header, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.String(), nil
}

// TestChaosFaultedTrafficAlwaysAnswered storms a small faulted server with
// mixed traffic.  Whatever the armed faults do — failed worker spawns,
// broken response encoders, slow extractions — every
// request must come back with an explicit status from the documented set,
// and the service must return to full health once the faults clear.
func TestChaosFaultedTrafficAlwaysAnswered(t *testing.T) {
	skipChaos(t)
	defer faultpoint.Reset()

	_, ts := newTestServer(t, serverConfig{
		workers: 2, maxQueue: 4,
	})
	for _, spec := range []string{
		"recordd.worker.spawn=error*3",
		"recordd.response.encode=error*2",
		"ise.extract=delay:20ms*4",
	} {
		if err := faultpoint.ArmSpec(spec); err != nil {
			t.Fatal(err)
		}
	}

	type shot struct {
		path string
		body interface{}
	}
	shots := []shot{
		{"/v1/compile", map[string]string{"model_name": "demo", "source": "int a = 2; int y; y = a + 1;"}},
		{"/v1/compile", map[string]string{"model_name": "demo", "source": "int a = 1; int y; y = a + ;"}}, // bad program
		{"/v1/retarget", map[string]string{"model_name": "ref"}},
		{"/v1/compile", map[string]string{"key": "nope", "source": "int y; y = 1;"}},
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
		http.StatusInternalServerError: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	}

	const n = 32
	statuses := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := shots[i%len(shots)]
			statuses[i], _, _, errs[i] = rawPost(ts.URL+sh.path, sh.body)
		}(i)
	}
	wg.Wait()

	okCount := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d dropped without a status: %v", i, errs[i])
		}
		if !allowed[statuses[i]] {
			t.Fatalf("request %d: undocumented status %d", i, statuses[i])
		}
		if statuses[i] == http.StatusOK {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no request succeeded under partial faults")
	}

	// Faults cleared: the service is fully healthy again.
	faultpoint.Reset()
	code, _, raw, err := rawPost(ts.URL+"/v1/compile",
		map[string]string{"model_name": "demo", "source": "int a = 2; int y; y = a + 1;"})
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-chaos compile: %d %v %s", code, err, raw)
	}
}

// TestChaosDrainSIGTERM runs the real serve() loop, parks slow requests
// mid-flight, delivers a SIGTERM and asserts the drain contract: every
// in-flight request completes with 200, and serve returns well within the
// drain timeout.
func TestChaosDrainSIGTERM(t *testing.T) {
	skipChaos(t)
	defer faultpoint.Reset()

	s, err := newServer(serverConfig{workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	// Hold extractions mid-flight so the drain has something to wait for.
	if err := faultpoint.ArmSpec("ise.extract=delay:300ms*"); err != nil {
		t.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	var logbuf bytes.Buffer
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ln, s, 5*time.Second, sigs, &logbuf) }()

	const n = 4
	statuses := make([]int, n)
	reqErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _, reqErrs[i] = rawPost(base+"/v1/compile",
				map[string]string{"model_name": "ref", "source": "int a = 2; int y; y = a + 1;"})
		}(i)
	}

	// Let the requests reach the slow extraction, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	sigs <- syscall.SIGTERM

	start := time.Now()
	wg.Wait()
	for i := 0; i < n; i++ {
		if reqErrs[i] != nil {
			t.Fatalf("in-flight request %d dropped by the drain: %v", i, reqErrs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("in-flight request %d finished %d, want 200", i, statuses[i])
		}
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not exit within the drain timeout")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("drain took %v", time.Since(start))
	}
	if !strings.Contains(logbuf.String(), "draining") || !strings.Contains(logbuf.String(), "drained, exiting") {
		t.Fatalf("drain log incomplete:\n%s", logbuf.String())
	}
}

// TestDrainRefusesNewWork covers the drain gate itself, independent of
// socket shutdown timing: once draining, /healthz reports it and new work
// is refused with an explicit 503 + Retry-After.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	s.beginDrain()
	s.beginDrain() // idempotent

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}

	code, hdr, raw, err := rawPost(ts.URL+"/v1/compile",
		map[string]string{"model_name": "demo", "source": "int y; y = 1;"})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || !strings.Contains(raw, "draining") {
		t.Fatalf("draining compile: %d %s, want 503 draining", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining refusal missing Retry-After")
	}
}

// TestChaosBreakerOpensAndRecovers makes one model fail persistently: its
// circuit must open (fast 503s with Retry-After, no pipeline work) while
// another model keeps compiling, then recover through a half-open probe
// once the fault clears.  The breaker metrics must agree with the
// failures the client observed.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	skipChaos(t)
	defer faultpoint.Reset()

	s, ts := newTestServer(t, serverConfig{
		workers: 2, brkWindow: 4, brkRate: 0.5, brkCooldown: 200 * time.Millisecond,
	})
	if err := faultpoint.ArmSpec("ise.extract@tms320c25=error*"); err != nil {
		t.Fatal(err)
	}

	body := map[string]string{"model_name": "tms320c25"}
	var n500, n503 int
	// Failures accumulate until the window trips; then the circuit fails
	// fast without touching the pipeline.
	sawOpen := false
	for i := 0; i < 6; i++ {
		code, hdr, raw, err := rawPost(ts.URL+"/v1/retarget", body)
		if err != nil {
			t.Fatal(err)
		}
		switch code {
		case http.StatusInternalServerError:
			n500++
			if !strings.Contains(raw, "injected fault ise.extract") {
				t.Fatalf("500 without the injected fault: %s", raw)
			}
		case http.StatusServiceUnavailable:
			n503++
			sawOpen = true
			if hdr.Get("Retry-After") == "" {
				t.Fatalf("open-circuit 503 missing Retry-After: %s", raw)
			}
			if !strings.Contains(raw, "circuit open") {
				t.Fatalf("open-circuit 503 body: %s", raw)
			}
		default:
			t.Fatalf("attempt %d: status %d: %s", i, code, raw)
		}
	}
	if !sawOpen {
		t.Fatalf("circuit never opened after %d failures", n500)
	}

	// The broken model's open circuit does not affect other models.
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("healthy model collateral damage: %d %s", code, raw)
	}

	// Fault cleared + cooldown elapsed: the half-open probe closes the
	// circuit again.
	faultpoint.Disarm("ise.extract")
	time.Sleep(250 * time.Millisecond)
	if code, _, raw, err := rawPost(ts.URL+"/v1/retarget", body); err != nil || code != http.StatusOK {
		t.Fatalf("recovery probe: %d %v %s", code, err, raw)
	}

	// Metrics agree with what the client saw.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = io.Copy(&buf, resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"record_recordd_breaker_opens_total 1",
		fmt.Sprintf("record_recordd_breaker_rejections_total %d", n503),
		fmt.Sprintf(`record_recordd_errors_total{status="500"} %d`, n500),
		fmt.Sprintf(`record_recordd_errors_total{status="503"} %d`, n503),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	_ = s
}
