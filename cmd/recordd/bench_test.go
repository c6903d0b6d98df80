package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchClient keeps one idle connection per benchmark goroutine, so every
// timed request reuses a keep-alive connection instead of dialling.
var benchClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

// drain reads the rest of a response body and closes it; a body closed
// unread cannot return its connection to the keep-alive pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// benchServer starts a service, warms the demo artifact and returns the
// compile endpoint plus a request body compiling by key.
func benchServer(b *testing.B, cfg serverConfig) (string, []byte) {
	b.Helper()
	s, err := newServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	b.Cleanup(ts.Close)

	rtBody, _ := json.Marshal(map[string]string{"model_name": "demo"})
	resp, err := http.Post(ts.URL+"/v1/retarget", "application/json", bytes.NewReader(rtBody))
	if err != nil {
		b.Fatal(err)
	}
	var rt retargetResponse
	err = json.NewDecoder(resp.Body).Decode(&rt)
	drain(resp)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{
		"key":    rt.Key,
		"source": "int a = 2; int b = 3; int y; y = a + b;",
	})
	return ts.URL + "/v1/compile", body
}

// BenchmarkServerCompile measures request latency through the full
// admission + breaker + pool path with ample capacity: the resilience
// layers' overhead on the happy path.
func BenchmarkServerCompile(b *testing.B) {
	url, body := benchServer(b, serverConfig{
		workers: 8, maxQueue: 64, brkWindow: 8, brkRate: 0.5,
	})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := benchClient.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			drain(resp)
		}
	})
}

// BenchmarkServerCompileShed measures the same traffic against a
// deliberately starved pool (one worker, one queue slot): most requests
// shed with 429, so this is the cost of the fast-rejection path — the
// latency an overloaded service imposes on the clients it turns away.
func BenchmarkServerCompileShed(b *testing.B) {
	url, body := benchServer(b, serverConfig{
		workers: 1, maxQueue: 1, brkWindow: 8, brkRate: 0.5,
	})
	b.ReportAllocs()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := benchClient.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				b.Fatalf("status %d", resp.StatusCode)
			}
			drain(resp)
		}
	})
}

// BenchmarkServerCompileQoS measures mixed-priority traffic through the
// weighted QoS scheduler: alternating interactive and batch requests for
// the same (model, program), so the run exercises class parsing, the
// multi-queue dispatch path and duplicate-compile coalescing together.
func BenchmarkServerCompileQoS(b *testing.B) {
	url, body := benchServer(b, serverConfig{
		workers: 8, maxQueue: 64, brkWindow: 8, brkRate: 0.5,
	})
	classes := []string{"interactive", "batch"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Record-Priority", classes[i%len(classes)])
			i++
			resp, err := benchClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			drain(resp)
		}
	})
}
