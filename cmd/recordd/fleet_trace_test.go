// Fleet trace assembly: one traced compile crosses real recordd processes
// through rclient.Fleet failover — the model's ring owner fails its first
// request (an armed worker-spawn fault, 500), the client fails over to the
// next replica, which recomputes — and every hop records spans under the
// client's single trace ID.  cmd/tracefuse's library then joins the span
// rings (client + nodes) into one Chrome trace with a pid lane per process.
//
// Runs under the fleet chaos harness's child re-exec; `go test -short`
// skips it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rclient"
	"repro/internal/tracefuse"
)

func TestFleetChaosTraceAssembly(t *testing.T) {
	skipChaos(t)

	// The key is computable without retargeting, and the client's ring
	// is a pure function of the URLs, so the test knows the failover
	// order before any node starts: the owner gets the fault.
	src, ok := models.Get("demo")
	if !ok {
		t.Fatal("bundled model demo missing")
	}
	key := artifact.Key(src, core.RetargetOptions{})
	var order []string
	nodes, urls := startFleet(t, func(urls []string, i int) []string {
		order = fleet.NewRing(fleet.DefaultVirtualNodes, urls...).Successors(key, 2)
		if urls[i] == order[0] {
			// Fires once: the first request on the owner fails with 500.
			return []string{"-faultpoints", "recordd.worker.spawn=error"}
		}
		return nil
	})
	t.Logf("model %.12s…: first leg fails on %s, fails over to %s", key, order[0], order[1])

	// The traced compile: a client-side root span rides the context into
	// the fleet client, whose every leg ships the trace in X-Record-Trace.
	ctx := context.Background()
	tracer := obs.NewTracer()
	root, scope := obs.NewScope(obs.NewRegistry(), tracer).Start("record.run")
	res, err := newChaosFleet(t, urls).Compile(obs.ContextWithScope(ctx, scope),
		rclient.ModelRef{ModelName: "demo"}, "int a = 2; int b = 3; int y; y = a + b;",
		rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("traced compile: %v", err)
	}
	tid := root.Context().Trace.String()
	root.End()
	if res.Cache != "miss" {
		t.Fatalf("compile outcome %q, want miss (recomputed on the failover node)", res.Cache)
	}
	if res.Trace != tid {
		t.Fatalf("response echoed trace %q, want the client root %q", res.Trace, tid)
	}

	// Every process on the path holds a piece of the same trace: the
	// client ring plus both legs' node rings fetched over /v1/debug/spans.
	dumps := []obs.SpanDump{tracer.Dump("client")}
	fetched, err := tracefuse.Fetch(ctx, nil, order)
	if err != nil {
		t.Fatal(err)
	}
	dumps = append(dumps, fetched...)
	for _, d := range dumps {
		found := false
		for _, rec := range d.Spans {
			if rec.Trace == tid {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("node %s has no span under trace %s", d.Node, tid)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Fusion joins the rings into one Chrome trace with a pid lane per
	// process.
	fused, err := tracefuse.Fuse(dumps, tracefuse.Options{Trace: tid})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fused.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	lanes := map[string]bool{}
	spansByPid := map[int]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[ev.Args["name"].(string)] = true
			continue
		}
		spansByPid[ev.Pid]++
	}
	want := []string{"client"}
	for _, n := range nodes {
		if n.url == order[0] || n.url == order[1] {
			want = append(want, n.id)
		}
	}
	for _, w := range want {
		if !lanes[w] {
			t.Errorf("fused trace lacks a pid lane for %s (lanes: %v)", w, lanes)
		}
	}
	if len(spansByPid) != len(want) {
		t.Errorf("spans landed in %d pid lanes, want %d: %v", len(spansByPid), len(want), spansByPid)
	}
}
