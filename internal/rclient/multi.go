package rclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Service is the compile-service surface shared by the single-endpoint
// Client and the multi-endpoint Fleet, so cmd/record speaks to one node
// or a fleet through the same calls.
type Service interface {
	Healthz(ctx context.Context) error
	Retarget(ctx context.Context, ref ModelRef) (*RetargetResult, error)
	Compile(ctx context.Context, ref ModelRef, source string, opts CompileOptions) (*CompileResult, error)
}

var (
	_ Service = (*Client)(nil)
	_ Service = (*Fleet)(nil)
)

// routeKey is the ring shard key for a request: the artifact content
// address when it can be computed client-side, so requests for a model
// land on the node whose cache owns that model's artifact.  Key refs are
// already the content address; inline source and bundled names hash to
// the same SHA-256 the server caches under (with default options —
// a server running non-default options still shards consistently, just
// under a different key than its cache uses).  Unresolvable names fall
// back to the breaker fingerprint: stable routing, arbitrary owner.
func (m ModelRef) routeKey() string {
	switch {
	case m.Key != "":
		return m.Key
	case m.Model != "":
		return artifact.Key(m.Model, core.RetargetOptions{})
	case m.ModelName != "":
		if src, ok := models.Get(m.ModelName); ok {
			return artifact.Key(src, core.RetargetOptions{})
		}
	}
	return m.fingerprint()
}

// Fleet talks to a set of recordd nodes as one service: requests shard
// across the fleet's consistent-hash ring by artifact content address,
// fail over to the next ring replica when a node is down, draining, or
// has an open circuit for the model, and optionally hedge — a second leg
// to the next replica when the first is slow, first answer wins, loser
// cancelled.  Construct with NewFleet.
type Fleet struct {
	// Policy drives cross-endpoint retries.  Each race through the
	// candidate list is one policy attempt; backoff between attempts
	// honors Retry-After hints exactly as the single-endpoint client.
	Policy resilience.Policy
	// HedgeDelay is how long the primary leg may run before a hedge leg
	// starts on the next replica: > 0 is a fixed delay, 0 (the default)
	// adapts to the observed p95 request latency, < 0 disables hedging.
	HedgeDelay time.Duration
	// After is the hedge timer (nil = time.After); injectable for tests.
	After func(d time.Duration) <-chan time.Time

	endpoints []string           // normalized base URLs, stable order
	clients   map[string]*Client // one per endpoint, each with its own breaker
	ring      *fleet.Ring
	health    *fleet.Tracker

	lat               latencyWindow
	hedges, hedgeWins atomic.Uint64

	// Hedge-leg fates beyond wins, so hedge efficacy is measurable
	// without a trace viewer: cancelled legs lost the race to the
	// primary; failed legs errored on their own.
	hedgeCancelled, hedgeFailed atomic.Uint64
}

// NewFleet builds a fleet client over one or more recordd base URLs
// (duplicates and empties dropped).  A single URL degrades gracefully:
// no hedging partner, no failover target, same wire behavior as Client.
func NewFleet(bases []string) (*Fleet, error) {
	seen := make(map[string]bool)
	var eps []string
	for _, b := range bases {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		eps = append(eps, b)
	}
	if len(eps) == 0 {
		return nil, errors.New("rclient: no endpoints")
	}
	f := &Fleet{
		Policy: resilience.Policy{
			MaxAttempts: 4,
			Base:        250 * time.Millisecond,
			Cap:         5 * time.Second,
		},
		endpoints: eps,
		clients:   make(map[string]*Client, len(eps)),
		ring:      fleet.NewRing(fleet.DefaultVirtualNodes, eps...),
		health:    fleet.NewTracker(fleet.TrackerConfig{}),
	}
	for _, ep := range eps {
		c := NewClient(ep)
		// The fleet's Policy owns retries; per-endpoint clients only
		// contribute their transport and per-model breaker.
		c.Policy = resilience.Policy{MaxAttempts: 1}
		f.clients[ep] = c
	}
	return f, nil
}

// Endpoints returns the fleet's endpoints in ring-independent order.
func (f *Fleet) Endpoints() []string { return append([]string(nil), f.endpoints...) }

// SetPriority declares the QoS class ("interactive" or "batch") sent
// with every request from every endpoint client; "" restores the
// server's per-route defaults.  Call before issuing requests.
func (f *Fleet) SetPriority(p string) {
	for _, c := range f.clients {
		c.Priority = p
	}
}

// States snapshots per-endpoint health, every endpoint present.
func (f *Fleet) States() map[string]fleet.State {
	out := make(map[string]fleet.State, len(f.endpoints))
	for _, ep := range f.endpoints {
		out[ep] = f.health.State(ep)
	}
	return out
}

// Hedges returns (hedge legs started, hedge legs that won).
func (f *Fleet) Hedges() (started, won uint64) {
	return f.hedges.Load(), f.hedgeWins.Load()
}

// HedgeOutcomes returns how started hedge legs ended: won the race,
// cancelled as losers, or failed outright.  Legs still in flight are in
// none of the three.
func (f *Fleet) HedgeOutcomes() (won, cancelled, failed uint64) {
	return f.hedgeWins.Load(), f.hedgeCancelled.Load(), f.hedgeFailed.Load()
}

// countHedge records a hedge leg's fate in the fleet's atomics and, when
// the context carries a scope with a registry, in the
// record_rclient_hedge_total counter vec.
func (f *Fleet) countHedge(ctx context.Context, outcome string) {
	switch outcome {
	case "won":
		f.hedgeWins.Add(1)
	case "cancelled":
		f.hedgeCancelled.Add(1)
	case "failed":
		f.hedgeFailed.Add(1)
	}
	obs.ScopeFromContext(ctx).Registry().CounterVec(
		"record_rclient_hedge_total",
		"Hedge request legs by fate: won the race, cancelled as losers, or failed.",
		"outcome").With(outcome).Inc()
}

// Probe health-checks every endpoint once and feeds the outcomes to the
// health tracker, so a dead node is excluded (and a revived one rejoins)
// without waiting for request traffic to discover it.
func (f *Fleet) Probe(ctx context.Context) {
	p := &fleet.Prober{
		Tracker:   f.health,
		Endpoints: f.endpoints,
		Check: func(ctx context.Context, ep string) error {
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			return f.clients[ep].Healthz(pctx)
		},
	}
	p.Once(ctx)
}

// Healthz reports fleet liveness: nil if any endpoint answers healthy.
func (f *Fleet) Healthz(ctx context.Context) error {
	var lastErr error
	ok := false
	for _, ep := range f.endpoints {
		err := f.clients[ep].Healthz(ctx)
		f.health.Report(ep, err == nil)
		if err == nil {
			ok = true
		} else {
			lastErr = err
		}
	}
	if ok {
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("rclient: no endpoints")
	}
	return lastErr
}

// Retarget asks the fleet to retarget to the model; the request lands on
// the ring owner of the model's content address so the artifact is built
// (and cached) where by-key compiles will look for it.
func (f *Fleet) Retarget(ctx context.Context, ref ModelRef) (*RetargetResult, error) {
	in := map[string]string{}
	if ref.Model != "" {
		in["model"] = ref.Model
	}
	if ref.ModelName != "" {
		in["model_name"] = ref.ModelName
	}
	var out RetargetResult
	trace, err := f.call(ctx, ref.routeKey(), ref.fingerprint(), "/v1/retarget", in, &out)
	if err != nil {
		return nil, err
	}
	out.Trace = trace
	return &out, nil
}

// Compile compiles one RecC program against the model, on the model's
// ring owner when it is up and the next replica when it is not.
func (f *Fleet) Compile(ctx context.Context, ref ModelRef, source string, opts CompileOptions) (*CompileResult, error) {
	in := map[string]interface{}{"source": source, "options": opts}
	if ref.Key != "" {
		in["key"] = ref.Key
	}
	if ref.Model != "" {
		in["model"] = ref.Model
	}
	if ref.ModelName != "" {
		in["model_name"] = ref.ModelName
	}
	var out CompileResult
	trace, err := f.call(ctx, ref.routeKey(), ref.fingerprint(), "/v1/compile", in, &out)
	if err != nil {
		return nil, err
	}
	out.Trace = trace
	return &out, nil
}

// call races one request across the shard's replica order under the
// fleet retry policy, decoding the winning body into out and returning
// the trace ID the winning leg's response echoed.
func (f *Fleet) call(ctx context.Context, rkey, bkey, path string, in, out interface{}) (string, error) {
	var trace string
	err := f.Policy.Do(ctx, func(ctx context.Context) error {
		raw, echo, err := f.race(ctx, f.candidates(rkey), bkey, path, in)
		if err != nil {
			return err
		}
		trace = echoTrace(echo)
		return json.Unmarshal(raw, out)
	})
	return trace, err
}

// candidates is the replica order for a shard key: the ring's successor
// walk filtered to usable endpoints.  When health has everything down the
// full ordered list is returned instead — last-resort traffic is how a
// recovered fleet is rediscovered, and strictly better than refusing.
func (f *Fleet) candidates(rkey string) []string {
	ordered := f.ring.Successors(rkey, len(f.endpoints))
	usable := ordered[:0:0]
	for _, ep := range ordered {
		if f.health.Usable(ep) {
			usable = append(usable, ep)
		}
	}
	if len(usable) == 0 {
		return ordered
	}
	return usable
}

type legResult struct {
	raw    []byte
	echo   string // X-Record-Trace the leg's response echoed
	err    error
	hedged bool
}

// race runs the request against cands in order: the first leg starts
// immediately, a failed leg starts the next one, and — when hedging is
// on and a second candidate exists — a hedge timer starts the next leg
// early while the primary is still in flight.  First success wins and
// cancels the rest; a non-failover-worthy error (the request is wrong,
// not the node) returns immediately.
func (f *Fleet) race(ctx context.Context, cands []string, bkey, path string, in interface{}) ([]byte, string, error) {
	if len(cands) == 0 {
		return nil, "", errors.New("rclient: no usable endpoints")
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels every losing leg

	results := make(chan legResult, len(cands))
	started := 0
	startNext := func(hedged bool) bool {
		if started >= len(cands) {
			return false
		}
		ep := cands[started]
		started++
		go func() {
			raw, echo, err := f.leg(hctx, ep, bkey, path, in, hedged)
			results <- legResult{raw: raw, echo: echo, err: err, hedged: hedged}
		}()
		return true
	}

	startNext(false)
	pending := 1
	var hedgeTimer <-chan time.Time
	if d := f.hedgeDelay(); d >= 0 && len(cands) > 1 {
		after := f.After
		if after == nil {
			after = time.After
		}
		hedgeTimer = after(d)
	}

	var lastErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case <-hedgeTimer:
			hedgeTimer = nil
			if startNext(true) {
				pending++
				f.hedges.Add(1)
			}
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedged {
					f.countHedge(ctx, "won")
				}
				return r.raw, r.echo, nil
			}
			lastErr = r.err
			if r.hedged {
				f.countHedge(ctx, "failed")
			}
			if !failoverWorthy(r.err) {
				return nil, "", r.err
			}
			if startNext(false) {
				pending++
			}
		}
	}
	return nil, "", lastErr
}

// leg runs one request against one endpoint, recording the outcome with
// that endpoint's breaker and the fleet health tracker.  A leg cancelled
// by the race (hedge loser, caller gone) reports nothing to either —
// cancellation is not evidence about the node — but a cancelled hedge
// leg does count as a hedge loser.
func (f *Fleet) leg(ctx context.Context, ep, bkey, path string, in interface{}, hedged bool) ([]byte, string, error) {
	c := f.clients[ep]
	if err := c.Breaker.Allow(bkey); err != nil {
		// Local refusal; the node was never contacted.  The race loop
		// does the hedge-failure accounting when it consumes the result.
		return nil, "", fmt.Errorf("%s: %w", ep, err)
	}
	var extra []obs.Attr
	if hedged {
		extra = append(extra, obs.KV("hedge", true))
	}
	start := time.Now()
	raw, echo, err := c.postRaw(ctx, path, in, extra...)
	if err != nil && ctx.Err() != nil {
		if hedged {
			f.countHedge(ctx, "cancelled")
		}
		return nil, "", err
	}
	switch {
	case err == nil:
		c.Breaker.Record(bkey, true)
		f.health.Report(ep, true)
		f.lat.observe(time.Since(start))
	case serverFault(err):
		c.Breaker.Record(bkey, false)
		f.health.Report(ep, false)
	default:
		// 4xx: the node answered; the request is the problem.
		f.health.Report(ep, true)
	}
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", ep, err)
	}
	return raw, echo, nil
}

// failoverWorthy reports whether another replica could answer where this
// one failed: transient statuses, open circuits, and transport failures
// qualify; a rejected request (bad model, bad program) fails the same
// way everywhere.
func failoverWorthy(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Transient()
	}
	if resilience.IsTransient(err) {
		return true // local breaker open, typed resilience refusal
	}
	return true // transport-level failure: connection refused, reset, ...
}

// hedgeDelay resolves the configured hedge posture to a concrete delay:
// negative disables, positive is fixed, zero adapts to the p95 of the
// recent latency window (hedging off until enough samples exist).
func (f *Fleet) hedgeDelay() time.Duration {
	switch {
	case f.HedgeDelay < 0:
		return -1
	case f.HedgeDelay > 0:
		return f.HedgeDelay
	}
	d, ok := f.lat.percentile(0.95)
	if !ok {
		return -1
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

// latencyWindow is a fixed-size ring of recent request latencies feeding
// the adaptive hedge delay.
type latencyWindow struct {
	mu      sync.Mutex
	samples [64]time.Duration
	n       int // total observations; min(n, len) are valid
}

func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.n%len(w.samples)] = d
	w.n++
	w.mu.Unlock()
}

// percentile returns the q-quantile of the window, false until at least
// 8 samples have landed (an adaptive delay from 1–2 points hedges wildly).
func (w *latencyWindow) percentile(q float64) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.n
	if n > len(w.samples) {
		n = len(w.samples)
	}
	if n < 8 {
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, w.samples[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q * float64(n-1))
	return buf[idx], true
}
