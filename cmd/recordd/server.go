package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/rcache"
	"repro/internal/resilience"
)

// serverConfig tunes one daemon instance.
type serverConfig struct {
	cacheSize   int
	workers     int           // bounded worker pool for retarget/compile work (0 = NumCPU)
	timeout     time.Duration // per-request wall-clock budget (0 = unlimited)
	maxBDDNodes int           // per-request BDD node cap (0 = unlimited)
	maxRoutes   int           // per-request route cap (0 = phase default)
	maxBody     int64         // request body cap in bytes

	maxQueue    int           // admission bound on pool-slot waiters (0 = unlimited)
	brkWindow   int           // breaker outcome window per model (0 = breaker off)
	brkRate     float64       // breaker failure-rate threshold
	brkCooldown time.Duration // breaker open -> half-open cooldown

	qosWeights   [qos.NumClasses]int // per-class dispatch weights (0 = qos defaults)
	prewarmEvery time.Duration       // speculative pre-warm sweep interval (0 = off)

	nodeID string // fleet identity: /healthz field + node metric label

	traceSpans int // span-ring bound for the request tracer (0 = default)

	sloTargets map[string]time.Duration // per-route latency objectives (nil = defaults)

	brkClock func() time.Time // injectable breaker clock (tests); nil = time.Now
}

// Fixed service tuning: the SLO good-event objective and burn-rate
// windows, and the hot models each pre-warm sweep considers.
const (
	sloAvailability = 0.999
	sloFastWindow   = time.Minute
	sloSlowWindow   = 10 * time.Minute
	prewarmTop      = 4
)

// defaultSLOTargets are the per-route latency objectives: a compile
// should be interactive, a retarget may legitimately run the full
// pipeline.
func defaultSLOTargets() map[string]time.Duration {
	return map[string]time.Duration{
		"retarget": 60 * time.Second,
		"compile":  500 * time.Millisecond,
		"batch":    10 * time.Second,
	}
}

func (c serverConfig) withDefaults() serverConfig {
	if c.workers <= 0 {
		c.workers = runtime.NumCPU()
	}
	if c.cacheSize <= 0 {
		c.cacheSize = rcache.DefaultMaxEntries
	}
	if c.maxBody <= 0 {
		c.maxBody = 4 << 20
	}
	if c.nodeID == "" {
		c.nodeID = "recordd"
	}
	if c.traceSpans <= 0 {
		c.traceSpans = 4096
	}
	if c.sloTargets == nil {
		c.sloTargets = defaultSLOTargets()
	}
	return c
}

// server is the recordd HTTP service: a memory cache of retargeted
// models behind /v1/retarget, /v1/compile and /v1/compile-batch, with
// health and metrics endpoints.  Targets are frozen, so compiles against one entry
// run genuinely in parallel — the worker pool bounds CPU, not correctness.
//
// The service protects itself (internal/resilience + internal/qos): the
// QoS scheduler owns the worker slots — weighted multi-queue admission
// over interactive/batch priority classes sheds with 429 + Retry-After
// once the backlog exceeds -max-queue (batch first, always), duplicate
// /v1/compile requests coalesce into one execution, and idle capacity
// speculatively pre-warms hot models.  A per-model circuit breaker turns
// a repeatedly failing model into fast 503s instead of burnt retarget
// workers, and beginDrain flips the whole surface into refusal mode so
// shutdown finishes in-flight work and nothing is dropped without an
// explicit status.
//
// All counters and gauges live in one obs.Registry: the cache and the
// compile pipeline register their own instruments against it, the
// request-handling instruments below are the server's, and /metrics is a
// plain registry scrape — the server keeps no metric state of its own.
type server struct {
	cfg   serverConfig
	cache *rcache.Cache

	sched     *qos.Scheduler // worker slots + per-class admission
	coal      *qos.Coalescer // duplicate /v1/compile merging
	pop       *qos.Popularity
	prewarmer *qos.Prewarmer

	brk      *resilience.Breaker
	drainCh  chan struct{} // closed when draining starts
	draining atomic.Bool

	reg    *obs.Registry
	scp    *obs.Scope      // registry-only scope for work outside any request
	tracer *obs.Tracer     // bounded span ring served at /v1/debug/spans
	slo    *obs.SLOTracker // per-route burn-rate monitor

	gInflight     *obs.Gauge        // compiles currently executing
	gTargInflight *obs.GaugeVec     // by artifact key; series dropped at zero
	hPhase        *obs.HistogramVec // request-handling latency by phase

	gQueue        *obs.GaugeVec   // queued waiters, by priority class
	gDraining     *obs.Gauge      // 1 while draining
	cShed         *obs.CounterVec // requests shed by admission, by class
	cDispatched   *obs.CounterVec // pool slots granted, by class
	cCoalesced    *obs.Counter    // duplicate compiles answered from a leader's run
	cPrewarmSweep *obs.Counter    // pre-warm sweeps run
	cBrkOpens     *obs.Counter    // breaker trips to open
	cBrkReject    *obs.Counter    // requests refused by an open circuit
	cErrors       *obs.CounterVec // error responses, by status
	cAborts       *obs.Counter    // client disconnects before a response

	// targMu serializes the zero-check-then-delete on gTargInflight so a
	// concurrent Inc cannot land between Dec and Delete.
	targMu sync.Mutex
}

func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	scp := obs.NewScope(reg, nil)
	// Memory only: a retarget is a pure function of (model, options), so
	// a miss recomputes — cheaper than decoding a stored artifact.
	cache, err := rcache.New(rcache.Options{MaxEntries: cfg.cacheSize, Obs: scp})
	if err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(
		obs.WithMaxSpans(cfg.traceSpans),
		obs.WithDropCounter(reg.Counter("record_obs_spans_dropped_total",
			"spans overwritten past the tracer ring bound")))
	s := &server{
		cfg:     cfg,
		cache:   cache,
		coal:    &qos.Coalescer{},
		drainCh: make(chan struct{}),
		reg:     reg,
		scp:     scp,
		tracer:  tracer,
		slo: obs.NewSLOTracker(reg, "record_recordd_slo", obs.SLOConfig{
			Targets:      cfg.sloTargets,
			Availability: sloAvailability,
			FastWindow:   sloFastWindow,
			SlowWindow:   sloSlowWindow,
		}),
		gInflight: reg.Gauge("record_recordd_inflight_compiles",
			"compiles currently executing"),
		gTargInflight: reg.GaugeVec("record_recordd_target_inflight_compiles",
			"compiles currently executing, by artifact key", "key"),
		hPhase: reg.HistogramVec("record_recordd_phase_seconds",
			"request-handling latency by phase", nil, "phase"),
		gQueue: reg.GaugeVec("record_recordd_queue_depth",
			"requests waiting for a worker-pool slot, by priority class", "class"),
		gDraining: reg.Gauge("record_recordd_draining",
			"1 while the service is draining"),
		cShed: reg.CounterVec("record_recordd_shed_total",
			"requests shed by admission control (429), by priority class", "class"),
		cDispatched: reg.CounterVec("record_recordd_dispatched_total",
			"worker-pool slots granted, by priority class", "class"),
		cCoalesced: reg.Counter("record_recordd_qos_coalesced_total",
			"duplicate compile requests answered from another request's execution"),
		cPrewarmSweep: reg.Counter("record_recordd_prewarm_sweeps_total",
			"speculative pre-warm sweeps run"),
		cBrkOpens: reg.Counter("record_recordd_breaker_opens_total",
			"circuit-breaker trips to open, across all models"),
		cBrkReject: reg.Counter("record_recordd_breaker_rejections_total",
			"requests refused because a model's circuit was open"),
		cErrors: reg.CounterVec("record_recordd_errors_total",
			"error responses, by HTTP status", "status"),
		cAborts: reg.Counter("record_recordd_client_aborts_total",
			"requests whose client disconnected before a response (499-style)"),
	}
	s.sched = qos.NewScheduler(qos.Config{
		Capacity: cfg.workers,
		MaxQueue: cfg.maxQueue,
		Weights:  cfg.qosWeights,
		Drain:    s.drainCh,
		OnDepth:  func(cl qos.Class, depth int) { s.gQueue.With(cl.String()).Set(int64(depth)) },
	})
	// Pre-create the per-class series so a scrape of an idle server shows
	// explicit zeros instead of absent lines.
	for _, cl := range qos.Classes {
		s.gQueue.With(cl.String()).Set(0)
		s.cShed.With(cl.String()).Add(0)
		s.cDispatched.With(cl.String()).Add(0)
	}
	if cfg.prewarmEvery > 0 {
		s.pop = qos.NewPopularity(0, 0, nil)
		s.prewarmer = &qos.Prewarmer{
			Sched:  s.sched,
			Pop:    s.pop,
			Top:    prewarmTop,
			IsWarm: s.cache.InMemory,
			Warm:   s.prewarmOne,
		}
	}
	reg.GaugeVec("record_recordd_node_info",
		"static node identity; always 1", "node").With(cfg.nodeID).Set(1)
	if cfg.brkWindow > 0 {
		s.brk = resilience.NewBreaker(resilience.BreakerConfig{
			Window:      cfg.brkWindow,
			FailureRate: cfg.brkRate,
			Cooldown:    cfg.brkCooldown,
			Now:         cfg.brkClock,
			OnTrip:      func(string) { s.cBrkOpens.Inc() },
		})
	}
	reg.Gauge("record_recordd_worker_pool_size",
		"configured worker pool capacity").Set(int64(cfg.workers))
	return s, nil
}

// prewarmOne is the Prewarmer's Warm hook: it loads one hot model into
// the memory tier under pre-warm attribution.  The budget mirrors
// resolveEntry's so a pre-warm retarget computes the same content
// address a real request would.
func (s *server) prewarmOne(ctx context.Context, key, mdlSource string) error {
	if err := faultpoint.Hit("recordd.prewarm.retarget", key); err != nil {
		return err
	}
	budget, cancel := s.budget(ctx)
	defer cancel()
	_, err := s.cache.Prewarm(ctx, key, mdlSource, core.RetargetOptions{Budget: budget, Obs: s.scp})
	return err
}

// prewarmLoop drives pre-warm sweeps until ctx ends or the drain starts.
// Sweeps only ever use idle capacity: the scheduler refuses the lease
// when any real work is queued, and revokes it when real work arrives.
func (s *server) prewarmLoop(ctx context.Context) {
	if s.prewarmer == nil {
		return
	}
	t := time.NewTicker(s.cfg.prewarmEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.drainCh:
			return
		case <-t.C:
			s.cPrewarmSweep.Inc()
			s.prewarmer.Sweep(ctx)
		}
	}
}

// handler wraps the route mux in the drain gate: once draining, every
// request that would start new work is refused with an explicit 503 so no
// client is dropped without a status; health and metrics stay readable.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/retarget", s.traced("retarget", s.handleRetarget))
	mux.HandleFunc("/v1/compile", s.traced("compile", s.handleCompile))
	mux.HandleFunc("/v1/compile-batch", s.traced("batch", s.handleCompileBatch))
	// A GET like /healthz, so drain-exempt: the span ring must stay
	// readable while a node drains, or a chaos trace loses its tail.
	mux.HandleFunc("/v1/debug/spans", s.handleDebugSpans)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.Method != http.MethodGet {
			s.fail(w, r, http.StatusServiceUnavailable,
				&resilience.DrainingError{After: time.Second})
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// statusWriter captures the response status so the traced middleware can
// tag the request span and classify the SLO event.  code 0 means nothing
// was written (client abort).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// traced is the per-route observability middleware: it opens a request
// span (parented under the caller's X-Record-Trace context when one
// arrived), echoes the span's trace ID in the response header, threads a
// request-scoped obs.Scope through the context for every layer below —
// QoS wait, cache lookups, compile phases — and lands the
// outcome in the SLO tracker.
func (s *server) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		scope := obs.NewScope(s.reg, s.tracer).WithRemote(remote)
		sp, rscope := scope.Start("recordd."+route, obs.KV("node", s.cfg.nodeID))
		defer sp.End()
		if sc := sp.Context(); sc.Valid() {
			w.Header().Set(obs.TraceHeader, sc.Header())
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(obs.ContextWithScope(r.Context(), rscope)))
		if sw.code == 0 {
			// Nothing written: the client went away. Not an SLO event —
			// the service never answered, well or badly.
			sp.SetAttr("outcome", "abort")
			return
		}
		sp.SetAttr("status", sw.code)
		s.slo.Observe(route, time.Since(start), sw.code < http.StatusInternalServerError)
	}
}

// obsFrom returns the request's trace-carrying scope when the context
// has one, else the server's registry-only scope — pipeline metrics land
// in the same registry either way.
func (s *server) obsFrom(ctx context.Context) *obs.Scope {
	if scope := obs.ScopeFromContext(ctx); scope != nil {
		return scope
	}
	return s.scp
}

// handleDebugSpans serves the node's span ring for trace fusion:
// cmd/tracefuse joins /v1/debug/spans dumps from every fleet node into
// one cross-process Chrome trace.
func (s *server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.tracer.Dump(s.cfg.nodeID))
}

// beginDrain flips the service into draining mode: /healthz reports
// draining, new work is refused, and requests queued for a pool slot are
// released with an explicit 503 instead of waiting out the shutdown.
func (s *server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.gDraining.Set(1)
		close(s.drainCh)
	}
}

// trackCompile bumps the global and per-target in-flight gauges; the
// returned func undoes both, retiring the per-target series when its last
// compile finishes so /metrics does not accumulate dead keys.
func (s *server) trackCompile(key string) func() {
	s.gInflight.Inc()
	s.targMu.Lock()
	s.gTargInflight.With(key).Inc()
	s.targMu.Unlock()
	return func() {
		s.gInflight.Dec()
		s.targMu.Lock()
		g := s.gTargInflight.With(key)
		g.Dec()
		if g.Value() == 0 {
			s.gTargInflight.Delete(key)
		}
		s.targMu.Unlock()
	}
}

// observePhase lands a request-phase duration in the shared histogram.
func (s *server) observePhase(phase string, d time.Duration) {
	s.hPhase.With(phase).Observe(d.Seconds())
}

// classOf reads the client-declared X-Record-Priority header; unknown,
// empty or garbage values degrade to the route's default class — a bad
// header can never fail a request.
func classOf(r *http.Request, def qos.Class) qos.Class {
	return qos.ParseClass(r.Header.Get("X-Record-Priority"), def)
}

// acquire takes a worker-pool slot through the QoS scheduler.  Weighted
// admission sheds immediately (429) when the waiter backlog is at
// -max-queue — batch first, interactive only when the queue holds
// nothing else; an admitted waiter can still fail with 503 when the
// drain starts or the client goes away before a slot frees up.  The
// returned release is idempotent and must be called when the work ends.
func (s *server) acquire(ctx context.Context, cl qos.Class) (func(), error) {
	sp, _ := obs.ScopeFromContext(ctx).Start("qos.wait", obs.KV("class", cl.String()))
	release, err := s.sched.Acquire(ctx, cl)
	if err != nil {
		sp.SetAttr("outcome", "refused")
		sp.End()
		var ov *resilience.OverloadError
		if errors.As(err, &ov) {
			s.cShed.With(cl.String()).Inc()
		}
		return nil, err
	}
	sp.SetAttr("outcome", "granted")
	sp.End()
	if err := faultpoint.Hit("recordd.worker.spawn", ""); err != nil {
		release()
		return nil, err
	}
	s.cDispatched.With(cl.String()).Inc()
	return release, nil
}

// budget builds the per-request resource budget, mirroring the record CLI:
// wall-clock timeout, BDD-node cap, route cap.
func (s *server) budget(ctx context.Context) (*diag.Budget, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if s.cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.timeout)
	}
	return &diag.Budget{Ctx: ctx, MaxBDDNodes: s.cfg.maxBDDNodes, MaxRoutes: s.cfg.maxRoutes}, cancel
}

// compileCtx narrows a request context by the configured per-request
// timeout; compiles rely on context cancellation alone.
func (s *server) compileCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.timeout)
	}
	return ctx, func() {}
}

// breakerKey fingerprints the model a request targets: the artifact key
// when the caller sent one, else the content address the cache will use
// for the model — computable without running any pipeline work.
func (s *server) breakerKey(key string, m modelRequest) (string, error) {
	if key != "" {
		return key, nil
	}
	mdl, err := m.source()
	if err != nil {
		return "", err
	}
	return s.cache.Key(mdl, core.RetargetOptions{}), nil
}

// allow consults the model's circuit; an open circuit refuses the request
// with 503 + Retry-After before any pipeline work runs.
func (s *server) allow(w http.ResponseWriter, r *http.Request, bkey string) bool {
	if err := s.brk.Allow(bkey); err != nil {
		s.cBrkReject.Inc()
		s.fail(w, r, statusFor(err), err)
		return false
	}
	return true
}

// serverFault reports whether err is the service's failure class (the
// 5xx statuses the breaker counts): budget exhaustion, recovered panics
// and injected service faults — not caller mistakes.
func serverFault(err error) bool {
	return err != nil && statusFor(err) >= http.StatusInternalServerError
}

// recordOutcome lands one pipeline outcome in the model's circuit: success
// and server faults move the window, caller errors (4xx) do not.
func (s *server) recordOutcome(bkey string, err error) {
	switch {
	case err == nil:
		s.brk.Record(bkey, true)
	case serverFault(err):
		s.brk.Record(bkey, false)
	}
}

// resolveEntry turns (key | model | model_name) into a cache entry,
// retargeting on demand.  On failure it returns the HTTP status the
// caller should fail with.
func (s *server) resolveEntry(ctx context.Context, key string, m modelRequest) (*rcache.Entry, rcache.Outcome, int, error) {
	if key != "" {
		if m.Model != "" || m.ModelName != "" {
			return nil, rcache.Miss, http.StatusBadRequest, fmt.Errorf("use either key or a model, not both")
		}
		// By key the service can only look up, not recompute: a node that
		// does not hold the entry answers 404 and the caller resends the
		// model, which any node can retarget.
		sp, _ := s.obsFrom(ctx).Start("rcache.lookup", obs.KV("key", key))
		entry, outcome, ok := s.cache.Lookup(key)
		sp.SetAttr("outcome", string(outcome))
		sp.End()
		if !ok {
			return nil, rcache.Miss, http.StatusNotFound,
				fmt.Errorf("no artifact for key %s: retarget first or send the model inline", key)
		}
		return entry, outcome, 0, nil
	}
	mdl, err := m.source()
	if err != nil {
		return nil, rcache.Miss, http.StatusBadRequest, err
	}
	budget, cancel := s.budget(ctx)
	defer cancel()
	start := time.Now()
	entry, outcome, err := s.cache.GetContext(ctx, mdl, core.RetargetOptions{Budget: budget, Obs: s.obsFrom(ctx)})
	s.observePhase("retarget", time.Since(start))
	if err != nil {
		return nil, rcache.Miss, statusFor(err), fmt.Errorf("retarget: %w", err)
	}
	if outcome == rcache.Miss {
		s.observePhase("freeze", entry.Target().Stats.Freeze)
	}
	return entry, outcome, 0, nil
}

// ---- request/response types --------------------------------------------

// modelRequest selects a processor model: inline MDL source or the name of
// a bundled model.
type modelRequest struct {
	Model     string `json:"model,omitempty"`      // inline MDL source
	ModelName string `json:"model_name,omitempty"` // bundled model (see record -list)
}

func (m *modelRequest) source() (string, error) {
	switch {
	case m.Model != "" && m.ModelName != "":
		return "", fmt.Errorf("use either model or model_name, not both")
	case m.Model != "":
		return m.Model, nil
	case m.ModelName != "":
		src, ok := models.Get(m.ModelName)
		if !ok {
			return "", fmt.Errorf("unknown bundled model %q", m.ModelName)
		}
		return src, nil
	}
	return "", fmt.Errorf("no model: set model (inline MDL) or model_name")
}

type retargetRequest struct {
	modelRequest
}

type retargetResponse struct {
	Key       string `json:"key"`
	Name      string `json:"name"`
	Templates int    `json:"templates"`
	Rules     int    `json:"rules"`
	Cache     string `json:"cache"` // hit | miss | coalesced
	Warnings  int    `json:"warnings,omitempty"`
}

type compileRequest struct {
	modelRequest
	Key     string         `json:"key,omitempty"` // artifact key from /v1/retarget
	Source  string         `json:"source"`        // RecC program
	Options compileOptions `json:"options"`
}

type compileResponse struct {
	Key     string   `json:"key"`
	Name    string   `json:"name"`
	Cache   string   `json:"cache"`
	SeqLen  int      `json:"seq_len"`  // RT instructions before compaction
	CodeLen int      `json:"code_len"` // instruction words
	Words   []uint64 `json:"words"`
	Listing string   `json:"listing"`
}

// compileOptions is the per-program options object shared by /v1/compile
// and /v1/compile-batch.
type compileOptions struct {
	NoCompaction bool `json:"no_compaction,omitempty"`
	NoPeephole   bool `json:"no_peephole,omitempty"`
}

// batchProgram is one unit of work in a /v1/compile-batch request.
type batchProgram struct {
	ID      string          `json:"id,omitempty"` // echoed back; defaults to its index
	Source  string          `json:"source"`
	Options *compileOptions `json:"options,omitempty"` // overrides the batch default
}

// compileBatchRequest fans a set of programs over the worker pool against
// one target.  The model is resolved once (key, inline MDL, or bundled
// name); programs compile concurrently against the frozen target.
type compileBatchRequest struct {
	modelRequest
	Key      string         `json:"key,omitempty"`
	Programs []batchProgram `json:"programs"`
	Options  compileOptions `json:"options"` // default for programs without their own
}

// batchResult is the per-program outcome.  Status mirrors the /v1/compile
// status mapping: 200 ok, 422 unencodable program, 504 budget exhausted,
// 500 internal fault.  On non-200 only Error is populated.
type batchResult struct {
	ID      string   `json:"id"`
	Status  int      `json:"status"`
	Error   string   `json:"error,omitempty"`
	SeqLen  int      `json:"seq_len,omitempty"`
	CodeLen int      `json:"code_len,omitempty"`
	Words   []uint64 `json:"words,omitempty"`
	Listing string   `json:"listing,omitempty"`
}

// compileBatchResponse reports every program's outcome.  The HTTP status
// is 200 whenever the target resolved, even if every program failed —
// partial failure is data, not transport error.
type compileBatchResponse struct {
	Key       string        `json:"key"`
	Name      string        `json:"name"`
	Cache     string        `json:"cache"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
	Results   []batchResult `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // refusal class: "overload" | "open" | "draining"
}

// refusalKind classifies typed resilience refusals for the wire, so a
// client can tell a draining node (fail over now, the hint is exact)
// from overload or an open circuit (backing off harder is fine).
func refusalKind(err error) string {
	var ov *resilience.OverloadError
	if errors.As(err, &ov) {
		return "overload"
	}
	var oe *resilience.OpenError
	if errors.As(err, &oe) {
		return "open"
	}
	var de *resilience.DrainingError
	if errors.As(err, &de) {
		return "draining"
	}
	return ""
}

// ---- handlers -----------------------------------------------------------

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	body := map[string]interface{}{"ok": true, "node": s.cfg.nodeID}
	if slo := s.slo.Health(); slo != nil {
		body["slo"] = slo
	}
	if s.draining.Load() {
		body["ok"] = false
		body["draining"] = true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	// Burn rates are point-in-time quantities, so their gauges refresh
	// at scrape time rather than per request.
	s.slo.Refresh()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *server) handleRetarget(w http.ResponseWriter, r *http.Request) {
	var req retargetRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mdl, err := req.source()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	bkey := s.cache.Key(mdl, core.RetargetOptions{})
	if !s.allow(w, r, bkey) {
		return
	}
	release, err := s.acquire(r.Context(), classOf(r, qos.Interactive))
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()

	rep := diag.NewReporter()
	budget, cancel := s.budget(r.Context())
	defer cancel()

	start := time.Now()
	entry, outcome, err := s.cache.GetContext(r.Context(), mdl, core.RetargetOptions{Reporter: rep, Budget: budget, Obs: s.obsFrom(r.Context())})
	s.observePhase("retarget", time.Since(start))
	s.recordOutcome(bkey, err)
	if err != nil {
		s.fail(w, r, statusFor(err), fmt.Errorf("retarget: %w", err))
		return
	}
	s.touch(entry.Key, req.modelRequest)
	t := entry.Target()
	if outcome == rcache.Miss {
		s.observePhase("freeze", t.Stats.Freeze)
	}
	writeJSON(w, http.StatusOK, retargetResponse{
		Key:       entry.Key,
		Name:      t.Name,
		Templates: t.Base.Len(),
		Rules:     len(t.Grammar.Rules),
		Cache:     string(outcome),
		Warnings:  rep.Warns(),
	})
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("no source program"))
		return
	}
	bkey, err := s.breakerKey(req.Key, req.modelRequest)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if !s.allow(w, r, bkey) {
		return
	}
	// Identical compiles queued at the same time collapse onto one
	// execution: the first request becomes the leader and runs the work,
	// duplicates wait and replay the leader's byte-identical response.
	cl := classOf(r, qos.Interactive)
	v, shared, err := s.coal.Do(r.Context(), coalesceKey(bkey, req), func() (interface{}, error) {
		return s.compileWire(r.Context(), req, bkey, cl), nil
	})
	if err != nil {
		// This request's own context ended while waiting on the leader.
		s.fail(w, r, statusFor(err), err)
		return
	}
	wr := v.(*wireResult)
	if shared {
		s.cCoalesced.Inc()
		// The work ran on the leader's trace; link the follower's span to
		// it so a trace viewer can hop from the waiter to the execution.
		if sp := obs.ScopeFromContext(r.Context()).Span(); sp != nil {
			sp.SetAttr("coalesced", true)
			if wr.trace != "" {
				sp.SetAttr("leader_trace", wr.trace)
			}
		}
	}
	s.writeWire(w, r, wr)
}

// compileWire runs one /v1/compile request end to end — admission,
// target resolution, compile — and returns the response as wire bytes so
// coalesced duplicates can replay it verbatim.  Failures are encoded
// too: a shed or broken-circuit refusal is shared exactly like a result.
func (s *server) compileWire(ctx context.Context, req compileRequest, bkey string, cl qos.Class) *wireResult {
	// The leader's trace identifies where coalesced followers' work ran.
	var leaderTrace string
	if sc := s.obsFrom(ctx).Span().Context(); sc.Valid() {
		leaderTrace = sc.Trace.String()
	}
	release, err := s.acquire(ctx, cl)
	if err != nil {
		return errWire(err)
	}
	defer release()

	entry, outcome, status, err := s.resolveEntry(ctx, req.Key, req.modelRequest)
	if err != nil {
		s.recordOutcome(bkey, err)
		return errWireStatus(status, err)
	}
	s.touch(entry.Key, req.modelRequest)
	res, err := s.compile(ctx, entry, bkey, req.Source, req.Options)
	if err != nil {
		return errWire(fmt.Errorf("compile: %w", err))
	}

	start := time.Now()
	wr := marshalWire(http.StatusOK, compileResponse{
		Key:     entry.Key,
		Name:    entry.Target().Name,
		Cache:   string(outcome),
		SeqLen:  res.SeqLen(),
		CodeLen: res.CodeLen(),
		Words:   res.Words(),
		Listing: entry.Listing(res),
	})
	s.observePhase("encode", time.Since(start))
	wr.trace = leaderTrace
	return wr
}

// handleCompileBatch resolves the target once, then fans the programs
// across the worker pool.  Each program independently acquires a pool
// slot, so a large batch cannot starve other requests of more than the
// configured concurrency.
func (s *server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	var req compileBatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Programs) == 0 {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("no programs"))
		return
	}
	for i, p := range req.Programs {
		if p.Source == "" {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("program %d has no source", i))
			return
		}
	}
	bkey, err := s.breakerKey(req.Key, req.modelRequest)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	if !s.allow(w, r, bkey) {
		return
	}
	batchStart := time.Now()
	defer func() { s.observePhase("batch", time.Since(batchStart)) }()

	// Batch work defaults to the batch class: it is dispatched after
	// queued interactive requests and shed first under pressure.
	cl := classOf(r, qos.Batch)

	// Resolving the model may retarget: that runs under a pool slot too.
	release, err := s.acquire(r.Context(), cl)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	entry, outcome, status, err := s.resolveEntry(r.Context(), req.Key, req.modelRequest)
	release()
	if err != nil {
		s.recordOutcome(bkey, err)
		s.fail(w, r, status, err)
		return
	}
	s.touch(entry.Key, req.modelRequest)

	results := make([]batchResult, len(req.Programs))
	var wg sync.WaitGroup
	for i := range req.Programs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := req.Programs[i]
			id := p.ID
			if id == "" {
				id = fmt.Sprintf("%d", i)
			}
			results[i] = s.compileOne(r.Context(), cl, entry, id, p, req.Options)
		}(i)
	}
	wg.Wait()

	resp := compileBatchResponse{
		Key:     entry.Key,
		Name:    entry.Target().Name,
		Cache:   string(outcome),
		Results: results,
	}
	for _, res := range results {
		if res.Status == http.StatusOK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// compileOne runs a single batch program under a worker-pool slot.
func (s *server) compileOne(ctx context.Context, cl qos.Class, entry *rcache.Entry, id string, p batchProgram, def compileOptions) batchResult {
	release, err := s.acquire(ctx, cl)
	if err != nil {
		return batchResult{ID: id, Status: statusFor(err), Error: err.Error()}
	}
	defer release()
	opts := def
	if p.Options != nil {
		opts = *p.Options
	}
	res, err := s.compile(ctx, entry, entry.Key, p.Source, opts)
	if err != nil {
		return batchResult{ID: id, Status: statusFor(err), Error: err.Error()}
	}
	return batchResult{
		ID:      id,
		Status:  http.StatusOK,
		SeqLen:  res.SeqLen(),
		CodeLen: res.CodeLen(),
		Words:   res.Words(),
		Listing: entry.Listing(res),
	}
}

// compile runs one program on a resolved entry under a pool slot the
// caller holds: in-flight gauges, the per-request timeout, the compile
// phase histogram and the circuit keyed by bkey.
func (s *server) compile(ctx context.Context, entry *rcache.Entry, bkey, src string, opts compileOptions) (*core.CompileResult, error) {
	done := s.trackCompile(entry.Key)
	defer done()
	cctx, cancel := s.compileCtx(ctx)
	defer cancel()
	start := time.Now()
	res, err := entry.Compile(cctx, src, core.CompileOptions{
		NoCompaction: opts.NoCompaction,
		NoPeephole:   opts.NoPeephole,
		Obs:          s.obsFrom(ctx),
	})
	s.observePhase("compile", time.Since(start))
	s.recordOutcome(bkey, err)
	return res, err
}

// ---- plumbing -----------------------------------------------------------

// touch records one unit of demand against an artifact key for the
// pre-warm popularity tracker.  The model source rides along so an
// evicted entry can be re-retargeted speculatively; by-key requests have
// no source and contribute demand only.
func (s *server) touch(key string, m modelRequest) {
	if s.pop == nil {
		return
	}
	src, err := m.source()
	if err != nil {
		src = ""
	}
	s.pop.Touch(key, src)
}

// coalesceKey fingerprints everything that determines a /v1/compile
// response: the model's breaker key (its content address), the program
// source and the compile options.  Two requests with equal keys are
// interchangeable and safe to answer with one execution.
func coalesceKey(bkey string, req compileRequest) string {
	h := sha256.New()
	io.WriteString(h, bkey)
	h.Write([]byte{0})
	io.WriteString(h, req.Source)
	fmt.Fprintf(h, "\x00%v\x00%v", req.Options.NoCompaction, req.Options.NoPeephole)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// wireResult is a fully rendered HTTP response — status, Retry-After
// hint, marshaled JSON body — so a coalesced duplicate can write exactly
// the bytes its leader produced.
type wireResult struct {
	status int
	after  time.Duration // Retry-After hint; 0 = none
	body   []byte        // JSON body, newline-framed like writeJSON
	trace  string        // leader's trace ID, for coalesced-follower linkage
}

func errWire(err error) *wireResult { return errWireStatus(statusFor(err), err) }

func errWireStatus(status int, err error) *wireResult {
	wr := &wireResult{status: status}
	if after, ok := resilience.RetryAfterOf(err); ok {
		wr.after = after
	}
	body, _ := json.Marshal(errorResponse{Error: err.Error(), Kind: refusalKind(err)})
	wr.body = append(body, '\n')
	return wr
}

func marshalWire(status int, v interface{}) *wireResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errWireStatus(http.StatusInternalServerError, err)
	}
	return &wireResult{status: status, body: append(body, '\n')}
}

// writeWire writes a pre-rendered response.  Per-request concerns stay
// per-request even when the result was shared: a disconnected client is
// a silent abort, every error response is counted against its own
// request, and the encode faultpoint fires once per response written.
func (s *server) writeWire(w http.ResponseWriter, r *http.Request, wr *wireResult) {
	if r.Context().Err() == context.Canceled {
		s.cAborts.Inc()
		return
	}
	if wr.after > 0 {
		secs := int((wr.after + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	if wr.status >= 400 {
		s.cErrors.With(strconv.Itoa(wr.status)).Inc()
	}
	if err := faultpoint.Hit("recordd.response.encode", ""); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(wr.status)
	_, _ = w.Write(wr.body)
}

func (s *server) readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxBody+1))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return false
	}
	if int64(len(body)) > s.cfg.maxBody {
		s.fail(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", s.cfg.maxBody))
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return false
	}
	return true
}

// fail writes an error response.  A client that already disconnected gets
// nothing — that is a 499-style silent abort counted apart from server
// errors, not a 500.  Resilience errors carry Retry-After hints that
// surface as the HTTP header of the same name.
func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	if r.Context().Err() == context.Canceled {
		s.cAborts.Inc()
		return
	}
	if after, ok := resilience.RetryAfterOf(err); ok {
		secs := int((after + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.cErrors.With(strconv.Itoa(status)).Inc()
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: refusalKind(err)})
}

// statusFor maps failures onto HTTP statuses: overload sheds as 429,
// breaker/drain refusals and abandoned pool waits are 503, resource-budget
// exhaustion is the server's fault class (504-ish), internal faults —
// recovered panics and injected service faults — are 500, and everything
// else is a caller problem (unprocessable model/program).
func statusFor(err error) int {
	var ov *resilience.OverloadError
	if errors.As(err, &ov) {
		return http.StatusTooManyRequests
	}
	var oe *resilience.OpenError
	if errors.As(err, &oe) {
		return http.StatusServiceUnavailable
	}
	var de *resilience.DrainingError
	if errors.As(err, &de) {
		return http.StatusServiceUnavailable
	}
	var be *diag.BudgetError
	if errors.As(err, &be) {
		return http.StatusGatewayTimeout
	}
	var pe *diag.PanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	var fe *faultpoint.Fault
	if errors.As(err, &fe) {
		return http.StatusInternalServerError
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	if err := faultpoint.Hit("recordd.response.encode", ""); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
