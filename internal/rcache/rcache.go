// Package rcache is the retarget cache: an in-memory LRU of live
// core.Target instances, optionally over an on-disk store of encoded
// artifacts (internal/artifact).  The disk tier backs the record CLI's
// -cache-dir; recordd runs memory-only and recomputes on a miss, since
// decoding an artifact costs more than the retarget it replaces.
//
// Retargeting a processor model costs CPU minutes at paper scale while its
// product is a pure function of (MDL source, options); serving compiles at
// production traffic therefore demands that the product be computed once
// and shared.  Get collapses concurrent requests for the same content
// address into a single underlying Retarget (singleflight), promotes disk
// artifacts into the memory tier on first use, and tolerates cache-file
// corruption: a file that fails to decode is a miss plus a diagnostic
// warning, never an error.
//
// Entries need no per-entry lock: every cached Target is frozen (its BDD
// tables are read-only and compiles run against private copy-on-write
// views), so any number of goroutines may compile through the same entry
// simultaneously.
package rcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// Outcome says which tier satisfied a Get.
type Outcome string

// Get outcomes.
const (
	Mem       Outcome = "hit"       // memory tier
	Disk      Outcome = "hit-disk"  // decoded from the artifact store
	Miss      Outcome = "miss"      // full retarget ran
	Coalesced Outcome = "coalesced" // waited on another request's retarget
)

// Hit reports whether the outcome avoided a full retarget.
func (o Outcome) Hit() bool { return o != Miss }

// Stats are the cache counters; all increments happen under the cache
// mutex, reads return a snapshot.
type Stats struct {
	MemHits   uint64 // satisfied from the memory LRU
	DiskHits  uint64 // decoded from the disk store
	Misses    uint64 // required a full retarget
	Coalesced uint64 // waited on an in-flight retarget for the same key
	Evictions uint64 // memory-tier LRU evictions
	Corrupt   uint64 // disk artifacts dropped as corrupt
	Retargets uint64 // underlying core.Retarget invocations
	Orphans   uint64 // crash-orphaned temp files removed by the recovery scan
	DiskFails uint64 // disk-tier write failures (any cause)

	// Speculative pre-warm is attributed apart from serving traffic so
	// the hit-rate computed from the counters above is what real
	// requests experienced, not what background loading manufactured.
	PrewarmLoads     uint64 // keys brought into the memory tier by Prewarm
	PrewarmRetargets uint64 // retargets run by Prewarm (not counted in Retargets)
}

// Options configures a cache.
type Options struct {
	// Dir is the artifact store directory; empty disables the disk tier.
	Dir string
	// MaxEntries caps the memory tier (default 16 targets).
	MaxEntries int
	// Reporter receives corruption and store-failure warnings; nil is safe.
	Reporter *diag.Reporter
	// Obs supplies the registry the cache counters land in
	// (record_rcache_*); per-request spans come from the RetargetOptions
	// passed to GetContext instead.  nil is safe.
	Obs *obs.Scope
}

// DefaultMaxEntries is the memory-tier capacity when Options.MaxEntries
// is unset.
const DefaultMaxEntries = 16

// Entry is one cached retarget product.  The target is frozen, so every
// method — and direct use of Target() — is safe for concurrent use with
// no serialization: parallel compiles share the read-only tables and keep
// their mutable state in per-compile sessions.
type Entry struct {
	Key string

	target   *core.Target
	compiler *core.Compiler
}

// Compile compiles RecC source through the cached target's pooled
// Compiler.  Any number of Compiles may run concurrently against the same
// entry; they share the handle's session pool instead of allocating a
// fresh encoding session per request.
func (e *Entry) Compile(ctx context.Context, src string, opts core.CompileOptions) (*core.CompileResult, error) {
	if e.compiler != nil {
		return e.compiler.CompileSourceOpts(ctx, src, opts)
	}
	return e.target.CompileSourceContext(ctx, src, opts)
}

// Compiler exposes the entry's long-lived compile handle (nil only for a
// target that could not back one, e.g. an unfrozen test construction).
func (e *Entry) Compiler() *core.Compiler { return e.compiler }

// Listing renders a compile result against the cached target.
func (e *Entry) Listing(r *core.CompileResult) string {
	return e.target.Listing(r)
}

// Target exposes the underlying frozen target; it is safe to share across
// goroutines.
func (e *Entry) Target() *core.Target { return e.target }

type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is the two-tier retarget cache.  All methods are safe for
// concurrent use.
type Cache struct {
	opts Options

	mu     sync.Mutex
	lru    *list.List               // of *Entry, front = most recent
	byKey  map[string]*list.Element // key -> LRU element
	flight map[string]*flight       // key -> in-flight retarget
	stats  Stats

	// diskOff flips on when the store becomes unusable (disk full,
	// read-only filesystem, permission loss): the cache degrades to
	// memory-only with one warning instead of failing every request.
	diskOff atomic.Bool

	// Registry mirrors of the Stats counters (nil-safe when Options.Obs
	// carries no registry).  Stats stays authoritative for programmatic
	// reads; these exist so /metrics needs no snapshot plumbing.
	cHits       *obs.CounterVec // by tier: mem | disk
	cMisses     *obs.Counter
	cCoalesced  *obs.Counter
	cEvictions  *obs.Counter
	cCorrupt    *obs.Counter
	cRetargets  *obs.Counter
	cOrphans    *obs.Counter
	cDiskErrors *obs.Counter
	cPrewarm    *obs.CounterVec // by outcome; kept apart from cHits/cMisses
	gDegraded   *obs.Gauge
}

// New creates a cache; when opts.Dir is set the directory is created and
// scanned for crash debris: temp files orphaned by a process killed
// mid-store are deleted so a crash during a cache write never leaks disk
// or confuses a later scan.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: %w", err)
		}
	}
	c := &Cache{
		opts:   opts,
		lru:    list.New(),
		byKey:  make(map[string]*list.Element),
		flight: make(map[string]*flight),
	}
	reg := opts.Obs.Registry()
	c.cHits = reg.CounterVec("record_rcache_hits_total",
		"retarget cache hits, by tier", "tier")
	c.cMisses = reg.Counter("record_rcache_misses_total",
		"retarget cache misses (full retarget ran)")
	c.cCoalesced = reg.Counter("record_rcache_coalesced_total",
		"requests coalesced onto an in-flight retarget")
	c.cEvictions = reg.Counter("record_rcache_evictions_total",
		"memory-tier LRU evictions")
	c.cCorrupt = reg.Counter("record_rcache_corrupt_total",
		"disk artifacts dropped as corrupt")
	c.cRetargets = reg.Counter("record_rcache_retargets_total",
		"underlying retarget invocations")
	c.cOrphans = reg.Counter("record_rcache_orphans_recovered_total",
		"crash-orphaned temp files removed by the startup recovery scan")
	c.cDiskErrors = reg.Counter("record_rcache_disk_errors_total",
		"disk-tier write failures")
	c.cPrewarm = reg.CounterVec("record_rcache_prewarm_total",
		"speculative pre-warm attempts, by outcome; attributed apart from the serving hit/miss counters", "outcome")
	c.gDegraded = reg.Gauge("record_rcache_disk_degraded",
		"1 when the disk tier is disabled after an unusable-disk error")
	if opts.Dir != "" {
		c.recoverOrphans()
	}
	return c, nil
}

// recoverOrphans deletes temp files left behind by a crash mid-store.
// Completed artifacts are never touched: store renames atomically, so any
// ".*.tmp*" file is by construction a torn write.
func (c *Cache) recoverOrphans() {
	entries, err := os.ReadDir(c.opts.Dir)
	if err != nil {
		c.opts.Reporter.Warnf("rcache", diag.Pos{}, "recovery scan failed: %v", err)
		return
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(c.opts.Dir, name)); err == nil {
			removed++
		}
	}
	if removed > 0 {
		c.mu.Lock()
		c.stats.Orphans += uint64(removed)
		c.mu.Unlock()
		c.cOrphans.Add(removed)
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"recovered %d orphan temp file(s) from a previous crash", removed)
	}
}

// markHit records a zero-length cache.hit span so the trace of a cached
// request shows which tier answered — and, by the absence of retarget
// spans, that no pipeline work ran.
func markHit(scope *obs.Scope, tier string) {
	sp, _ := scope.Start("cache.hit", obs.KV("tier", tier))
	sp.End()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memory-tier entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Key returns the content address Get will use for (mdlSource, ropts).
func (c *Cache) Key(mdlSource string, ropts core.RetargetOptions) string {
	return artifact.Key(mdlSource, ropts)
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.opts.Dir, key+".rart")
}

// newEntry wraps a frozen target in an Entry with a pooled compile
// handle.  A target that cannot back one (unfrozen — possible only in
// synthetic tests) still gets an entry; Compile then falls back to the
// per-call session path.
func (c *Cache) newEntry(key string, t *core.Target) *Entry {
	e := &Entry{Key: key, target: t}
	if cc, err := core.NewCompiler(t, core.Config{Obs: c.opts.Obs}); err == nil {
		e.compiler = cc
	}
	return e
}

// GetContext returns the cached retarget product for (mdlSource, ropts),
// running the retarget at most once per content address across concurrent
// callers.  ctx bounds a retarget this call initiates; coalesced waiters
// also stop waiting when their own ctx is done (the in-flight retarget
// keeps running for its initiator).  The returned outcome says which tier
// satisfied the request.
func (c *Cache) GetContext(ctx context.Context, mdlSource string, ropts core.RetargetOptions) (*Entry, Outcome, error) {
	key := artifact.Key(mdlSource, ropts)

	// The request's trace: everything below — hit markers, coalesced
	// waits, a full retarget — parents under one rcache.get span.
	gSpan, gScope := ropts.Obs.Start("rcache.get")
	defer gSpan.End()
	ropts.Obs = gScope

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.MemHits++
		e := el.Value.(*Entry)
		c.mu.Unlock()
		c.cHits.With("mem").Inc()
		markHit(gScope, "mem")
		return e, Mem, nil
	}
	if f, ok := c.flight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		c.cCoalesced.Inc()
		wSpan, _ := gScope.Start("cache.coalesced")
		select {
		case <-f.done:
		case <-ctx.Done():
			wSpan.End()
			return nil, Miss, &diag.BudgetError{Resource: "deadline", Cause: ctx.Err()}
		}
		wSpan.End()
		if f.err != nil {
			return nil, Miss, f.err
		}
		return f.entry, Coalesced, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	entry, outcome, err := c.fill(ctx, key, mdlSource, ropts)

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		// Budget-degraded (partial) products stay out of both tiers: the
		// content address does not encode the budget, so a retry with a
		// larger one must not hit the degraded result.
		if artifact.Cacheable(entry.target) {
			c.insert(key, entry)
		}
		switch outcome {
		case Disk:
			c.stats.DiskHits++
			c.cHits.With("disk").Inc()
		case Miss:
			c.stats.Misses++
			c.cMisses.Inc()
		}
	}
	c.mu.Unlock()

	f.entry, f.err = entry, err
	close(f.done)
	return entry, outcome, err
}

// Lookup returns the entry for a content address without being able to
// retarget: memory tier, then disk tier.  ok is false when the key is in
// neither (or its disk artifact is corrupt).  The outcome says which tier
// answered, Miss when none did.
func (c *Cache) Lookup(key string) (*Entry, Outcome, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.MemHits++
		e := el.Value.(*Entry)
		c.mu.Unlock()
		c.cHits.With("mem").Inc()
		return e, Mem, true
	}
	c.mu.Unlock()

	// A key can arrive from a request; only a content address may name a
	// file in the store.
	if !validKey(key) {
		return nil, Miss, false
	}
	entry := c.loadDisk(key)
	if entry == nil {
		return nil, Miss, false
	}
	c.mu.Lock()
	// Another goroutine may have inserted meanwhile; prefer its entry.
	if el, ok := c.byKey[key]; ok {
		entry = el.Value.(*Entry)
	} else {
		c.insert(key, entry)
	}
	c.stats.DiskHits++
	c.mu.Unlock()
	c.cHits.With("disk").Inc()
	return entry, Disk, true
}

// fill resolves a key the memory tier does not have: disk first, then a
// full retarget (persisting the fresh artifact for the next process).
func (c *Cache) fill(ctx context.Context, key, mdlSource string, ropts core.RetargetOptions) (*Entry, Outcome, error) {
	if entry := c.loadDisk(key); entry != nil {
		markHit(ropts.Obs, "disk")
		return entry, Disk, nil
	}

	c.mu.Lock()
	c.stats.Retargets++
	c.mu.Unlock()
	c.cRetargets.Inc()
	t, err := core.RetargetContext(ctx, mdlSource, ropts)
	if err != nil {
		return nil, Miss, err
	}
	entry := c.newEntry(key, t)
	if c.opts.Dir != "" && !c.diskOff.Load() && artifact.Cacheable(t) {
		if err := c.store(key, t, mdlSource, ropts); err != nil {
			c.diskFail(key, err)
		}
	}
	return entry, Miss, nil
}

// loadDisk decodes the artifact for key.  A corrupt file is a miss plus a
// warning, never an error: it is counted, removed, and the caller
// retargets (rewriting a whole artifact in its place).
func (c *Cache) loadDisk(key string) *Entry {
	if c.opts.Dir == "" || c.diskOff.Load() {
		return nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil // absent: plain miss
	}
	bad := func(err error) *Entry {
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
		c.cCorrupt.Inc()
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"dropping corrupt cache artifact %s: %v", key, err)
		_ = os.Remove(c.path(key))
		return nil
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return bad(err)
	}
	if a.Key != key {
		return bad(fmt.Errorf("artifact self-identifies as %s", a.Key))
	}
	t, err := a.Target()
	if err != nil {
		return bad(err)
	}
	return c.newEntry(key, t)
}

// validKey reports whether key has the exact shape of a content address
// (64 lowercase hex digits).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if ch := key[i]; (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// store encodes the artifact and writes it crash-safely.
func (c *Cache) store(key string, t *core.Target, mdlSource string, ropts core.RetargetOptions) error {
	if err := faultpoint.Hit("rcache.disk.write", key); err != nil {
		return err
	}
	a, err := artifact.New(t, mdlSource, ropts)
	if err != nil {
		return err
	}
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return c.storeBytes(key, data)
}

// storeBytes writes encoded artifact bytes crash-safely: temp file, fsync
// of the data, atomic rename, fsync of the directory.  Readers never
// observe a torn write, and a write the caller saw succeed survives a
// machine crash.  On any failure the temp file is removed so failed
// writes cannot leak.
func (c *Cache) storeBytes(key string, data []byte) error {
	tmp, err := os.CreateTemp(c.opts.Dir, "."+key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	// The rename is in the directory's metadata: fsync it so the entry —
	// not just the bytes — is durable.
	return syncDir(c.opts.Dir)
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// diskFail handles a disk-tier write failure.  Unusable-disk conditions
// (no space, read-only filesystem, permission loss) disable the tier for
// the rest of the process with a single warning — the cache keeps serving
// memory-only; anything else warns per-failure and leaves the tier on.
func (c *Cache) diskFail(key string, err error) {
	c.mu.Lock()
	c.stats.DiskFails++
	c.mu.Unlock()
	c.cDiskErrors.Inc()
	if !diskUnusable(err) {
		c.opts.Reporter.Warnf("rcache", diag.Pos{}, "cannot persist artifact %s: %v", key, err)
		return
	}
	if c.diskOff.CompareAndSwap(false, true) {
		c.gDegraded.Set(1)
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"disk tier disabled (%v): continuing memory-only", err)
	}
}

// diskUnusable reports whether err means the store directory cannot be
// written at all (as opposed to one artifact failing).
func diskUnusable(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, os.ErrPermission)
}

// Degraded reports whether the disk tier has been disabled.
func (c *Cache) Degraded() bool { return c.diskOff.Load() }

// Close flushes the disk tier: it fsyncs the store directory so every
// completed artifact rename is durable before the process exits.  The
// cache stays usable after Close (it holds no file handles open); recordd
// calls this as the last step of a graceful drain.
func (c *Cache) Close() error {
	if c.opts.Dir == "" || c.diskOff.Load() {
		return nil
	}
	return syncDir(c.opts.Dir)
}

// ---- speculative pre-warm ----------------------------------------------

// InMemory reports whether key already sits in the memory tier, without
// touching its LRU position or any counter.
func (c *Cache) InMemory(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Prewarm brings the artifact for key into the memory tier ahead of
// demand: disk first, then — when mdlSource is known — a fresh
// retarget.  The next real request for the key is then a
// memory hit.
//
// Attribution is the point of having a separate entry point: everything
// Prewarm does lands in record_rcache_prewarm_total{outcome} and the
// Stats.Prewarm* counters, never in the serving hit/miss/retarget
// counters, so the externally observed hit rate reflects real traffic
// only.  A retargeting Prewarm registers the same in-flight marker as
// GetContext, so a real request arriving mid-warm coalesces onto the
// background work instead of duplicating it.
//
// The returned outcome mirrors GetContext's tiers: Mem (already warm),
// Coalesced (someone else is filling it), Disk (decoded into memory),
// Miss with nil error (retargeted, or nothing to warm from
// when mdlSource is empty and no tier has a copy).
func (c *Cache) Prewarm(ctx context.Context, key, mdlSource string, ropts core.RetargetOptions) (Outcome, error) {
	if !validKey(key) {
		return Miss, fmt.Errorf("rcache: malformed artifact key %q", key)
	}
	c.mu.Lock()
	if _, ok := c.byKey[key]; ok {
		c.mu.Unlock()
		c.cPrewarm.With("warm").Inc()
		return Mem, nil
	}
	if _, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.cPrewarm.With("inflight").Inc()
		return Coalesced, nil
	}
	c.mu.Unlock()

	// Cheap tiers first, without an in-flight marker: a decode failure
	// here degrades to the next tier and can never poison a concurrent
	// real request.
	if entry := c.loadDisk(key); entry != nil {
		c.adoptPrewarmed(key, entry, "hit-disk")
		return Disk, nil
	}
	if mdlSource == "" {
		// Known only by key (the clients always sent "key"): with no
		// tier holding a copy there is nothing to rebuild it from.
		c.cPrewarm.With("skipped").Inc()
		return Miss, nil
	}
	if got := artifact.Key(mdlSource, ropts); got != key {
		return Miss, fmt.Errorf("rcache: prewarm source addresses %s, not %s", got, key)
	}

	c.mu.Lock()
	if _, ok := c.byKey[key]; ok { // raced a real fill
		c.mu.Unlock()
		c.cPrewarm.With("warm").Inc()
		return Mem, nil
	}
	if _, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.cPrewarm.With("inflight").Inc()
		return Coalesced, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flight[key] = f
	c.stats.PrewarmRetargets++
	c.mu.Unlock()

	t, err := core.RetargetContext(ctx, mdlSource, ropts)
	var entry *Entry
	if err == nil {
		entry = c.newEntry(key, t)
		if c.opts.Dir != "" && !c.diskOff.Load() && artifact.Cacheable(t) {
			if serr := c.store(key, t, mdlSource, ropts); serr != nil {
				c.diskFail(key, serr)
			}
		}
	}
	c.mu.Lock()
	delete(c.flight, key)
	if err == nil && artifact.Cacheable(entry.target) {
		c.insert(key, entry)
		c.stats.PrewarmLoads++
	}
	c.mu.Unlock()
	f.entry, f.err = entry, err
	close(f.done)
	if err != nil {
		c.cPrewarm.With("error").Inc()
		return Miss, err
	}
	c.cPrewarm.With("retargeted").Inc()
	return Miss, nil
}

// adoptPrewarmed inserts a tier-decoded entry under pre-warm
// attribution, preferring a concurrently inserted one.
func (c *Cache) adoptPrewarmed(key string, entry *Entry, outcome string) {
	c.mu.Lock()
	if _, ok := c.byKey[key]; !ok {
		c.insert(key, entry)
		c.stats.PrewarmLoads++
	}
	c.mu.Unlock()
	c.cPrewarm.With(outcome).Inc()
}

// insert adds an entry to the memory tier, evicting from the LRU tail.
// Caller holds c.mu.
func (c *Cache) insert(key string, e *Entry) {
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.opts.MaxEntries {
		tail := c.lru.Back()
		victim := c.lru.Remove(tail).(*Entry)
		delete(c.byKey, victim.Key)
		c.stats.Evictions++
		c.cEvictions.Inc()
	}
}
