package qos

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// popEntry is one tracked key: an exponentially-decayed hit score and
// the model source that can rebuild it if the artifact is gone.
type popEntry struct {
	score float64
	stamp time.Time
	src   string
}

// Popularity tracks decayed per-model-key hit counts.  Every served
// request Touches its key; scores halve every half-life, so a model
// that was hot an hour ago and silent since drops off the pre-warm
// list by itself.  A nil *Popularity forgets everything.
type Popularity struct {
	mu       sync.Mutex
	halfLife time.Duration
	max      int
	now      func() time.Time
	entries  map[string]*popEntry
}

// HotKey is one entry of Popularity.Top: a model's artifact key, the
// MDL source it was last requested with (empty for by-key requests),
// and its decayed score at the time of the call.
type HotKey struct {
	Key    string
	Source string
	Score  float64
}

// NewPopularity builds a tracker.  halfLife defaults to 10 minutes,
// max (the entry bound; lowest-score entries are evicted beyond it) to
// 256, and now to time.Now — now is injectable so tests can step decay
// deterministically.
func NewPopularity(halfLife time.Duration, max int, now func() time.Time) *Popularity {
	if halfLife <= 0 {
		halfLife = 10 * time.Minute
	}
	if max <= 0 {
		max = 256
	}
	if now == nil {
		now = time.Now
	}
	return &Popularity{
		halfLife: halfLife,
		max:      max,
		now:      now,
		entries:  make(map[string]*popEntry),
	}
}

// decayLocked brings e's score forward to t.
func (p *Popularity) decayLocked(e *popEntry, t time.Time) {
	if dt := t.Sub(e.stamp); dt > 0 {
		e.score *= math.Exp2(-float64(dt) / float64(p.halfLife))
		e.stamp = t
	}
}

// Touch records one hit for key.  A non-empty source is remembered so
// the pre-warmer can re-retarget the model even after its artifact was
// evicted from every tier; an empty source keeps whatever was known.
func (p *Popularity) Touch(key, source string) {
	if p == nil || key == "" {
		return
	}
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[key]
	if e == nil {
		e = &popEntry{stamp: t}
		p.entries[key] = e
	}
	p.decayLocked(e, t)
	e.score++
	if source != "" {
		e.src = source
	}
	if len(p.entries) > p.max {
		p.evictColdestLocked(t)
	}
}

// evictColdestLocked drops the lowest-score entry (ties: largest key,
// for determinism).
func (p *Popularity) evictColdestLocked(t time.Time) {
	var victim string
	worst := math.Inf(1)
	for k, e := range p.entries {
		p.decayLocked(e, t)
		if e.score < worst || (e.score == worst && k > victim) {
			worst, victim = e.score, k
		}
	}
	if victim != "" {
		delete(p.entries, victim)
	}
}

// Top returns the n hottest keys by decayed score, descending (ties by
// key, ascending, so the order is deterministic).
func (p *Popularity) Top(n int) []HotKey {
	if p == nil || n <= 0 {
		return nil
	}
	t := p.now()
	p.mu.Lock()
	hot := make([]HotKey, 0, len(p.entries))
	for k, e := range p.entries {
		p.decayLocked(e, t)
		hot = append(hot, HotKey{Key: k, Source: e.src, Score: e.score})
	}
	p.mu.Unlock()
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Score != hot[j].Score {
			return hot[i].Score > hot[j].Score
		}
		return hot[i].Key < hot[j].Key
	})
	if len(hot) > n {
		hot = hot[:n]
	}
	return hot
}

// Len reports the tracked entry count.
func (p *Popularity) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Prewarmer drives speculative pre-warm: each Sweep asks the
// Popularity tracker for the hottest keys and, for every one not
// already warm, claims an idle-only slot lease from the Scheduler and
// runs Warm under the lease context.  Real traffic always wins — a
// busy pool skips the sweep, and an arriving request cancels the lease
// context mid-Warm (counted as a yield, not an error).
type Prewarmer struct {
	Sched *Scheduler
	Pop   *Popularity
	// Top is how many hot keys one sweep considers (default 4).
	Top int
	// IsWarm reports whether key already sits in the memory tier; warm
	// keys are skipped without taking a lease.
	IsWarm func(key string) bool
	// Warm loads one key into the memory tier (decode from disk, or
	// retarget from source).  It must honor ctx cancellation.
	Warm func(ctx context.Context, key, source string) error

	sweeps, warmed, yields, errs atomic.Uint64
}

// Sweep makes one pre-warm pass and reports how many keys were warmed.
// It never blocks real traffic: the first unavailable idle lease ends
// the sweep.
func (p *Prewarmer) Sweep(ctx context.Context) int {
	if p == nil || p.Pop == nil || p.Warm == nil {
		return 0
	}
	p.sweeps.Add(1)
	top := p.Top
	if top <= 0 {
		top = 4
	}
	n := 0
	for _, hk := range p.Pop.Top(top) {
		if ctx.Err() != nil {
			break
		}
		if p.IsWarm != nil && p.IsWarm(hk.Key) {
			continue
		}
		lease, release, ok := p.Sched.AcquireIdle(ctx)
		if !ok {
			break // pool busy: real traffic owns every slot
		}
		err := p.Warm(lease, hk.Key, hk.Source)
		yielded := lease.Err() != nil && ctx.Err() == nil
		release()
		switch {
		case err == nil:
			n++
			p.warmed.Add(1)
		case yielded:
			p.yields.Add(1)
			return n // a real request arrived: get out of its way
		default:
			p.errs.Add(1)
		}
	}
	return n
}

// Run sweeps on every interval tick until ctx ends.
func (p *Prewarmer) Run(ctx context.Context, interval time.Duration) {
	if p == nil {
		return
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.Sweep(ctx)
		}
	}
}

// Stats reports lifetime sweep counters: sweeps run, keys warmed,
// yields to real traffic, and warm errors.
func (p *Prewarmer) Stats() (sweeps, warmed, yields, errs uint64) {
	if p == nil {
		return 0, 0, 0, 0
	}
	return p.sweeps.Load(), p.warmed.Load(), p.yields.Load(), p.errs.Load()
}
