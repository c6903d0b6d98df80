package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	latMS     []float64 // latency of each successful op
	endS      []float64 // its completion, in seconds since the loop started
	keys      []string  // its input's key
	attempted int
	failed    int
	wall      time.Duration
	errs      []error
}

func (l *loopResult) throughput() float64 {
	return float64(len(l.latMS)) / l.wall.Seconds()
}

// closedLoop runs workers goroutines for d; each calls its op back to back
// and waits for it before issuing the next.  newOp builds a worker's op
// (with its own input stream) before the clock starts.
func closedLoop(workers int, d time.Duration, newOp func(worker int) opFunc) *loopResult {
	ops := make([]opFunc, workers)
	for i := range ops {
		ops[i] = newOp(i)
	}
	type part struct {
		lat, end []float64
		keys     []string
		errs     []error
		n        int
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				key, err := ops[i]()
				el := time.Since(t0)
				p.n++
				if err != nil {
					p.errs = append(p.errs, err)
					continue
				}
				p.lat = append(p.lat, ms(el))
				p.end = append(p.end, time.Since(start).Seconds())
				p.keys = append(p.keys, key)
			}
		}(i)
	}
	wg.Wait()
	res := &loopResult{wall: time.Since(start)}
	for _, p := range parts {
		res.latMS = append(res.latMS, p.lat...)
		res.endS = append(res.endS, p.end...)
		res.keys = append(res.keys, p.keys...)
		res.errs = append(res.errs, p.errs...)
		res.attempted += p.n
		res.failed += len(p.errs)
	}
	return res
}

// account adds a phase's ops and failures to the run.
func (r *run) account(l *loopResult) {
	r.attempted += l.attempted
	for _, err := range l.errs {
		r.fail(err)
	}
}

// A timed phase is cut into equal time windows by when each op completed,
// and every figure is the median over its windows, so a few seconds of
// interference from other tenants of the host move a few windows only.
// Throughput and p50 use windows; p99 uses as many windows (at most
// maxP99Windows) as give each window p99Samples samples, so each window's
// p99 has ten samples beyond it, or the whole phase when it has fewer.
const (
	windows       = 10
	p99Samples    = 1000
	maxP99Windows = 25
)

// latencyValues puts the closed-loop figures into values.
//
// The inputs of a workload (models, kernels) differ in cost by up to two
// orders of magnitude, so a pooled median falls between two inputs' costs
// and jumps with the mix; a window's p50 is each input's median combined
// by geometric mean, weighting inputs equally as Table 3 and Figure 2 do.
func latencyValues(values map[string]float64, l *loopResult) {
	width := l.wall.Seconds() / windows
	var tput, p99 []float64
	for _, idx := range split(l, windows) {
		tput = append(tput, float64(len(idx))/width)
	}
	// A window without every input has no comparable p50; a run too short
	// for any complete window takes the whole phase as one.
	inputs := len(distinct(l.keys))
	p50 := inputP50s(l, split(l, windows), inputs)
	if len(p50) == 0 {
		p50 = inputP50s(l, split(l, 1), inputs)
	}
	for _, idx := range split(l, p99Windows(len(l.latMS))) {
		if len(idx) > 0 {
			lat := make([]float64, len(idx))
			for j, i := range idx {
				lat[j] = l.latMS[i]
			}
			p99 = append(p99, quantile(lat, 0.99))
		}
	}
	values["throughput_ops_s"] = median(tput)
	values["latency_p50_ms"] = median(p50)
	values["latency_p99_ms"] = median(p99)
}

// inputP50s returns, for each window holding every input, the geometric
// mean of the inputs' median latencies.
func inputP50s(l *loopResult, parts [][]int, inputs int) []float64 {
	var out []float64
	for _, idx := range parts {
		byKey := make(map[string][]float64)
		for _, i := range idx {
			byKey[l.keys[i]] = append(byKey[l.keys[i]], l.latMS[i])
		}
		if len(byKey) < inputs {
			continue
		}
		var medians []float64
		for _, lat := range byKey {
			medians = append(medians, median(lat))
		}
		out = append(out, geomean(medians))
	}
	return out
}

func p99Windows(n int) int { return min(maxP99Windows, max(1, n/p99Samples)) }

// split cuts the phase's ops into k equal time windows by when each op
// completed and returns each window's op indices.
func split(l *loopResult, k int) [][]int {
	width := l.wall.Seconds() / float64(k)
	out := make([][]int, k)
	for i, end := range l.endS {
		w := min(int(end/width), k-1)
		out[w] = append(out[w], i)
	}
	return out
}

func distinct(keys []string) map[string]bool {
	set := make(map[string]bool)
	for _, k := range keys {
		set[k] = true
	}
	return set
}

func samplesRow(l *loopResult) row {
	n := len(l.latMS)
	k := p99Windows(n)
	beyond := n/k - int(math.Ceil(0.99*float64(n/k)))
	note := fmt.Sprintf("op latencies; p99 is the median over %d window(s)", k)
	if beyond < 10 {
		note = "WARNING: fewer than 10 samples beyond p99; run longer"
	}
	return row{"latency_samples", fmt.Sprintf("%d (%d beyond p99 per window)", n, beyond), note}
}

// procStatusMB reads one memory field (VmHWM, VmRSS) of a process ("self"
// or a pid) from /proc/<pid>/status, in MB.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s of %s: %w", field, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s for process %s", field, pid)
}

// rssSampler samples a process's resident set every 100ms until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				v, err := procStatusMB(pid, "VmRSS")
				if err != nil {
					s.err = err
					return
				}
				s.samples = append(s.samples, v)
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.samples) == 0 {
		return 0, fmt.Errorf("no resident-set sample")
	}
	return median(s.samples), nil
}
