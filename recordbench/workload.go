package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
)

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median.
	setupReps int
	// inProcess workloads run the program in the benchmark's own process
	// and report alloc_kb_per_op.
	inProcess bool
	// censusOps is the op count of the short traced census run when
	// another workload is the named one.
	censusOps int
	// prepare computes the untimed reference outputs once per run.
	prepare func(r *run) (prepared, error)
}

// prepared is a workload with its reference outputs computed.
type prepared interface {
	// setup builds the system under test; its cost is setup_s.
	setup(r *run) (fixture, error)
	// layers adds the workload's own layer measurements to a traced run;
	// primary is set when it is the named workload (more repetitions).
	layers(r *run, tr *tracer, fx fixture, primary bool, values map[string]float64) error
}

// opFunc performs one op and returns the key of its input (the model or
// kernel), by which latency_p50_ms is computed.
type opFunc func() (key string, err error)

// fixture is a set-up system under test.
type fixture interface {
	workers() int
	// op returns worker w's next-op function, drawing from the worker's
	// own seeded stream.  With traced set it calls the layers one by one
	// under spans; otherwise it calls the public entry point, with at
	// most one span around it when tr is not nil.
	op(w int, tr *tracer, traced bool) opFunc
	// finish runs the untimed correctness checks after the timed phase
	// and adds code_size_pct_hand and any workload rows.
	finish(r *run, values map[string]float64, rows *[]row) error
	// pid names the process doing the work for /proc ("self" or the
	// recordd child's pid).
	pid() string
	close()
}

var workloads = []*workload{table3Retarget, fig2Compile, serveHot, serveChurn}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// measure is the untraced run of a workload.
func (w *workload) measure(r *run) (map[string]float64, []row, error) {
	p, err := w.prepare(r)
	if err != nil {
		return nil, nil, err
	}
	var (
		fx     fixture
		setups []float64
	)
	for i := 0; i < w.setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		start := time.Now()
		if fx, err = p.setup(r); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss := sampleRSS(fx.pid())
	loop := closedLoop(fx.workers(), r.seconds, func(i int) opFunc { return fx.op(i, nil, false) })
	rssMedian, rssErr := rss.median()
	runtime.ReadMemStats(&m1)
	r.account(loop)
	if rssErr != nil {
		return nil, nil, rssErr
	}
	hwm, err := procStatusMB(fx.pid(), "VmHWM")
	if err != nil {
		return nil, nil, err
	}

	values := map[string]float64{"setup_s": median(setups), "rss_mb": rssMedian}
	latencyValues(values, loop)
	rows := []row{
		{"latency_p99_ms", fmt.Sprintf("%.6g ms", values["latency_p99_ms"]),
			"p99 op latency; median over up to 25 time windows of ≥1000 samples each"},
		samplesRow(loop),
		{"setup_samples_s", fmt.Sprint(setups), "setup_s is their median"},
		{"rss_hwm_mb", fmt.Sprintf("%.6g MB", hwm), "VmHWM of the same process, set-ups included"},
	}
	if w.inProcess {
		kb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(loop.attempted)
		rows = append(rows, row{"alloc_kb_per_op", fmt.Sprintf("%.6g KB", kb), "TotalAlloc delta ÷ ops"})
	}
	if err := fx.finish(r, values, &rows); err != nil {
		return nil, nil, err
	}
	if w == table3Retarget {
		rows = append(rows, row{"retarget_geomean_ms", fmt.Sprintf("%.6g ms", values["latency_p50_ms"]),
			"geomean over the six models of each one's median cold retarget (= latency_p50_ms here)"})
	}
	return values, rows, nil
}

// check counts one untimed correctness check as an attempted op.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func modelNames() []string {
	var out []string
	for _, e := range models.All() {
		out = append(out, e.Name)
	}
	return out
}

func kernelNames() []string {
	var out []string
	for _, k := range dspstone.Suite() {
		out = append(out, k.Name)
	}
	return out
}

// codeSize is Figure 2's axis: the geometric mean over the ten kernels of
// compiled words ÷ hand-written words × 100.
func codeSize(compiled map[string]expected) (float64, error) {
	var xs []float64
	for _, k := range dspstone.Suite() {
		c, ok := compiled[k.Name]
		if !ok {
			return 0, fmt.Errorf("code size: kernel %s not compiled", k.Name)
		}
		xs = append(xs, 100*float64(len(c.words))/float64(k.HandWords))
	}
	return geomean(xs), nil
}

// expected is a reference compile of one program.
type expected struct {
	words   []uint64
	listing string
}

// retarget is a cold core.RetargetContext with default options, as the
// record CLI and recordd run it.
func retarget(name string) (*core.Target, error) {
	src, ok := models.Get(name)
	if !ok {
		return nil, fmt.Errorf("no bundled model %q", name)
	}
	t, err := core.RetargetContext(context.Background(), src, core.RetargetOptions{})
	if err != nil {
		return nil, fmt.Errorf("retarget %s: %w", name, err)
	}
	return t, nil
}

// referenceCompile compiles src on t through a fresh Compiler and checks
// the simulated result against the IR interpreter.  It also compiles
// through Target.CompileSourceContext, the other compile path, which must
// give the same words.
func referenceCompile(r *run, c *core.Compiler, what, src string) (expected, error) {
	res, err := c.CompileSource(context.Background(), src)
	if err != nil {
		return expected{}, fmt.Errorf("%s: compile: %w", what, err)
	}
	r.check(wrap(what+": oracle", c.Target().CheckAgainstOracle(res)))
	other, err := c.Target().CompileSourceContext(context.Background(), src, core.CompileOptions{})
	if err != nil {
		return expected{}, fmt.Errorf("%s: compile: %w", what, err)
	}
	if !slices.Equal(res.Words(), other.Words()) {
		r.check(fmt.Errorf("%s: Compiler and Target compile paths disagree", what))
	}
	return expected{words: res.Words(), listing: c.Listing(res)}, nil
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// bag draws indices 0..n-1 from a seeded shuffled bag holding each index
// copies times, refilled when empty.  Every index has the same share of
// any full bag, so the mix of a run does not drift with the seed; with
// copies > 1 the same index can also come twice in a row, as in a uniform
// draw.
type bag struct {
	items []int
	next  int
	rng   *rand.Rand
}

func newBag(r *run, stream int64, n, copies int) *bag {
	b := &bag{rng: r.rng(stream)}
	for c := 0; c < copies; c++ {
		for i := 0; i < n; i++ {
			b.items = append(b.items, i)
		}
	}
	b.next = len(b.items)
	return b
}

func (b *bag) draw() int {
	if b.next == len(b.items) {
		b.rng.Shuffle(len(b.items), func(i, j int) { b.items[i], b.items[j] = b.items[j], b.items[i] })
		b.next = 0
	}
	b.next++
	return b.items[b.next-1]
}
