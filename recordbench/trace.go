package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/cfront"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ir"
	"repro/internal/ise"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/rewrite"
)

// span is one timed call into a layer's public function; key names the
// model or kernel the call worked on.
type span struct {
	layer, key string
	dur        time.Duration
}

// tracer keeps the spans and counts of a traced run in memory.  Counts are
// per (metric, key) and must repeat exactly: a second, different value for
// the same key is a fidelity failure.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]map[string]float64
}

func newTracer() *tracer {
	return &tracer{counts: make(map[string]map[string]float64)}
}

// span times f as one call into layer.  A nil tracer records nothing.
func (t *tracer) span(layer, key string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s := span{layer: layer, key: key, dur: time.Since(start)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count records a deterministic count and fails when it differs from an
// earlier value recorded for the same metric and key.
func (t *tracer) count(metric, key string, v float64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[metric]
	if m == nil {
		m = make(map[string]float64)
		t.counts[metric] = m
	}
	if old, ok := m[key]; ok && old != v {
		return fmt.Errorf("count %s[%s] changed from %v to %v", metric, key, old, v)
	}
	m[key] = v
	return nil
}

// durations returns the span durations of one layer, by key.
func (t *tracer) durations(layer string) map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		if s.layer == layer {
			out[s.key] = append(out[s.key], s.dur)
		}
	}
	return out
}

// medianBy returns each key's median duration of one layer, in unit.
func (t *tracer) medianBy(layer string, unit func(time.Duration) float64) map[string]float64 {
	out := make(map[string]float64)
	for k, ds := range t.durations(layer) {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = unit(d)
		}
		out[k] = median(xs)
	}
	return out
}

// pooled returns every duration of one layer, in unit, over all keys.
func (t *tracer) pooled(layer string, unit func(time.Duration) float64) []float64 {
	var xs []float64
	for _, ds := range t.durations(layer) {
		for _, d := range ds {
			xs = append(xs, unit(d))
		}
	}
	return xs
}

func (t *tracer) countSum(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := 0.0
	for _, v := range t.counts[metric] {
		s += v
	}
	return s
}

// geomeanOver is the geometric mean of per-key values over exactly the
// given keys; it fails when a key was never measured.
func geomeanOver(byKey map[string]float64, keys []string, what string) (float64, error) {
	xs := make([]float64, 0, len(keys))
	for _, k := range keys {
		v, ok := byKey[k]
		if !ok {
			return 0, fmt.Errorf("%s: no sample for %s", what, k)
		}
		xs = append(xs, v)
	}
	return geomean(xs), nil
}

func sumOver(byKey map[string]float64, keys []string, what string) (float64, error) {
	s := 0.0
	for _, k := range keys {
		v, ok := byKey[k]
		if !ok {
			return 0, fmt.Errorf("%s: no sample for %s", what, k)
		}
		s += v
	}
	return s, nil
}

// retargetPhases are the layers of a decomposed retarget, in order.
var retargetPhases = []string{
	"hdl.parse", "netlist.elaborate", "ise.extract", "rewrite.extend",
	"grammar.build", "burs.parser", "asm.encoder", "asm.freeze",
}

// compileStages are the layers of a decomposed compile, plus the listing.
var compileStages = []string{
	"cfront.parse", "bind.bind", "codegen.select", "opt.peephole",
	"compact.compact", "compact.verify", "asm.encode", "asm.listing",
}

// decomposedRetarget performs what core.RetargetContext does with default
// RetargetOptions, one layer call at a time, with a span around each call
// and the layer counts recorded per model.
func decomposedRetarget(tr *tracer, model, src string) (*core.Target, error) {
	var (
		m   *hdl.Model
		net *netlist.Netlist
		res *ise.Result
		g   *grammar.Grammar
		p   *burs.Parser
		enc *asm.Encoder
		err error
	)
	if tr.span("hdl.parse", model, func() { m, err = hdl.ParseAndCheck(src) }); err != nil {
		return nil, err
	}
	if tr.span("netlist.elaborate", model, func() { net, err = netlist.Elaborate(m) }); err != nil {
		return nil, err
	}
	if tr.span("ise.extract", model, func() { res, err = ise.Extract(net, ise.Options{}) }); err != nil {
		return nil, err
	}
	extracted := res.Base.Len()
	tr.span("rewrite.extend", model, func() { rewrite.Extend(res.Base, rewrite.DefaultOptions()) })
	if tr.span("grammar.build", model, func() { g, err = grammar.Build(res.Base, grammar.SpecFromNetlist(net)) }); err != nil {
		return nil, err
	}
	tr.span("burs.parser", model, func() { p = burs.NewParser(g) })
	var background []string
	for _, st := range net.Seq {
		if st.PC {
			background = append(background, st.QName())
		}
	}
	tr.span("asm.encoder", model, func() { enc = asm.NewEncoder(res.Vars, res.Base, background...) })
	tr.span("asm.freeze", model, func() { enc.Freeze() })

	for _, c := range []struct {
		metric string
		v      float64
	}{
		{"ise.routes", float64(res.Stats.RoutesEnumerated)},
		{"ise.templates", float64(extracted)},
		{"ise.bdd_nodes", float64(res.Stats.BDDNodes)},
		{"rewrite.templates", float64(res.Base.Len())},
		{"grammar.rules", float64(len(g.Rules))},
	} {
		if err := tr.count(c.metric, model, c.v); err != nil {
			return nil, err
		}
	}
	t := &core.Target{
		Name: net.Name, Model: m, Net: net, ISE: res, Base: res.Base,
		Grammar: g, Parser: p, Encoder: enc,
	}
	t.Stats.Extracted = extracted
	t.Stats.Templates = res.Base.Len()
	return t, nil
}

// decomposedCompile performs what core.Compiler.CompileSource does, one
// layer call at a time, in the given encoding session.  With counts set it
// also records the kernel's compile counts (the session must then be
// fresh, so its overlay size is the kernel's alone).
func decomposedCompile(tr *tracer, t *core.Target, sess *asm.Session, kernel, src string, counts bool) ([]uint64, error) {
	var (
		prog *ir.Program
		b    *bind.Binding
		ets  []*bind.ET
		gen  *codegen.Generator
		raw  *code.Seq
		seq  *code.Seq
		ost  opt.Stats
		prg  *code.Program
		err  error
	)
	if tr.span("cfront.parse", kernel, func() { prog, err = cfront.Parse(src) }); err != nil {
		return nil, err
	}
	tr.span("bind.bind", kernel, func() {
		if b, err = bind.Bind(prog, t.Net); err == nil {
			ets, err = b.LowerProgram(prog)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.span("codegen.select", kernel, func() {
		gen = codegen.New(t.Grammar, t.Parser, b)
		raw, err = gen.Compile(ets)
	})
	if err != nil {
		return nil, err
	}
	tr.span("opt.peephole", kernel, func() { seq, ost = opt.Optimize(raw) })
	if tr.span("compact.compact", kernel, func() { prg, err = compact.Compact(seq, sess, compact.Options{}) }); err != nil {
		return nil, err
	}
	if tr.span("compact.verify", kernel, func() { err = compact.Verify(seq, prg, sess) }); err != nil {
		return nil, err
	}
	if tr.span("asm.encode", kernel, func() { _, err = sess.EncodeProgram(prg) }); err != nil {
		return nil, err
	}
	words := make([]uint64, len(prg.Words))
	for i, w := range prg.Words {
		words[i] = w.Bits
	}
	if counts {
		for _, c := range []struct {
			metric string
			v      float64
		}{
			{"codegen.instrs", float64(gen.Stats.Instrs)},
			{"codegen.spills", float64(gen.Stats.Spills)},
			{"opt.removed", float64(ost.LoadsRemoved + ost.StoresRemoved)},
			{"compact.words", float64(prg.Len())},
			{"asm.overlay_nodes", float64(sess.OverlaySize())},
		} {
			if err := tr.count(c.metric, kernel, c.v); err != nil {
				return nil, err
			}
		}
	}
	return words, nil
}

// traceRun is the traced run of one workload.  Every workload is set up
// in turn: the named one runs for the measured time, alternating untraced
// and traced slices so the tracing overhead is measured on the same
// fixture; the others run a short traced census.  Each then adds its own
// layer measurements, and the per-layer metrics are derived from all the
// spans and counts.
func traceRun(r *run, primary *workload) (map[string]float64, []row, error) {
	tr := newTracer()
	values := make(map[string]float64)
	var rows []row
	for _, w := range workloads {
		isPrimary := w == primary
		p, err := w.prepare(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		fx, err := p.setup(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		err = func() error {
			defer fx.close()
			if isPrimary {
				ratio, err := interleave(r, fx, tr)
				if err != nil {
					return err
				}
				values["trace.overhead_ratio"] = ratio
			} else {
				for _, traced := range []bool{false, true} {
					r.account(fixedLoop(fx, tr, traced, w.censusOps))
				}
			}
			if err := p.layers(r, tr, fx, isPrimary, values); err != nil {
				return err
			}
			var finishRows []row // the untraced run's rows; not repeated here
			return fx.finish(r, map[string]float64{}, &finishRows)
		}()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if err := deriveLayers(tr, values); err != nil {
		return nil, nil, err
	}
	rows = append(rows, phaseRows(tr)...)
	rows = append(rows, row{"spans", fmt.Sprint(len(tr.spans)), "layer calls recorded"})
	return values, rows, nil
}

// interleave runs the fixture for the measured time in alternating
// untraced and traced slices and returns traced ÷ untraced throughput.
func interleave(r *run, fx fixture, tr *tracer) (float64, error) {
	const slices = 10
	slice := r.seconds / slices
	var n [2]int
	var wall [2]time.Duration
	// Each worker keeps one input stream per mode across the slices.
	var ops [2][]opFunc
	for mode := range ops {
		for w := 0; w < fx.workers(); w++ {
			ops[mode] = append(ops[mode], fx.op(w, tr, mode == 1))
		}
	}
	for i := 0; i < slices; i++ {
		mode := i % 2
		l := closedLoop(fx.workers(), slice, func(w int) opFunc { return ops[mode][w] })
		r.account(l)
		n[mode] += len(l.latMS)
		wall[mode] += l.wall
	}
	if n[0] == 0 || n[1] == 0 {
		return 0, fmt.Errorf("no op completed in a slice")
	}
	return (float64(n[1]) / wall[1].Seconds()) / (float64(n[0]) / wall[0].Seconds()), nil
}

// fixedLoop runs ops ops spread over the fixture's workers.
func fixedLoop(fx fixture, tr *tracer, traced bool, ops int) *loopResult {
	workers := fx.workers()
	res := &loopResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		op := fx.op(w, tr, traced)
		n := ops / workers
		if w < ops%workers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				_, err := op()
				el := ms(time.Since(t0))
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					res.errs = append(res.errs, err)
				} else {
					res.latMS = append(res.latMS, el)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// deriveLayers turns the recorded spans and counts into per-layer metrics.
func deriveLayers(tr *tracer, values map[string]float64) error {
	models := modelNames()
	kernels := kernelNames()
	for _, layer := range retargetPhases {
		v, err := geomeanOver(tr.medianBy(layer, ms), models, layer)
		if err != nil {
			return err
		}
		values[layer+"_ms"] = v
	}
	cold := tr.medianBy("core.retarget", ms)
	for _, m := range models {
		v, ok := cold[m]
		if !ok {
			return fmt.Errorf("core.retarget: no sample for %s", m)
		}
		values["core.retarget_ms."+m] = v
	}
	for _, layer := range compileStages {
		v, err := sumOver(tr.medianBy(layer, us), kernels, layer)
		if err != nil {
			return err
		}
		values[layer+"_us"] = v
	}
	for _, c := range []string{
		"ise.routes", "ise.templates", "ise.bdd_nodes", "rewrite.templates", "grammar.rules",
		"codegen.instrs", "codegen.spills", "opt.removed", "compact.words", "asm.overlay_nodes",
	} {
		values[c] = tr.countSum(c)
	}
	values["ise.useful_ratio"] = values["ise.templates"] / values["ise.routes"]

	var err error
	if values["core.retarget_geomean_ms"], err = geomeanOver(cold, models, "core.retarget"); err != nil {
		return err
	}
	for _, layer := range []string{"artifact.decode", "artifact.target", "rcache.disk_load"} {
		if values[layer+"_ms"], err = geomeanOver(tr.medianBy(layer, ms), models, layer); err != nil {
			return err
		}
	}
	values["rcache.disk_vs_cold"] = values["core.retarget_geomean_ms"] / values["rcache.disk_load_ms"]
	hit := tr.pooled("rcache.mem_hit", us)
	if len(hit) == 0 {
		return fmt.Errorf("rcache.mem_hit: no samples")
	}
	values["rcache.mem_hit_us"] = median(hit)
	return nil
}

// phaseRows breaks each model's retarget into its phases' medians, with
// the freeze share of the model's cold retarget.
func phaseRows(tr *tracer) []row {
	cold := tr.medianBy("core.retarget", ms)
	byPhase := make(map[string]map[string]float64)
	for _, layer := range retargetPhases {
		byPhase[layer] = tr.medianBy(layer, ms)
	}
	var rows []row
	for _, m := range modelNames() {
		var parts []string
		for _, layer := range retargetPhases {
			parts = append(parts, fmt.Sprintf("%s=%.3g", layer, byPhase[layer][m]))
		}
		rows = append(rows, row{"phases_ms." + m, strings.Join(parts, " "),
			fmt.Sprintf("asm.freeze is %.0f%% of core.retarget_ms.%s", 100*byPhase["asm.freeze"][m]/cold[m], m)})
	}
	return rows
}
