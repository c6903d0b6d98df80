package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
)

var table3Retarget = &workload{
	name: "table3-retarget",
	why: "in process, 1 goroutine, cold core.RetargetContext over the six bundled models in seeded shuffled rounds: " +
		"every retarget layer works, compile and service layers sit idle (Table 3)",
	setupReps: 3,
	inProcess: true,
	censusOps: 12,
	prepare:   func(r *run) (prepared, error) { return t3Prepared{}, nil },
}

type t3Prepared struct{}

type t3Fixture struct {
	r         *run
	models    []models.Entry
	templates map[string]int // per model, from the set-up retargets
	c25       *core.Target
}

// setup retargets every model once: the template counts every later
// round must repeat, and the warm-up of the timed loop.
func (t3Prepared) setup(r *run) (fixture, error) {
	fx := &t3Fixture{r: r, models: models.All(), templates: make(map[string]int)}
	for _, e := range fx.models {
		t, err := retarget(e.Name)
		if err != nil {
			return nil, err
		}
		fx.templates[e.Name] = t.Stats.Templates
		if e.Name == "tms320c25" {
			fx.c25 = t
		}
	}
	return fx, nil
}

func (fx *t3Fixture) workers() int { return 1 }

func (fx *t3Fixture) op(w int, tr *tracer, traced bool) opFunc {
	rounds := newBag(fx.r, int64(w), len(fx.models), 1)
	return func() (string, error) {
		e := fx.models[rounds.draw()]
		return e.Name, fx.retarget(tr, traced, e)
	}
}

func (fx *t3Fixture) retarget(tr *tracer, traced bool, e models.Entry) error {
	var (
		t   *core.Target
		err error
	)
	if traced {
		t, err = decomposedRetarget(tr, e.Name, e.MDL)
	} else {
		tr.span("core.retarget", e.Name, func() {
			t, err = core.RetargetContext(context.Background(), e.MDL, core.RetargetOptions{})
		})
	}
	if err != nil {
		return fmt.Errorf("retarget %s: %w", e.Name, err)
	}
	if t.Stats.Templates != fx.templates[e.Name] {
		return fmt.Errorf("retarget %s: %d templates, set-up retarget had %d", e.Name, t.Stats.Templates, fx.templates[e.Name])
	}
	return nil
}

// finish compiles the ten kernels on the set-up's tms320c25 target and
// checks each on the simulator: the code the retargeted selector makes.
func (fx *t3Fixture) finish(r *run, values map[string]float64, rows *[]row) error {
	c, err := core.NewCompiler(fx.c25, core.Config{})
	if err != nil {
		return err
	}
	compiled := make(map[string]expected)
	for _, k := range dspstone.Suite() {
		if compiled[k.Name], err = referenceCompile(r, c, "tms320c25/"+k.Name, k.Source); err != nil {
			return err
		}
	}
	values["code_size_pct_hand"], err = codeSize(compiled)
	return err
}

func (fx *t3Fixture) pid() string { return "self" }
func (fx *t3Fixture) close()      {}

// layers: the traced ops already cover every retarget layer.  Here the
// decomposed pipeline's tms320c25 selector must also compile the ten
// kernels to the same words as the set-up's core.RetargetContext one.
func (t3Prepared) layers(r *run, tr *tracer, fxi fixture, primary bool, values map[string]float64) error {
	fx := fxi.(*t3Fixture)
	mdl, _ := models.Get("tms320c25")
	t, err := decomposedRetarget(tr, "tms320c25", mdl)
	if err != nil {
		return err
	}
	decomposed, err := core.NewCompiler(t, core.Config{})
	if err != nil {
		return err
	}
	reference, err := core.NewCompiler(fx.c25, core.Config{})
	if err != nil {
		return err
	}
	for _, k := range dspstone.Suite() {
		a, err := decomposed.CompileSource(context.Background(), k.Source)
		if err != nil {
			return fmt.Errorf("decomposed tms320c25 selector: %s: %w", k.Name, err)
		}
		b, err := reference.CompileSource(context.Background(), k.Source)
		if err != nil {
			return fmt.Errorf("tms320c25: %s: %w", k.Name, err)
		}
		err = nil
		if !slices.Equal(a.Words(), b.Words()) {
			err = fmt.Errorf("decomposed tms320c25 selector: %s: words differ from core.RetargetContext's", k.Name)
		}
		r.check(err)
	}
	return nil
}

var fig2Compile = &workload{
	name: "fig2-compile",
	why: "in process, nproc goroutines share one core.Compiler on tms320c25 and compile seeded uniform draws of the ten " +
		"DSPStone kernels: compile layers work, retarget does none (Figure 2)",
	setupReps: 5,
	inProcess: true,
	censusOps: 300,
	prepare:   prepareFig2,
}

type f2Prepared struct {
	kernels []dspstone.Kernel
	exp     map[string]expected
}

// prepareFig2 compiles every kernel once on a separate c25 retarget,
// checks it on the simulator, and keeps the words every op must repeat.
func prepareFig2(r *run) (prepared, error) {
	t, err := retarget("tms320c25")
	if err != nil {
		return nil, err
	}
	c, err := core.NewCompiler(t, core.Config{})
	if err != nil {
		return nil, err
	}
	p := &f2Prepared{kernels: dspstone.Suite(), exp: make(map[string]expected)}
	for _, k := range p.kernels {
		if p.exp[k.Name], err = referenceCompile(r, c, "tms320c25/"+k.Name, k.Source); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type f2Fixture struct {
	r *run
	p *f2Prepared
	c *core.Compiler
}

// f2WarmupRounds is how many times each worker compiles every kernel
// before timing: it fills the session pool and settles the heap.
const f2WarmupRounds = 20

func (p *f2Prepared) setup(r *run) (fixture, error) {
	t, err := retarget("tms320c25")
	if err != nil {
		return nil, err
	}
	c, err := core.NewCompiler(t, core.Config{})
	if err != nil {
		return nil, err
	}
	fx := &f2Fixture{r: r, p: p, c: c}
	errs := make([]error, r.nproc)
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < f2WarmupRounds; i++ {
				for _, k := range p.kernels {
					if _, err := c.CompileSource(context.Background(), k.Source); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up compile: %w", err)
		}
	}
	return fx, nil
}

func (fx *f2Fixture) workers() int { return fx.r.nproc }

func (fx *f2Fixture) op(w int, tr *tracer, traced bool) opFunc {
	rng := fx.r.rng(int64(w))
	return func() (string, error) {
		k := fx.p.kernels[rng.Intn(len(fx.p.kernels))]
		words, err := fx.compile(tr, traced, k)
		if err != nil {
			return k.Name, fmt.Errorf("compile %s: %w", k.Name, err)
		}
		if !slices.Equal(words, fx.p.exp[k.Name].words) {
			return k.Name, fmt.Errorf("compile %s: words differ from the reference compile", k.Name)
		}
		return k.Name, nil
	}
}

func (fx *f2Fixture) compile(tr *tracer, traced bool, k dspstone.Kernel) ([]uint64, error) {
	if traced {
		sess := fx.c.AcquireSession()
		defer fx.c.ReleaseSession(sess)
		return decomposedCompile(tr, fx.c.Target(), sess, k.Name, k.Source, false)
	}
	var (
		res *core.CompileResult
		err error
	)
	tr.span("core.compile", k.Name, func() { res, err = fx.c.CompileSource(context.Background(), k.Source) })
	if err != nil {
		return nil, err
	}
	return res.Words(), nil
}

// finish: every op's words were compared with the simulator-checked
// reference compile, so the reference gives the code size.
func (fx *f2Fixture) finish(r *run, values map[string]float64, rows *[]row) error {
	var err error
	values["code_size_pct_hand"], err = codeSize(fx.p.exp)
	return err
}

func (fx *f2Fixture) pid() string { return "self" }
func (fx *f2Fixture) close()      {}

// layers adds the per-kernel compile counts (fresh session each), the
// Compiler's scaling efficiency and the two compile paths' cost ratio.
func (p *f2Prepared) layers(r *run, tr *tracer, fxi fixture, primary bool, values map[string]float64) error {
	fx := fxi.(*f2Fixture)
	t := fx.c.Target()
	for _, k := range p.kernels {
		words, err := decomposedCompile(tr, t, t.Encoder.NewSession(), k.Name, k.Source, true)
		r.check(err)
		if err == nil && !slices.Equal(words, p.exp[k.Name].words) {
			r.check(fmt.Errorf("decomposed compile %s: words differ from the reference compile", k.Name))
		}
	}

	d, rounds := 300*time.Millisecond, 5
	if primary {
		d, rounds = time.Second, 20
	}
	one := closedLoop(1, d, func(w int) opFunc { return fx.op(w, nil, false) })
	all := closedLoop(r.nproc, d, func(w int) opFunc { return fx.op(w, nil, false) })
	r.account(one)
	r.account(all)
	values["core.compiler_scaling_eff"] = all.throughput() / (float64(r.nproc) * one.throughput())

	var viaTarget, viaCompiler []float64
	for i := 0; i < rounds; i++ {
		for _, k := range p.kernels {
			start := time.Now()
			_, err := t.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
			viaTarget = append(viaTarget, ms(time.Since(start)))
			r.check(err)
			start = time.Now()
			_, err = fx.c.CompileSource(context.Background(), k.Source)
			viaCompiler = append(viaCompiler, ms(time.Since(start)))
			r.check(err)
		}
	}
	values["core.target_path_ratio"] = median(viaTarget) / median(viaCompiler)
	return nil
}
