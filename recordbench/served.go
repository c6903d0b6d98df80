package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
	"repro/internal/rcache"
)

// daemon is a recordd child process built from the tree under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	exited chan struct{} // closed once stdout hit EOF and Wait returned
}

// startDaemon starts recordd on a free loopback port with the given flags
// besides -addr and waits until /healthz answers 200.
func startDaemon(r *run, flags ...string) (*daemon, error) {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(r.recordd, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Dir = r.workdir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer), exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start recordd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " listening on "); i >= 0 {
				rest := line[i+len(" listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addr <- rest:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("recordd exited at start: %s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("recordd did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("recordd not healthy after 30s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM (recordd drains), then SIGKILL after a grace, and
// waits until the process has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// recorddHasFlag reports whether `recordd -h` lists a flag.
func recorddHasFlag(r *run, name string) bool {
	out, _ := exec.Command(r.recordd, "-h").CombinedOutput()
	return bytes.Contains(out, []byte("-"+name+" "))
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	base  string
	trace *httptrace.ClientTrace
}

type compileReply struct {
	Cache   string   `json:"cache"`
	Words   []uint64 `json:"words"`
	Listing string   `json:"listing"`
}

// newClient makes a client that holds at most one connection and counts
// every new connection it dials in conns.
func newClient(base string, conns *atomic.Int64) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: 150 * time.Second},
		tr:   tr,
		base: base,
		trace: &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				conns.Add(1)
			}
		}},
	}
}

// compile POSTs one /v1/compile by model name, drains the whole body so
// the connection is reused, and returns the reply and the body size.
func (c *client) compile(model, src string) (*compileReply, int, error) {
	body, err := json.Marshal(map[string]string{"model_name": model, "source": src})
	if err != nil {
		return nil, 0, err
	}
	ctx := httptrace.WithClientTrace(context.Background(), c.trace)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(data), fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	var rep compileReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, len(data), fmt.Errorf("reply: %w", err)
	}
	return &rep, len(data), nil
}

// checkReply compares a served compile with the in-process reference,
// byte for byte.
func checkReply(what string, rep *compileReply, exp expected) error {
	if !slices.Equal(rep.Words, exp.words) {
		return fmt.Errorf("%s: served words differ from the in-process compile", what)
	}
	if rep.Listing != exp.listing {
		return fmt.Errorf("%s: served listing differs from the in-process compile", what)
	}
	return nil
}

// served is what the two served fixtures share: the daemon, one client per
// worker and the wire counters of the traced ops.
type served struct {
	r       *run
	d       *daemon
	clients []*client
	conns   atomic.Int64

	mu       sync.Mutex
	outcomes map[string]int // reply cache field, traced ops only
	bytes    int64          // response bytes, traced ops only
	replies  int
}

func newServed(r *run, flags ...string) (*served, error) {
	d, err := startDaemon(r, flags...)
	if err != nil {
		return nil, err
	}
	s := &served{r: r, d: d, outcomes: make(map[string]int)}
	for i := 0; i < r.nproc; i++ {
		s.clients = append(s.clients, newClient(d.base, &s.conns))
	}
	return s, nil
}

func (s *served) workers() int { return len(s.clients) }

func (s *served) pid() string { return strconv.Itoa(s.d.cmd.Process.Pid) }

func (s *served) close() {
	for _, c := range s.clients {
		c.tr.CloseIdleConnections()
	}
	s.d.stop()
}

// request is one served op: compile src on model as worker w, check the
// reply and, when traced, record a span and the wire counters.
func (s *served) request(w int, tr *tracer, traced bool, layer, model, key, src string, exp expected) error {
	var (
		rep  *compileReply
		size int
		err  error
	)
	call := func() { rep, size, err = s.clients[w].compile(model, src) }
	if traced {
		tr.span(layer, key, call)
	} else {
		call()
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", model, key, err)
	}
	if traced {
		s.mu.Lock()
		s.outcomes[rep.Cache]++
		s.bytes += int64(size)
		s.replies++
		s.mu.Unlock()
	}
	return checkReply(model+"/"+key, rep, exp)
}

func (s *served) connectionsRow() row {
	return row{"recordd.connections", fmt.Sprint(s.conns.Load()), fmt.Sprintf("TCP connections dialled by %d keep-alive clients", len(s.clients))}
}

// ---- serve-hot ------------------------------------------------------------

var serveHot = &workload{
	name: "serve-hot",
	why: "recordd with default flags; nproc keep-alive clients POST /v1/compile of seeded DSPStone kernel draws on tms320c25: " +
		"every request is a memory-tier hit, service and compile layers work",
	setupReps: 5,
	censusOps: 400,
	prepare:   prepareHot,
}

type hotPrepared struct {
	kernels []dspstone.Kernel
	c       *core.Compiler
	exp     map[string]expected
}

func prepareHot(r *run) (prepared, error) {
	c, exp, err := referenceKernels(r)
	if err != nil {
		return nil, err
	}
	return &hotPrepared{kernels: dspstone.Suite(), c: c, exp: exp}, nil
}

// referenceKernels compiles the ten kernels in process on tms320c25 and
// checks each on the simulator.
func referenceKernels(r *run) (*core.Compiler, map[string]expected, error) {
	t, err := retarget("tms320c25")
	if err != nil {
		return nil, nil, err
	}
	c, err := core.NewCompiler(t, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	exp := make(map[string]expected)
	for _, k := range dspstone.Suite() {
		if exp[k.Name], err = referenceCompile(r, c, "tms320c25/"+k.Name, k.Source); err != nil {
			return nil, nil, err
		}
	}
	return c, exp, nil
}

type hotFixture struct {
	*served
	p *hotPrepared
}

// hotWarmupRounds is how many times each client requests every kernel
// before timing; the first request retargets tms320c25.
const hotWarmupRounds = 2

func (p *hotPrepared) setup(r *run) (fixture, error) {
	s, err := newServed(r)
	if err != nil {
		return nil, err
	}
	fx := &hotFixture{served: s, p: p}
	if err := warmUp(s, hotWarmupRounds*len(p.kernels), func(w int) opFunc { return fx.op(w, nil, false) }); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

// warmUp runs n ops on every client concurrently.
func warmUp(s *served, n int, newOp func(w int) opFunc) error {
	errs := make([]error, s.workers())
	var wg sync.WaitGroup
	for w := range s.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := newOp(w)
			for i := 0; i < n && errs[w] == nil; i++ {
				_, errs[w] = op()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (fx *hotFixture) op(w int, tr *tracer, traced bool) opFunc {
	rng := fx.r.rng(int64(w))
	return func() (string, error) {
		k := fx.p.kernels[rng.Intn(len(fx.p.kernels))]
		return k.Name, fx.request(w, tr, traced, "recordd.request", "tms320c25", k.Name, k.Source, fx.p.exp[k.Name])
	}
}

// finish: every reply was compared byte for byte with the simulator-checked
// in-process compile, so the reference gives the code size.
func (fx *hotFixture) finish(r *run, values map[string]float64, rows *[]row) error {
	*rows = append(*rows, fx.connectionsRow())
	var err error
	values["code_size_pct_hand"], err = codeSize(fx.p.exp)
	return err
}

// layers: the in-process compile + listing the service wraps, the memory
// tier hit, and the wire figures of the traced requests.
func (p *hotPrepared) layers(r *run, tr *tracer, fxi fixture, primary bool, values map[string]float64) error {
	fx := fxi.(*hotFixture)
	rounds, hits := 5, 50
	if primary {
		rounds, hits = 30, 300
	}
	var inProcess []float64
	for i := 0; i < rounds; i++ {
		for _, k := range p.kernels {
			var (
				res *core.CompileResult
				err error
			)
			start := time.Now()
			tr.span("core.compile", k.Name, func() { res, err = p.c.CompileSource(context.Background(), k.Source) })
			if err != nil {
				r.check(err)
				continue
			}
			tr.span("asm.listing", k.Name, func() { p.c.Target().Encoder.Listing(res.Code) })
			inProcess = append(inProcess, ms(time.Since(start)))
		}
	}
	served := tr.pooled("recordd.request", ms)
	if len(served) == 0 || len(inProcess) == 0 {
		return fmt.Errorf("no served or in-process samples")
	}
	values["recordd.overhead_ms"] = median(served) - median(inProcess)

	c, err := rcache.New(rcache.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	mdl, _ := models.Get("tms320c25")
	if _, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
		return err
	}
	for i := 0; i < hits; i++ {
		var outcome rcache.Outcome
		tr.span("rcache.mem_hit", "tms320c25", func() {
			_, outcome, err = c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		})
		if err == nil && outcome != rcache.Mem {
			err = fmt.Errorf("warm GetContext: outcome %s, want %s", outcome, rcache.Mem)
		}
		r.check(err)
	}

	fx.mu.Lock()
	defer fx.mu.Unlock()
	if fx.replies == 0 {
		return fmt.Errorf("no traced replies")
	}
	values["recordd.response_kb"] = float64(fx.bytes) / 1024 / float64(fx.replies)
	values["recordd.connections"] = float64(fx.conns.Load())
	return nil
}

// ---- serve-churn ----------------------------------------------------------

// churnProgram is the six-model smoke program of internal/models' tests:
// every bundled datapath can express it, so compile work is tiny.
const churnProgram = `
int a = 7;
int b = 9;
int s;
int d;
s = a + b;
d = s - 3;
`

var serveChurn = &workload{
	name: "serve-churn",
	why: "recordd with -cache-dir and -cache-size 2; nproc clients compile the smoke program on seeded balanced draws of the six " +
		"models: most requests refill from the artifact tier",
	setupReps: 5,
	censusOps: 120,
	prepare:   prepareChurn,
}

type churnPrepared struct {
	models   []models.Entry
	targets  map[string]*core.Target
	exp      map[string]expected // smoke program per model
	c25      *core.Compiler
	kernels  map[string]expected // the ten kernels on tms320c25
	cacheDir bool                // recordd still has a disk tier
}

func prepareChurn(r *run) (prepared, error) {
	p := &churnPrepared{
		models:   models.All(),
		targets:  make(map[string]*core.Target),
		exp:      make(map[string]expected),
		cacheDir: recorddHasFlag(r, "cache-dir"),
	}
	for _, e := range p.models {
		t, err := retarget(e.Name)
		if err != nil {
			return nil, err
		}
		c, err := core.NewCompiler(t, core.Config{})
		if err != nil {
			return nil, err
		}
		p.targets[e.Name] = t
		if p.exp[e.Name], err = referenceCompile(r, c, e.Name+"/smoke", churnProgram); err != nil {
			return nil, err
		}
	}
	var err error
	p.c25, p.kernels, err = referenceKernels(r)
	return p, err
}

type churnFixture struct {
	*served
	p   *churnPrepared
	dir string
}

// churnBagCopies is how many times each model is in a client's draw bag:
// enough that a model often comes again while still in the 2-entry memory
// tier, as under a uniform draw, while each bag of 24 holds exactly four
// ref requests, the slow ones, so throughput does not follow the seed.
const churnBagCopies = 4

// churnWarmupOps is how many requests each client sends after the six
// priming compiles and before timing.
const churnWarmupOps = 6

func (p *churnPrepared) setup(r *run) (fixture, error) {
	flags := []string{"-cache-size", "2"}
	dir := ""
	if p.cacheDir {
		var err error
		if dir, err = r.tempDir("artifacts-"); err != nil {
			return nil, err
		}
		flags = append(flags, "-cache-dir", dir)
	}
	s, err := newServed(r, flags...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fx := &churnFixture{served: s, p: p, dir: dir}
	for _, e := range p.models {
		if err := fx.request(0, nil, false, "", e.Name, "smoke", churnProgram, p.exp[e.Name]); err != nil {
			fx.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	if err := warmUp(s, churnWarmupOps, func(w int) opFunc { return fx.op(w, nil, false) }); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *churnFixture) close() {
	fx.served.close()
	if fx.dir != "" {
		os.RemoveAll(fx.dir)
	}
}

func (fx *churnFixture) op(w int, tr *tracer, traced bool) opFunc {
	draws := newBag(fx.r, int64(w), len(fx.p.models), churnBagCopies)
	return func() (string, error) {
		e := fx.p.models[draws.draw()]
		return e.Name, fx.request(w, tr, traced, "recordd.churn_request", e.Name, "smoke", churnProgram, fx.p.exp[e.Name])
	}
}

// finish compiles the ten kernels through the daemon, untimed, checks them
// byte for byte against the in-process compile and takes the code size.
func (fx *churnFixture) finish(r *run, values map[string]float64, rows *[]row) error {
	served := make(map[string]expected)
	for _, k := range dspstone.Suite() {
		rep, _, err := fx.clients[0].compile("tms320c25", k.Source)
		if err == nil {
			err = checkReply("tms320c25/"+k.Name, rep, fx.p.kernels[k.Name])
		}
		r.check(err)
		if err != nil {
			continue
		}
		served[k.Name] = expected{words: rep.Words, listing: rep.Listing}
	}
	*rows = append(*rows, fx.connectionsRow())
	var err error
	values["code_size_pct_hand"], err = codeSize(served)
	return err
}

// layers: the reply tier fractions of the traced requests, and the
// artifact tier's steps per model — encode, decode, rebuild, and a fresh
// cache loading it from a populated directory.
func (p *churnPrepared) layers(r *run, tr *tracer, fxi fixture, primary bool, values map[string]float64) error {
	fx := fxi.(*churnFixture)
	fx.mu.Lock()
	total := 0
	for _, n := range fx.outcomes {
		total += n
	}
	if total == 0 {
		fx.mu.Unlock()
		return fmt.Errorf("no traced replies")
	}
	for name, outcome := range map[string]rcache.Outcome{
		"rcache.mem_hit_frac": rcache.Mem, "rcache.disk_hit_frac": rcache.Disk,
		"rcache.miss_frac": rcache.Miss,
	} {
		values[name] = float64(fx.outcomes[string(outcome)]) / float64(total)
	}
	fx.mu.Unlock()

	reps := 2
	if primary {
		reps = 5
	}
	dir, err := r.tempDir("disk-load-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fill, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer fill.Close()
	total = 0
	for _, e := range p.models {
		a, err := artifact.New(p.targets[e.Name], e.MDL, core.RetargetOptions{})
		if err != nil {
			return fmt.Errorf("artifact %s: %w", e.Name, err)
		}
		data, err := a.Encode()
		if err != nil {
			return fmt.Errorf("artifact %s: %w", e.Name, err)
		}
		total += len(data)
		if _, _, err := fill.GetContext(context.Background(), e.MDL, core.RetargetOptions{}); err != nil {
			return fmt.Errorf("populate %s: %w", e.Name, err)
		}
		for i := 0; i < reps; i++ {
			var dec *artifact.Artifact
			if tr.span("artifact.decode", e.Name, func() { dec, err = artifact.Decode(data) }); err != nil {
				return fmt.Errorf("decode %s: %w", e.Name, err)
			}
			var t *core.Target
			if tr.span("artifact.target", e.Name, func() { t, err = dec.Target() }); err != nil {
				return fmt.Errorf("artifact target %s: %w", e.Name, err)
			}
			if t.Stats.Templates != p.targets[e.Name].Stats.Templates {
				r.check(fmt.Errorf("artifact %s: %d templates, retarget had %d", e.Name, t.Stats.Templates, p.targets[e.Name].Stats.Templates))
			}
			var outcome rcache.Outcome
			tr.span("rcache.disk_load", e.Name, func() {
				var c *rcache.Cache
				if c, err = rcache.New(rcache.Options{Dir: dir}); err != nil {
					return
				}
				_, outcome, err = c.GetContext(context.Background(), e.MDL, core.RetargetOptions{})
				c.Close()
			})
			if err == nil && outcome != rcache.Disk {
				err = fmt.Errorf("fresh cache on a populated directory: outcome %s, want %s", outcome, rcache.Disk)
			}
			r.check(wrap("disk load "+e.Name, err))
		}
	}
	if err := tr.count("artifact.bytes", "all", float64(total)); err != nil {
		return err
	}
	values["artifact.bytes"] = float64(total)
	return nil
}
