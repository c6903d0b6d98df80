// Command recordbench is the benchmark of the RECORD reproduction: it runs
// one named workload with a seed, measures it from outside the program and
// prints every metric by name and unit, ending with one JSON line.
//
//	recordbench -recordd <bin> -workdir <dir> -root <repo> \
//	    --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	recordbench ... --selftest
//	recordbench --compare <before.txt> <after.txt>
//
// run.sh builds this program and cmd/recordd from the checkout first.
// With --trace 0 the workload runs untraced and the last line carries the
// end-to-end metrics; with --trace 1 a separate traced run decomposes the
// pipeline at each layer's public functions and the last line carries the
// per-layer metrics (see metrics.go for both lists).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// run is the state shared by one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	recordd string // path of the recordd binary built from the tree under test
	workdir string // scratch directory inside the checkout
	nproc   int

	attempted, failed int
	failures          []string // first few failure messages, for stderr
}

// fail counts one failed operation and keeps its message.
func (r *run) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// rng returns a generator for one input stream of the run; distinct
// streams (clients, rounds) get distinct but seed-determined sequences.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// tempDir makes a fresh directory under the run's scratch directory.
func (r *run) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.workdir, pattern)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 25, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		recordd  = flag.String("recordd", "", "recordd binary built from the tree under test")
		workdir  = flag.String("workdir", "", "scratch directory inside the checkout")
		root     = flag.String("root", ".", "root of the checkout (holds BENCHMARK.json)")
		selftest = flag.Bool("selftest", false, "run every workload briefly and check the output contract")
		compare  = flag.Bool("compare", false, "compare two saved outputs: --compare before.txt after.txt")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two files")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *recordd == "" || *workdir == "" {
		fatalf("-recordd and -workdir are required (use run.sh)")
	}
	// recordd children run in the scratch directory, so paths must not
	// depend on the working directory.
	for _, p := range []*string{recordd, workdir, root} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			fatalf("%v", err)
		}
		*p = abs
	}
	if *selftest {
		if err := selfTest(*recordd, *workdir, *root); err != nil {
			fatalf("selftest: %v", err)
		}
		fmt.Println("selftest ok")
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be ≥1 and --trace 0 or 1")
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		recordd: *recordd,
		workdir: filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())),
		nproc:   runtime.NumCPU(),
	}
	defer os.RemoveAll(r.workdir)
	res, table, err := execute(r, *workload, *trace == 1, *root)
	if err != nil {
		os.RemoveAll(r.workdir)
		fatalf("%s: %v", *workload, err)
	}
	printTable(os.Stdout, table)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(r.workdir)
		os.Exit(1)
	}
}

// execute runs one workload and returns the JSON result plus the full
// human-readable table (which may hold more metrics than the JSON line).
func execute(r *run, name string, traced bool, root string) (*result, []row, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	host, err := hostShape(root)
	if err != nil {
		return nil, nil, err
	}
	var (
		values map[string]float64
		extra  []row
	)
	if traced {
		values, extra, err = traceRun(r, w)
	} else {
		values, extra, err = w.measure(r)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, msg := range r.failures {
		fmt.Fprintf(os.Stderr, "recordbench: failure: %s\n", msg)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	table := []row{{"host", host.String(), ""}, {"workload", name, w.why}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		table = append(table, row{s.name, fmt.Sprintf("%.6g %s", v, s.unit), s.moves})
	}
	table = append(table, extra...)
	table = append(table, row{"error_rate", fmt.Sprintf("%.6g fraction (%d/%d)", errorRate(r), r.failed, r.attempted), "failed ÷ attempted ops"})
	return res, table, nil
}

func errorRate(r *run) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// row is one line of the human-readable table printed before the JSON.
type row struct{ name, value, note string }

func printTable(f *os.File, rows []row) {
	for _, r := range rows {
		if r.note != "" {
			fmt.Fprintf(f, "%-28s %-34s  # %s\n", r.name, r.value, r.note)
		} else {
			fmt.Fprintf(f, "%-28s %s\n", r.name, r.value)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "recordbench: "+format+"\n", args...)
	os.Exit(2)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
