// Command benchtraj appends BenchmarkParallelCompile results to the bench
// trajectory file — a JSON array tracking parallel-compile throughput
// across commits, so scaling regressions show up as data rather than
// anecdotes.  BenchmarkServerCompile* lines (recordd request latency on
// the happy path and under shedding) ride along in server_ns_per_op, so
// the resilience layers' overhead is tracked the same way, and
// BenchmarkCompile{Baseline,Traced} lines land in compile_ns_per_op —
// the per-compile cost without and with a live span-producing obs scope
// (repeat lines from -count N keep the minimum, so the floors are
// noise-free).  BenchmarkCompileTracedOverhead's "overhead" metric —
// measured by interleaving plain and traced compiles so machine-load
// drift cancels out of the ratio — lands in traced_overhead, which
// -max-traced-overhead turns into a CI ceiling on the tracing tax.
// BenchmarkTable3_<Model> lines (Table 3 retarget time) land in
// retarget_ns_per_op keyed by model name, minimum across repeats; that
// series is recorded, not gated.
//
// Usage:
//
//	go test -bench BenchmarkParallelCompile -benchtime 1s . | benchtraj -out bench/trajectory.json -label "$SHA"
//
// The tool parses the standard `go test -bench` text format, keeps only
// BenchmarkParallelCompile<N> lines, and appends one entry per invocation:
//
//	{"label": "...", "ns_per_op": {"1": 527672, "4": 1268698},
//	 "speedup_at_4": 0.41,
//	 "server_ns_per_op": {"base": 353216, "shed": 337470}}
//
// speedup_at_4 is ns/op(1 worker) / ns/op(4 workers): >1 means parallel
// compilation pays off (expect near-linear on multicore; ~1 or below on a
// single-CPU runner where workers only add scheduling overhead).
//
// With -phase-trace the entry additionally carries per-phase wall time
// summed from a Chrome trace produced by `record -trace`:
//
//	record -model demo -kernel fir -trace out.json
//	benchtraj -phase-trace out.json -out bench/trajectory.json -label "$SHA"
//
// When -phase-trace is given, bench input is optional: an entry with only
// phase_seconds is still recorded.
//
// Every new entry carries the shape of the host that appended it — CPU
// count, GOMAXPROCS, CPU model and Go version — so that timings are only
// ever compared with timings from the same kind of machine:
//
//	"host": {"nproc": 2, "gomaxprocs": 2, "cpu": "Intel(R) Xeon(R) ...", "go": "go1.24.0"}
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark run in the trajectory.
type Entry struct {
	Label          string             `json:"label"`
	NsPerOp        map[string]float64 `json:"ns_per_op,omitempty"`
	SpeedupAt4     float64            `json:"speedup_at_4,omitempty"`
	SpeedupAt16    float64            `json:"speedup_at_16,omitempty"`
	ServerNsPerOp  map[string]float64 `json:"server_ns_per_op,omitempty"`
	CompileNsPerOp map[string]float64 `json:"compile_ns_per_op,omitempty"`
	// RetargetNsPerOp is the Table 3 retarget time per bundled model.
	RetargetNsPerOp map[string]float64 `json:"retarget_ns_per_op,omitempty"`
	TracedOverhead  float64            `json:"traced_overhead,omitempty"`
	PhaseSeconds    map[string]float64 `json:"phase_seconds,omitempty"`
	// Host is the machine the entry was measured on; entries written
	// before hosts were recorded have none.
	Host *Host `json:"host,omitempty"`
}

// Host is the shape of the machine an entry was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// thisHost returns the shape of the machine benchtraj runs on, which in CI
// is the machine that just ran the benchmarks.
func thisHost() *Host {
	return &Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// errNoBench marks input that contained no benchmark lines — fatal on its
// own, tolerated when a phase trace supplies the entry's payload instead.
var errNoBench = errors.New("benchtraj: no BenchmarkParallelCompile, BenchmarkServerCompile, BenchmarkCompile{Baseline,Traced,TracedOverhead} or BenchmarkTable3_* lines in input")

var overheadLine = regexp.MustCompile(`^BenchmarkCompileTracedOverhead\S*\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) overhead`)

// series routes one family of ns/op benchmark lines into an Entry map.
// The first submatch is the benchmark suffix, renamed through keys (an
// unknown suffix keeps its own name); the second is ns/op.  keepMin keeps
// the minimum across repeated lines, so CI can run the family with
// -count N and record the noise-free floor rather than whichever single
// run the scheduler disturbed; otherwise the last line wins.
var series = []struct {
	line    *regexp.Regexp
	dst     func(*Entry) *map[string]float64
	keys    map[string]string
	keepMin bool
}{
	{regexp.MustCompile(`^BenchmarkParallelCompile(\d+)\S*\s+\d+\s+([\d.]+) ns/op`),
		func(e *Entry) *map[string]float64 { return &e.NsPerOp }, nil, false},
	{regexp.MustCompile(`^BenchmarkServerCompile(\w*)\S*\s+\d+\s+([\d.]+) ns/op`),
		func(e *Entry) *map[string]float64 { return &e.ServerNsPerOp },
		map[string]string{"": "base", "Shed": "shed", "QoS": "qos"}, false},
	{regexp.MustCompile(`^BenchmarkCompile(Baseline|Traced)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`),
		func(e *Entry) *map[string]float64 { return &e.CompileNsPerOp },
		map[string]string{"Baseline": "base", "Traced": "traced"}, true},
	{regexp.MustCompile(`^BenchmarkTable3_(\w+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`),
		func(e *Entry) *map[string]float64 { return &e.RetargetNsPerOp },
		map[string]string{"Demo": "demo", "Ref": "ref", "ManoCPU": "manocpu",
			"Tanenbaum": "tanenbaum", "BassBoost": "bass_boost", "TMS320C25": "tms320c25"}, true},
}

// parse extracts the benchmark payload of one entry from `go test -bench`
// output: worker-count → ns/op (parallel-compile lines), scenario → ns/op
// (server-latency lines), base/traced → ns/op (single-compile
// observability cost lines), model → ns/op (Table 3 retarget lines) and
// the interleaved traced/base overhead ratio (minimum across repeats).
// Series without lines stay nil.
func parse(r io.Reader) (Entry, error) {
	var e Entry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if m := overheadLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return Entry{}, fmt.Errorf("benchtraj: bad overhead in %q: %w", line, err)
			}
			if e.TracedOverhead == 0 || v < e.TracedOverhead {
				e.TracedOverhead = v
			}
			continue
		}
		for _, sr := range series {
			m := sr.line.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return Entry{}, fmt.Errorf("benchtraj: bad ns/op in %q: %w", line, err)
			}
			key := m[1]
			if k, ok := sr.keys[key]; ok {
				key = k
			}
			dst := sr.dst(&e)
			if *dst == nil {
				*dst = make(map[string]float64)
			}
			if prev, ok := (*dst)[key]; !ok || !sr.keepMin || v < prev {
				(*dst)[key] = v
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return Entry{}, err
	}
	if e.NsPerOp == nil && e.ServerNsPerOp == nil && e.CompileNsPerOp == nil &&
		e.RetargetNsPerOp == nil && e.TracedOverhead == 0 {
		return Entry{}, errNoBench
	}
	return e, nil
}

// parsePhaseTrace sums span durations per name from a Chrome trace_event
// JSON file (as written by `record -trace`), in seconds.
func parsePhaseTrace(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		return nil, fmt.Errorf("benchtraj: %s is not a Chrome trace: %w", path, err)
	}
	phases := make(map[string]float64)
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		phases[ev.Name] += ev.Dur / 1e6 // trace durations are microseconds
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("benchtraj: no complete (ph=X) events in %s", path)
	}
	return phases, nil
}

// appendEntry loads the trajectory array (missing file = empty), appends,
// and writes it back pretty-printed.
func appendEntry(path string, e Entry) error {
	var entries []Entry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entries = append(entries, e)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// countEntries returns the number of entries in a trajectory file; a
// missing file counts as zero.  CI compares the count before and after
// its bench append so a silently-empty bench run fails the job instead
// of shipping a trajectory that stopped growing.
func countEntries(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return 0, fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	return len(entries), nil
}

// prevSlack is the tolerance the "prev" gate grants against run-to-run
// benchmark noise: the new entry may be up to 10% below the previous
// entry's speedup before the gate fails.
const prevSlack = 0.9

// gateSpeedup fails when the trajectory's newest entry regresses in
// parallel-compile speedup.  spec is either an absolute floor ("1.5") or
// "prev", which floors the new entry at prevSlack times the most recent
// earlier entry that recorded a speedup (nothing to compare against =
// pass: the gate bites from the second measured entry onward).
func gateSpeedup(path, spec string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("benchtraj: %s has no entries to gate", path)
	}
	last := entries[len(entries)-1]
	if last.SpeedupAt4 == 0 {
		return fmt.Errorf("benchtraj: entry %q has no speedup_at_4; cannot gate", last.Label)
	}
	var min float64
	if spec == "prev" {
		for i := len(entries) - 2; i >= 0; i-- {
			if entries[i].SpeedupAt4 > 0 {
				min = entries[i].SpeedupAt4 * prevSlack
				break
			}
		}
		if min == 0 {
			return nil // first measured entry: nothing to regress from
		}
	} else {
		if min, err = strconv.ParseFloat(spec, 64); err != nil {
			return fmt.Errorf("benchtraj: -min-speedup-at-4 wants a number or \"prev\", got %q", spec)
		}
	}
	if last.SpeedupAt4 < min {
		return fmt.Errorf("benchtraj: speedup_at_4 regression: entry %q has %.3f, below the floor %.3f",
			last.Label, last.SpeedupAt4, min)
	}
	return nil
}

// gateTracedOverhead fails when the newest entry's traced compile costs
// more than ratio times its baseline compile — the observability layer's
// per-compile tax, gated so span plumbing on the hot path cannot creep.
// The interleaved traced_overhead measurement is preferred when the
// entry carries one (drift-immune by construction); otherwise the gate
// falls back to the ratio of the separately-timed pair's floors.  An
// entry with neither fails: a bench run that silently dropped its
// compile lines must not pass the gate it feeds.
func gateTracedOverhead(path, spec string) error {
	ratio, err := strconv.ParseFloat(spec, 64)
	if err != nil || ratio <= 0 {
		return fmt.Errorf("benchtraj: -max-traced-overhead wants a positive ratio, got %q", spec)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("benchtraj: %s has no entries to gate", path)
	}
	last := entries[len(entries)-1]
	if last.TracedOverhead > 0 {
		if last.TracedOverhead > ratio {
			return fmt.Errorf("benchtraj: traced compile overhead %.4f exceeds the ceiling %.4f (interleaved measurement)",
				last.TracedOverhead, ratio)
		}
		return nil
	}
	base, traced := last.CompileNsPerOp["base"], last.CompileNsPerOp["traced"]
	if base <= 0 || traced <= 0 {
		return fmt.Errorf("benchtraj: entry %q has neither traced_overhead nor a compile_ns_per_op base/traced pair; cannot gate", last.Label)
	}
	if got := traced / base; got > ratio {
		return fmt.Errorf("benchtraj: traced compile overhead %.4f exceeds the ceiling %.4f (base %.0f ns/op, traced %.0f ns/op)",
			got, ratio, base, traced)
	}
	return nil
}

func run(in io.Reader, outPath, label, tracePath string) error {
	e, err := parse(in)
	if err != nil {
		// A run that only records phase timings has no bench lines to
		// parse; any other parse failure is still fatal.
		if !(errors.Is(err, errNoBench) && tracePath != "") {
			return err
		}
	}
	e.Label = label
	e.Host = thisHost()
	ns := e.NsPerOp
	if n1, ok1 := ns["1"]; ok1 {
		if n4, ok4 := ns["4"]; ok4 && n4 > 0 {
			e.SpeedupAt4 = n1 / n4
		}
		if n16, ok16 := ns["16"]; ok16 && n16 > 0 {
			e.SpeedupAt16 = n1 / n16
		}
	}
	if tracePath != "" {
		phases, err := parsePhaseTrace(tracePath)
		if err != nil {
			return err
		}
		e.PhaseSeconds = phases
	}
	return appendEntry(outPath, e)
}

func main() {
	inFile := flag.String("in", "-", "bench output file (- for stdin)")
	outFile := flag.String("out", "bench/trajectory.json", "trajectory JSON to append to")
	label := flag.String("label", "local", "label for this run (e.g. the commit SHA)")
	phaseTrace := flag.String("phase-trace", "", "Chrome trace JSON from `record -trace`; per-phase durations are added to the entry")
	entries := flag.String("entries", "", "print the entry count of this trajectory file and exit (missing file = 0)")
	minSpeedup := flag.String("min-speedup-at-4", "", "after appending, fail unless the new entry's speedup_at_4 meets this floor (a number, or \"prev\" for 90% of the previous entry)")
	maxTraced := flag.String("max-traced-overhead", "", "after appending, fail if the new entry's traced/base compile ratio exceeds this ceiling (e.g. 1.02 for 2%)")
	flag.Parse()

	if *entries != "" {
		n, err := countEntries(*entries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Println(n)
		return
	}

	in := io.Reader(os.Stdin)
	if *inFile != "-" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, *outFile, *label, *phaseTrace); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if *minSpeedup != "" {
		if err := gateSpeedup(*outFile, *minSpeedup); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
	if *maxTraced != "" {
		if err := gateTracedOverhead(*outFile, *maxTraced); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
}
