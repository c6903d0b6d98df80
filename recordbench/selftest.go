package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// selfTestSeconds is the measured time of each self-test run.
const selfTestSeconds = "2"

// selfTest runs every workload briefly, untraced and traced, with a fixed
// seed, and checks that BENCHMARK.json and the metric tables agree, that
// every named metric is printed with its unit, and that no op failed.
func selfTest(recordd, workdir, root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		return fmt.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	want := [2]map[string]string{{}, {}}
	for i, list := range [2][]spec{endToEnd, perLayer} {
		declared := bf.EndToEnd
		if i == 1 {
			declared = bf.PerLayer
		}
		if len(declared) != len(list) {
			return fmt.Errorf("BENCHMARK.json declares %d metrics, benchmark prints %d", len(declared), len(list))
		}
		for j, d := range declared {
			s := list[j]
			if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
				return fmt.Errorf("BENCHMARK.json metric %v disagrees with the benchmark's %s %s %s", d, s.name, s.unit, s.better)
			}
			want[i][s.name] = s.unit
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for trace := 0; trace < 2; trace++ {
			cmd := exec.Command(self, "-recordd", recordd, "-workdir", workdir, "-root", root,
				"--workload", w.name, "--seed", "7", "--seconds", selfTestSeconds, "--trace", fmt.Sprint(trace))
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace %d: %w\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s trace %d: last line: %w", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				return fmt.Errorf("%s trace %d: %d metrics printed, %d named", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					return fmt.Errorf("%s trace %d: metric %s missing or not in %s", w.name, trace, name, unit)
				}
			}
			fmt.Printf("selftest %-16s trace %d ok (%d ops)\n", w.name, trace, res.Attempted)
		}
	}
	return nil
}
