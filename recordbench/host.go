package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the shape of the machine a result was measured on.  Results are
// comparable only between equal shapes; Commit says which tree ran and is
// deliberately not part of the shape.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (h host) shape() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", h.NumCPU, h.GOMAXPROCS, h.CPU, h.Go)
}

func (h host) String() string {
	b, _ := json.Marshal(h)
	return string(b)
}

func hostShape(root string) (host, error) {
	commit, err := treeCommit(root)
	if err != nil {
		return host{}, err
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
	}, nil
}

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

// treeCommit names the tree under test: the git commit when the checkout
// is a repository, otherwise a digest of its Go sources and go.mod files.
func treeCommit(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out)), nil
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("digest of the tree: %w", err)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// saved is one benchmark output read back from a file: the host line of
// the table and the final JSON line.
type saved struct {
	host host
	res  result
}

func readSaved(path string) (*saved, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	s := &saved{}
	foundHost := false
	for _, l := range lines {
		if v, ok := strings.CutPrefix(l, "host "); ok {
			if err := json.Unmarshal([]byte(strings.TrimSpace(v)), &s.host); err != nil {
				return nil, fmt.Errorf("%s: host line: %w", path, err)
			}
			foundHost = true
		}
	}
	if !foundHost {
		return nil, fmt.Errorf("%s: no host line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return s, nil
}

// compareFiles prints the relative change of every metric the two outputs
// share, and refuses outputs measured on hosts of different shape.
func compareFiles(before, after string) error {
	a, err := readSaved(before)
	if err != nil {
		return err
	}
	b, err := readSaved(after)
	if err != nil {
		return err
	}
	if a.host.shape() != b.host.shape() {
		return fmt.Errorf("refusing to compare results of different host shape:\n  %s\n  %s", a.host.shape(), b.host.shape())
	}
	fmt.Printf("host %s\nbefore %s\nafter  %s\n", a.host.shape(), a.host.Commit, b.host.Commit)
	for _, name := range sortedKeys(a.res.Metrics) {
		mb, ok := b.res.Metrics[name]
		if !ok {
			continue
		}
		ma := a.res.Metrics[name]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("%-28s %12.6g → %-12.6g %s  %s\n", name, ma.Value, mb.Value, ma.Unit, change)
	}
	return nil
}
