package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number; the unit travels with the value so every
// printed line and every file is self-describing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// run is the record of one benchmark run of one workload in one mode.
type run struct {
	Workload string `json:"workload"`
	// Mode is "e2e" (real servers over loopback, tracing off) or "trace"
	// (in-process, one goroutine, span recorder on).
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the ones BENCHMARK.json names for this mode.
	Metrics metrics `json:"metrics"`
	// Diagnostics qualify the run (generator lateness, sample counts,
	// error rate, latencies of the non-search op kinds) and carry no bound.
	Diagnostics metrics `json:"diagnostics,omitempty"`
	// OfferedPerSec are the frozen open-loop rates by op kind.
	OfferedPerSec map[string]int `json:"offered_per_s,omitempty"`
	Notes         []string       `json:"notes,omitempty"`
}

// host identifies where and on what a set of runs was measured.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// set is the result-file format: every file the benchmark writes, whether
// it holds one run or a whole --all sweep, is a set.
type set struct {
	Host host  `json:"host"`
	Runs []run `json:"runs"`
}

func hostBlock() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if c := os.Getenv("NLBENCH_COMMIT"); c != "" {
		h.Commit = c // run.sh fills it in from git when there is a repository
	}
	return h
}

func writeSet(path string, s set) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (set, error) {
	var s set
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// contractLine is the last line of standard output the driver parses.
func contractLine(r run) string {
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // floats are checked finite before they get here
	}
	return string(b)
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printRun lists every metric of a run by name with its unit.
func printRun(w io.Writer, r run) {
	fmt.Fprintf(w, "== %s [%s] seed=%d correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Mode, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range sortedNames(r.Diagnostics) {
		fmt.Fprintf(w, "  %-36s %14.4f %s   (diagnostic)\n", n, r.Diagnostics[n].Value, r.Diagnostics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
