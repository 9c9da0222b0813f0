package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance procedure of BENCHMARK.json is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// values collects one metric over the runs of a workload and mode.
func (s set) values(workload, mode, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Mode == mode {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// countType picks the count-type per-layer metrics, which must
// repeat exactly between two runs of one commit on one seed.
func countType(d metricDef) bool {
	return strings.HasSuffix(d.Name, "_per_query") || strings.HasSuffix(d.Name, "_ratio")
}

// compareMain judges result set B against A: one row per (workload,
// end-to-end metric) with the direction and bound BENCHMARK.json fixes,
// then one row per count-type per-layer metric. Exit status 1 when any
// end-to-end metric is worse by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	ct, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	fmt.Printf("A: %s  commit %s  %s, %d CPUs, %s\n", args[0], a.Host.Commit, a.Host.GoVersion, a.Host.NumCPU, a.Host.CPUModel)
	fmt.Printf("B: %s  commit %s  %s, %d CPUs, %s\n", args[1], b.Host.Commit, b.Host.GoVersion, b.Host.NumCPU, b.Host.CPUModel)
	fmt.Printf("%-15s %-16s %-6s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse%", "bound%", "spread%", "verdict")
	worse := 0
	for _, w := range ct.Workloads {
		for _, d := range ct.EndToEnd {
			va, vb := a.values(w.Name, "e2e", d.Name), b.values(w.Name, "e2e", d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-15s %-16s %-6s %12s %12s %8s %7.1f %7s  missing\n", w.Name, d.Name, d.Unit, "-", "-", "-", 100*d.Bound, "-")
				continue
			}
			ma, mb := median(va), median(vb)
			// change is signed so that positive is worse, whatever the
			// metric's direction.
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			spread := 0.0
			for _, side := range [][]float64{va, vb} {
				if len(side) >= 2 {
					q1, q3 := quartiles(side)
					spread = max(spread, (q3-q1)/median(side))
				}
			}
			verdict := "within-bound"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			case change < -d.Bound:
				verdict = "better"
			}
			fmt.Printf("%-15s %-16s %-6s %12.4f %12.4f %+8.1f %7.1f %7.1f  %s\n",
				w.Name, d.Name, d.Unit, ma, mb, 100*change, 100*d.Bound, 100*spread, verdict)
		}
	}
	changed := 0
	for _, w := range ct.Workloads {
		for _, d := range ct.PerLayer {
			if !countType(d) {
				continue
			}
			va, vb := a.values(w.Name, "trace", d.Name), b.values(w.Name, "trace", d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			same := true
			for _, v := range append(va[1:], vb...) {
				same = same && v == va[0]
			}
			if !same {
				changed++
				fmt.Printf("%-15s %-36s %v -> %v  changed\n", w.Name, d.Name, va, vb)
			}
		}
	}
	fmt.Printf("count-type per-layer metrics: %d changed (they repeat exactly on one commit and seed)\n", changed)
	if worse > 0 {
		fmt.Printf("%d end-to-end metric(s) worse by more than their bound\n", worse)
		return 1
	}
	return 0
}
