package main

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContract checks BENCHMARK.json against its own schema limits and
// against the workloads this package implements.
func TestContract(t *testing.T) {
	ct, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ct.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(ct.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, ct.EndToEnd...), ct.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%q): bad or duplicate name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	maxBound := 0.0
	for _, d := range ct.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup || ct.EndToEnd[0].Bound != maxBound {
		t.Error("setup_s must be present, in s, lower-is-better, with the largest bound")
	}
	if len(ct.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(ct.Workloads), len(specs))
	}
	for i, w := range ct.Workloads {
		if w.Name != specs[i].name || !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload at toy scale with in-process servers: an
// end-to-end run and two traced runs. It checks the result schema, that no
// operation fails, and that two traced runs on one seed agree exactly on
// every count-type metric.
func TestSmoke(t *testing.T) {
	ct, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	ph := phases{setups: 1, warm: 100 * time.Millisecond, open: 500 * time.Millisecond, closed: 250 * time.Millisecond}
	for _, full := range specs {
		s := full.toy()
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			in, err := generate(s, 7, dir)
			if err != nil {
				t.Fatal(err)
			}
			oracle, snapshot, err := buildOracle(in, dir)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runE2E(in, inProcess(in, snapshot, nil), oracle, ph, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkNames(ct, r); err != nil {
				t.Error(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("e2e: correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			for name, m := range r.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			var traced [2]run
			for i := range traced {
				sub := filepath.Join(dir, "trace", string(rune('a'+i)))
				if traced[i], err = runTrace(ct, in, sub, filepath.Join(sub, "spans.jsonl")); err != nil {
					t.Fatal(err)
				}
				if err := checkNames(ct, traced[i]); err != nil {
					t.Error(err)
				}
				if !traced[i].Correct {
					t.Errorf("traced run %d not correct: %v", i, traced[i].Notes)
				}
			}
			for _, d := range ct.PerLayer {
				a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value
				if countType(d) && a != b {
					t.Errorf("count-type metric %s differs between two traced runs: %v vs %v", d.Name, a, b)
				}
			}
			if v := traced[0].Metrics["engine.search_us"].Value; !(v > 0) {
				t.Errorf("engine.search_us = %v", v)
			}
		})
	}
}
