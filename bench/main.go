// Command bench is NewsLink's measurement spine: a load-driven end-to-end
// benchmark over real newslinkd processes, and a separate traced in-process
// run that attributes the cost to each layer. See README.md; run it through
// bench/run.sh, which builds the binaries this program drives.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//	bench --all [--seed N] [--seconds S] [--repeat R] [--out F]   every workload, both modes
//	bench compare A.json B.json                            judge two result sets
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"newslink"
)

// options are the command-line settings of a run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	all      bool
	repeat   int
	out      string
	outDir   string
	bin      string
	workdir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per end-to-end run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end run, tracing off; 1 = traced in-process run for the per-layer metrics")
	flag.BoolVar(&o.all, "all", false, "run every workload in both modes and print every metric")
	flag.IntVar(&o.repeat, "repeat", 1, "with --all: runs per workload and mode")
	flag.StringVar(&o.out, "out", "bench/out/all.json", "with --all: result set file")
	flag.StringVar(&o.outDir, "outdir", "bench/out", "directory for <workload>.json and <workload>.trace.jsonl")
	flag.StringVar(&o.bin, "newslinkd", ".bench_build/newslinkd", "newslinkd binary to drive (bench/run.sh builds it)")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for inputs, WALs and snapshots (default: a fresh one under .bench_build, removed on exit)")
	flag.Parse()

	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	ct, err := loadContract()
	if err != nil {
		return err
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = ct.RunSeconds
	}
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return err
	}
	workdir := o.workdir
	if workdir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		if workdir, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
			return err
		}
		defer os.RemoveAll(workdir)
	}
	if workdir, err = filepath.Abs(workdir); err != nil {
		return err
	}
	seed, outDir := o.seed, o.outDir

	one := func(s spec, mode, sub string) (run, error) {
		dir := filepath.Join(workdir, sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return run{}, err
		}
		defer os.RemoveAll(dir)
		in, err := generate(s, seed, dir)
		if err != nil {
			return run{}, err
		}
		var r run
		if mode == "trace" {
			r, err = runTrace(ct, in, dir, filepath.Join(outDir, s.name+".trace.jsonl"))
		} else {
			r, err = runProcs(in, bin, seconds, dir)
		}
		r.Seconds = seconds
		if err != nil {
			return r, fmt.Errorf("%s [%s]: %w", s.name, mode, err)
		}
		if err := checkNames(ct, r); err != nil {
			return r, err
		}
		printRun(os.Stdout, r)
		file := s.name + ".json"
		if mode == "trace" {
			file = s.name + ".trace.json"
		}
		return r, writeSet(filepath.Join(outDir, file), set{Host: hostBlock(), Runs: []run{r}})
	}

	if o.all {
		res := set{Host: hostBlock()}
		ok := true
		for _, s := range specs {
			for i := 0; i < o.repeat; i++ {
				for _, mode := range []string{"e2e", "trace"} {
					r, err := one(s, mode, s.name+"-"+mode+"-"+strconv.Itoa(i))
					if err != nil {
						return err
					}
					ok = ok && r.Correct
					res.Runs = append(res.Runs, r)
				}
			}
		}
		if err := writeSet(o.out, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d runs)\n", o.out, len(res.Runs))
		if !ok {
			return fmt.Errorf("at least one run was not correct")
		}
		return nil
	}

	s, found := specByName(o.workload)
	if !found {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	mode := "e2e"
	if o.trace == 1 {
		mode = "trace"
	}
	r, err := one(s, mode, "run")
	if err != nil {
		return err
	}
	fmt.Println(contractLine(r))
	return nil
}

// runProcs is the end-to-end run against real newslinkd processes.
func runProcs(in *inputs, bin string, seconds int, dir string) (run, error) {
	if _, err := os.Stat(bin); err != nil {
		return run{}, fmt.Errorf("newslinkd binary: %w (run the benchmark through bench/run.sh, which builds it)", err)
	}
	oracle, snapshot, err := buildOracle(in, dir)
	if err != nil {
		return run{}, err
	}
	return runE2E(in, procs(bin, in, snapshot), oracle, planPhases(seconds), dir)
}

// buildOracle builds the in-process engine answers are checked against.
// For the cluster it is built in the snapshot's segment shape and saved:
// the router partitions exactly the corpus the oracle answers from.
func buildOracle(in *inputs, dir string) (*newslink.Engine, string, error) {
	e, _, err := buildEngine(in, in.spec.segments)
	if err != nil {
		return nil, "", err
	}
	if in.spec.shards == 0 {
		return e, "", nil
	}
	snapshot := filepath.Join(dir, "snapshot")
	if err := e.Save(snapshot); err != nil {
		return nil, "", fmt.Errorf("saving cluster snapshot: %w", err)
	}
	return e, snapshot, nil
}

// checkNames verifies a run reports exactly the metrics BENCHMARK.json
// names for its mode, under the units written there.
func checkNames(ct *contract, r run) error {
	defs := ct.EndToEnd
	if r.Mode == "trace" {
		defs = ct.PerLayer
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s [%s]: %d metrics reported, BENCHMARK.json names %d", r.Workload, r.Mode, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("%s [%s]: metric %s missing or not in %s", r.Workload, r.Mode, d.Name, d.Unit)
		}
	}
	return nil
}
