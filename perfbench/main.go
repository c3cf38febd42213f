// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks the program's outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the
// last line of standard output:
//
//	{"correct": true, "attempted": 84, "failed": 0, "metrics": {...}}
//
// It measures the program only from outside, through the public entry
// points of the internal packages, and hands obs registries to the program
// only through the fields that already exist for that purpose.
//
// Flags:
//
//	--workload  registry-all | netsim-faultstorm | netsim-overload | daemon-mix
//	--seed      drives every generated input (default 1)
//	--seconds   length of the timed part (default 10)
//	--trace     0 for end-to-end metrics, 1 for the traced per-layer run
//	--steady N  run the workload N times on seeds seed..seed+N-1 and print
//	            each end-to-end metric's median, quartiles and spread beside
//	            the bound in BENCHMARK.json
//
// See README.md for the workloads, the metrics and the checks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's parameters and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    *tracer // nil unless --trace 1

	attempted int
	failed    int
	// wrong is set when a check finds an incorrect output.
	wrong bool
	// problems lists every failure, printed to standard error.
	problems []string
	metrics  map[string]metric
}

// op records one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check records the verdict of a correctness check on the output of an
// operation already counted; a failed check fails that operation and marks
// the run incorrect.
func (r *run) check(err error) {
	if err != nil {
		r.failed++
		r.wrong = true
		r.problems = append(r.problems, "check: "+err.Error())
	}
}

// set reports a metric.
func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workload is one benchmark workload. setup prepares everything up to the
// first timed operation and returns the state the timed part uses; it must
// be safe to call in a fresh process that then exits (the set-up probe).
type workload struct {
	name  string
	setup func(r *run) (state any, err error)
	// measure runs the timed part (untraced) and the checks.
	measure func(r *run, state any) error
	// traced runs the traced part: spans, per-layer metrics, overhead.
	traced func(r *run, state any) error
	// close releases what setup started (daemon, listeners).
	close func(state any)
	// layers are the prefixes of the per-layer metrics traced sets,
	// besides the obs.* and trace.* ones every traced part sets.
	layers []string
}

var workloads = []workload{registryWorkload, faultstormWorkload, overloadWorkload, daemonWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupProbes is how many fresh processes time the set-up; setup_s is
// their median. A fresh process pays every once-per-process cost (package
// initialisation, lazy calibrations), which an in-process repeat would not.
const setupProbes = 7

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed part in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	steady := flag.Int("steady", 0, "run the workload this many times and print the spread of each metric")
	probe := flag.Bool("setup-probe", false, "internal: run the set-up only and report when ready")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(w.name, *seed, *seconds, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r := &run{workload: w.name, seed: *seed, seconds: *seconds, metrics: map[string]metric{}}
	if *probe {
		state, err := w.setup(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		w.close(state)
		return
	}
	if err := execute(w, r, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs the timed part (after timing the set-up in fresh
// processes) or the traced run, and prints the result line.
func execute(w workload, r *run, traced bool) error {
	if traced {
		r.trace = newTracer()
		// The process's first WorkloadScenario call pays the QoS
		// calibration; time it before any set-up can pay it.
		calibrateMS(r)
		if err := traceLayers(w, r); err != nil {
			return err
		}
		path, err := r.trace.write(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans and per-layer metrics written to", path)
	} else {
		var setups []float64
		for i := 0; i < setupProbes; i++ {
			s, err := probeSetup(w.name, r.seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		r.set("setup_s", "s", median(setups))
		state, err := w.setup(r)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		err = w.measure(r, state)
		w.close(state)
		if err != nil {
			return err
		}
	}
	if err := matchManifest(r.metrics, traced); err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	for _, n := range sortedKeys(r.metrics) {
		fmt.Printf("%-28s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", r.attempted, "failed", r.failed)
	out, err := json.Marshal(result{
		Correct:   !r.wrong,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// traceLayers is the traced run. It runs w's traced part, then the traced
// part of every other workload that reaches a layer w does not, on the same
// seed, so every per-layer metric is reported whichever workload is
// traced. A metric keeps the value of the first traced part that sets it:
// w's own figures (trace.overhead_pct, obs.observe_ns, and netsim.* on a
// netsim workload) are not replaced by another workload's.
func traceLayers(w workload, r *run) error {
	covered := map[string]bool{}
	for _, other := range append([]workload{w}, workloads...) {
		missing := false
		for _, l := range other.layers {
			missing = missing || !covered[l]
		}
		if !missing {
			continue
		}
		before := maps.Clone(r.metrics)
		state, err := other.setup(r)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", other.name, err)
		}
		err = other.traced(r, state)
		other.close(state)
		if err != nil {
			return fmt.Errorf("%s traced: %w", other.name, err)
		}
		maps.Copy(r.metrics, before)
		for _, l := range other.layers {
			covered[l] = true
		}
	}
	return nil
}

// probeSetup runs the workload's set-up in a fresh copy of this program and
// returns the seconds from starting the process to its "ready" line.
func probeSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up probe: no ready line (%v, %v)", readErr, waitErr)
	}
	if waitErr != nil {
		return 0, fmt.Errorf("set-up probe: %w", waitErr)
	}
	return elapsed, nil
}

// allocMB returns the heap bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// outDir is where traced runs write their spans: the benchmark's build
// directory inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}
