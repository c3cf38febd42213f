package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// matchManifest checks the run's metrics against the BENCHMARK.json in the
// working directory, if there is one.
func matchManifest(metrics map[string]metric, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.match(metrics, traced)
}

// match checks that a run reports exactly the metrics the manifest lists
// for its mode (end-to-end, or per-layer when traced), each in its unit
// and finite.
func (spec benchSpec) match(metrics map[string]metric, traced bool) error {
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		if !traced {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range spec.PerLayer {
		if traced {
			want[m.Name] = m.Unit
		}
	}
	var bad []string
	for name, unit := range want {
		m, ok := metrics[name]
		switch {
		case !ok:
			bad = append(bad, name+" missing")
		case m.Unit != unit:
			bad = append(bad, fmt.Sprintf("%s in %s, not %s", name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, fmt.Sprintf("%s is %v", name, m.Value))
		}
	}
	for name := range metrics {
		if _, ok := want[name]; !ok {
			bad = append(bad, name+" not in BENCHMARK.json")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(bad, "; "))
	}
	return nil
}

// steadiness runs the workload n times in fresh processes on seeds
// seed..seed+n-1 and prints, for every end-to-end metric, the median, the
// quartiles and the spread (q3 − q1) / median beside the metric's bound
// from BENCHMARK.json. A spread below a third of the bound is marked
// steady. It also checks that the share of failed operations is the same
// in every run.
func steadiness(name string, seed int64, seconds float64, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	// shares collects each run's failed/attempted ratio, which must be the
	// same in every run whatever the seed.
	shares := map[string]bool{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: outputs failed their checks", s)
		}
		shares[strconv.FormatFloat(float64(rep.Failed)/float64(rep.Attempted), 'g', -1, 64)] = true
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Printf("seed %d:", s)
		for _, k := range sortedKeys(rep.Metrics) {
			fmt.Printf(" %s=%.6g", k, rep.Metrics[k].Value)
		}
		fmt.Println()
	}
	fmt.Printf("workload %s, %d runs, seeds %d..%d, %g s each\n", name, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-16s %12s %12s %12s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, k := range sortedKeys(values) {
		bound := -1.0
		for _, e := range spec.EndToEnd {
			if e.Name == k {
				bound = e.Bound
			}
		}
		med := median(values[k])
		q1, q3 := med, med
		if len(values[k]) > 1 {
			q1, q3 = quartiles(values[k])
		}
		spread := (q3 - q1) / med
		verdict := "steady"
		switch {
		case bound < 0:
			verdict = "not in BENCHMARK.json"
		case k == "setup_s":
			verdict = "spread not bounded"
		case spread > bound:
			verdict = "OVER BOUND"
		case spread > bound/3:
			verdict = "over a third of the bound"
		}
		fmt.Printf("%-16s %12.6g %12.6g %12.6g %8.4f %8.3f  %s\n", k, med, q1, q3, spread, bound, verdict)
	}
	fmt.Printf("distinct failed/attempted shares: %s\n", strings.Join(sortedKeys(shares), ", "))
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
