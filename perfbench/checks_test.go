package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spacedc/internal/experiments"
	"spacedc/internal/netsim"
	"spacedc/internal/optimize"
	"spacedc/internal/qos"
	"spacedc/internal/report"
	"spacedc/internal/sched"
)

// runTables returns the tables of one experiment.
func runTables(t *testing.T, id string) []report.Table {
	t.Helper()
	ts, err := experiments.Run(context.Background(), id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return ts
}

// cloneTables deep-copies tables so a test can corrupt the copy.
func cloneTables(ts []report.Table) []report.Table {
	out := make([]report.Table, len(ts))
	for i, t := range ts {
		out[i] = t
		out[i].Rows = make([][]string, len(t.Rows))
		for r, row := range t.Rows {
			out[i].Rows[r] = append([]string(nil), row...)
		}
	}
	return out
}

func TestCachedBodyWithOneByteChangedIsRejected(t *testing.T) {
	cold := []byte(`{"key":"sha256:abc","spec":{"experiment":"table8"},"text":"== table8 ==\n"}`)
	st := &daemonState{coldBody: map[string][]byte{"sha256:abc": cold}}
	req := request{Kind: kindReplay, Method: "POST", Path: "/v1/eval", Key: "sha256:abc", Expect: "hit"}
	ok := response{req: req, status: 200, xcache: "hit", body: cold}
	if err := st.checkReply(ok); err != nil {
		t.Fatalf("identical replay rejected: %v", err)
	}
	for i := range cold {
		bad := append([]byte(nil), cold...)
		bad[i] ^= 0x01
		res := ok
		res.body = bad
		if st.checkReply(res) == nil {
			t.Fatalf("replay with byte %d changed (%q) accepted", i, bad)
		}
	}
	miss := ok
	miss.xcache = "miss"
	if st.checkReply(miss) == nil {
		t.Fatal("X-Cache miss on an expected hit accepted")
	}
}

func TestConservationOffByOneIsRejected(t *testing.T) {
	s := sched.Stats{Arrived: 100, Processed: 90, Dropped: 7, LeftOver: 3}
	if err := schedConserved(s); err != nil {
		t.Fatalf("conserved stats rejected: %v", err)
	}
	s.LeftOver++
	if schedConserved(s) == nil {
		t.Fatal("sched stats off by one accepted")
	}

	res := qos.Result{Name: "w", Classes: []qos.ClassResult{
		{Name: "urgent", Offered: 50, Completed: 40, ShedAdmission: 3, ShedDeadline: 2, ShedOverflow: 1, Failed: 1, InFlight: 3},
		{Name: "standard", Offered: 20, Completed: 20},
	}}
	if err := workloadConserved(res); err != nil {
		t.Fatalf("conserved classes rejected: %v", err)
	}
	res.Classes[1].Completed--
	if workloadConserved(res) == nil {
		t.Fatal("workload class off by one accepted")
	}
}

func TestSwappedFig14CellIsRejected(t *testing.T) {
	fig9, fig14 := runTables(t, "fig9"), runTables(t, "fig14")
	if err := checkFig14(fig9, fig14); err != nil {
		t.Fatalf("program's fig14 rejected: %v", err)
	}
	// Swap fig14's largest cell with a cell whose fig9 counterpart is
	// smaller than it.
	bad := cloneTables(fig14)
	rows := bad[0].Rows
	maxR, maxC, maxV := 0, 1, -1.0
	for r, row := range rows {
		for c := 1; c < len(row); c++ {
			if v, _ := strconv.ParseFloat(row[c], 64); v > maxV {
				maxR, maxC, maxV = r, c, v
			}
		}
	}
	swapped := false
	for r, row := range fig9[0].Rows {
		for c := 1; c < len(row) && !swapped; c++ {
			if v, _ := strconv.ParseFloat(row[c], 64); v < maxV {
				rows[r][c], rows[maxR][maxC] = rows[maxR][maxC], rows[r][c]
				swapped = true
			}
		}
	}
	if !swapped {
		t.Fatal("found no cell to swap")
	}
	if checkFig14(fig9, bad) == nil {
		t.Fatal("fig14 with a swapped cell accepted")
	}
}

func TestRegistryTableChecksRejectCorruption(t *testing.T) {
	ids := []string{"fig9", "fig14", "fig15", "fig16", "table4", "table8"}
	tables := map[string][]report.Table{}
	for _, id := range ids {
		tables[id] = runTables(t, id)
	}
	if err := checkRegistry(ids, tables); err != nil {
		t.Fatalf("program's tables rejected: %v", err)
	}
	corrupt := []struct {
		name string
		id   string
		edit func(ts []report.Table)
	}{
		{"table8 cell", "table8", func(ts []report.Table) { ts[0].Rows[0][column(ts[0], "1 Gbit/s")] = "10" }},
		{"table4 SAR below RGB", "table4", func(ts []report.Table) { row(ts[0], "SAR")[1] = "1.00" }},
		{"fig15 gap", "fig15", func(ts []report.Table) { ts[0].Rows[0][column(ts[0], "worst coverage gap")] = "12s" }},
		{"fig16 order", "fig16", func(ts []report.Table) { ts[0], ts[2] = ts[2], ts[0] }},
		{"NaN cell", "fig9", func(ts []report.Table) { ts[0].Rows[0][1] = "NaN" }},
		{"empty table", "table8", func(ts []report.Table) { ts[0].Rows = nil }},
	}
	for _, c := range corrupt {
		bad := map[string][]report.Table{}
		for id, ts := range tables {
			bad[id] = ts
		}
		bad[c.id] = cloneTables(tables[c.id])
		c.edit(bad[c.id])
		if checkRegistry(ids, bad) == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestNetsimResultDifferingFromFullRecomputeTwinIsRejected(t *testing.T) {
	sc := gridScenario(200, 7)
	sc.DurationSec, sc.WarmupSec = 20, 5
	bare, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	full := sc
	full.FullRecompute = true
	twin, err := netsim.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if bare.RouteRepairs == 0 {
		t.Fatal("scenario exercised no route repair")
	}
	if err := sameResult("FullRecompute", bare, twin); err != nil {
		t.Fatalf("program's twin rejected: %v", err)
	}
	twin.Links = append([]netsim.LinkReport(nil), twin.Links...)
	twin.Links[len(twin.Links)/2].SentBits++
	if sameResult("FullRecompute", bare, twin) == nil {
		t.Fatal("twin with one link's sent bits changed accepted")
	}
	twin2, _ := netsim.Run(full)
	twin2.LatencySec.Mean *= 1 + 1e-12
	if sameResult("FullRecompute", bare, twin2) == nil {
		t.Fatal("twin with a different mean latency accepted")
	}
}

func TestOverloadChecksRejectCorruption(t *testing.T) {
	sc := overloadScenario(30, 1.6, 3)
	sc.DurationSec = 10
	res, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOverload(sc, res); err != nil {
		t.Fatalf("program's overload run rejected: %v", err)
	}
	bad := res
	bad.OfferedSegs += sc.Topology.Sats + 1
	if checkOverload(sc, bad) == nil {
		t.Fatal("offered count off by more than a segment per satellite accepted")
	}
	bad = res
	bad.DeliveredRate *= 1.1
	if checkOverload(sc, bad) == nil {
		t.Fatal("delivered rate above the sink ingress accepted")
	}
	bad = res
	bad.BottleneckUtil = 0.9
	if checkOverload(sc, bad) == nil {
		t.Fatal("unsaturated bottleneck on a saturated ring accepted")
	}
}

func TestBestCandidateCheckRejectsMismatch(t *testing.T) {
	score := optimize.Score{Feasible: true, NetworkMbps: 100, ComputeRatio: 0.5, GoodputMbps: 50, CostPerHour: 4, Objective: 12.5}
	best := optimize.Candidate{Score: score}
	cmp := report.Table{ID: "ext-optimize-compare", Columns: []string{"searcher", "seed", "best objective", "best design"}}
	cmp.AddRow("heuristic", 42, "12.5000", optimize.Key(best.Design))
	tables := []report.Table{cmp}
	if err := checkBest(best, score, 4, tables); err != nil {
		t.Fatalf("consistent best rejected: %v", err)
	}
	if checkBest(best, score, 5, tables) == nil {
		t.Fatal("objective that is not goodput ÷ $/h accepted")
	}
	rescored := score
	rescored.GoodputMbps++
	if checkBest(best, rescored, 4, tables) == nil {
		t.Fatal("re-score that differs accepted")
	}
	wrong := []report.Table{cmp}
	wrong[0].Rows = [][]string{{"heuristic", "42", "12.4999", optimize.Key(best.Design)}}
	if checkBest(best, score, 4, wrong) == nil {
		t.Fatal("table reporting another objective accepted")
	}
}

// mixBytes renders a client's warm-up and first rounds as JSON.
func mixBytes(t *testing.T, seed int64, client, rounds int) []byte {
	t.Helper()
	c := newMixClient(seed, client)
	reqs := c.warmup()
	for i := 0; i < rounds; i++ {
		reqs = append(reqs, c.round()...)
	}
	out, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMixIsByteIdenticalForASeed(t *testing.T) {
	for client := 0; client < mixClients; client++ {
		a, b := mixBytes(t, 5, client, 12), mixBytes(t, 5, client, 12)
		if !bytes.Equal(a, b) {
			t.Fatalf("client %d: two generations from seed 5 differ", client)
		}
		if bytes.Equal(a, mixBytes(t, 6, client, 12)) {
			t.Fatalf("client %d: seeds 5 and 6 generate the same sequence", client)
		}
	}
	if bytes.Equal(mixBytes(t, 5, 0, 3), mixBytes(t, 5, 1, 3)) {
		t.Fatal("both clients send the same sequence")
	}
}

func TestMixRepliesOnlyToCompletedColdSpecs(t *testing.T) {
	c := newMixClient(9, 0)
	done := map[string]bool{}
	for _, r := range c.warmup() {
		done[r.Key] = true
	}
	colds := 0
	for i := 0; i < 20; i++ {
		for _, r := range c.round() {
			switch r.Expect {
			case "miss":
				if done[r.Key] {
					t.Fatalf("cold %s repeats an earlier spec", r.Key)
				}
				done[r.Key] = true
				colds++
			case "hit":
				if r.Kind != kindExperiment && !done[r.Key] {
					t.Fatalf("%s of %s before its cold request", r.Kind, r.Key)
				}
			}
		}
	}
	if colds != 20*11 {
		t.Fatalf("%d cold requests in 20 rounds, want 220", colds)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
}

func TestTracerFromSeveralGoroutines(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.start("child", root, tr.request())
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	if len(tr.spans) != 401 || tr.requests != 400 {
		t.Fatalf("%d spans and %d requests, want 401 and 400", len(tr.spans), tr.requests)
	}
	for i, s := range tr.spans {
		if s.ID != i+1 || s.EndMS < s.StartMS {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	if self := tr.selfMS(); self["root"] < 0 {
		t.Fatalf("negative self time %v", self["root"])
	}
}

func TestDaemonMixRoundPassesChecks(t *testing.T) {
	r := &run{workload: "daemon-mix", seed: 3, metrics: map[string]metric{}}
	state, err := setupDaemon(r)
	if err != nil {
		t.Fatal(err)
	}
	st := state.(*daemonState)
	defer st.stop()
	out := st.loop(r, 0, 0, 1)
	lat := st.verify(r, out)
	if r.failed != 0 || r.wrong {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.problems)
	}
	if want := mixClients * len(roundKinds); lat.requests != want {
		t.Fatalf("%d requests completed, want %d", lat.requests, want)
	}
	if len(lat.cold) != mixClients*11 || len(lat.cached) != mixClients*12 {
		t.Fatalf("%d cold and %d cached replies, want %d and %d", len(lat.cold), len(lat.cached), mixClients*11, mixClients*12)
	}
}

func TestManifestMatchRejectsMissingExtraAndMisunitedMetrics(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{
		"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "round_s", "unit": "s"}],
		"per_layer": [{"name": "netsim.run_ms", "unit": "ms"}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	good := map[string]metric{"setup_s": {1, "s"}, "round_s": {2, "s"}}
	if err := spec.match(good, false); err != nil {
		t.Fatalf("exact end-to-end set rejected: %v", err)
	}
	if err := spec.match(map[string]metric{"netsim.run_ms": {3, "ms"}}, true); err != nil {
		t.Fatalf("exact per-layer set rejected: %v", err)
	}
	for name, ms := range map[string]map[string]metric{
		"missing":                      {"setup_s": {1, "s"}},
		"extra":                        {"setup_s": {1, "s"}, "round_s": {2, "s"}, "registry_s": {2, "s"}},
		"unit":                         {"setup_s": {1, "s"}, "round_s": {2000, "ms"}},
		"not a number":                 {"setup_s": {1, "s"}, "round_s": {math.NaN(), "s"}},
		"per-layer in an untraced run": {"setup_s": {1, "s"}, "round_s": {2, "s"}, "netsim.run_ms": {3, "ms"}},
	} {
		if err := spec.match(ms, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every per-layer metric of BENCHMARK.json belongs to a layer some
// workload's traced part sets (or to obs and trace, which every traced part
// sets), so a traced run of any workload reports all of them.
func TestEveryPerLayerMetricHasATracedPart(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	prefixes := []string{"obs.", "trace."}
	for _, w := range workloads {
		prefixes = append(prefixes, w.layers...)
	}
	for _, m := range spec.PerLayer {
		found := false
		for _, p := range prefixes {
			found = found || strings.HasPrefix(m.Name, p)
		}
		if !found {
			t.Errorf("%s: no workload's traced part reaches its layer", m.Name)
		}
	}
}
