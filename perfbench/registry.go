package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"time"

	"spacedc/internal/econ"
	"spacedc/internal/experiments"
	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/obs"
	"spacedc/internal/optimize"
	"spacedc/internal/report"
	"spacedc/internal/units"
)

// registryWarmID is the registry-all warm-up operation: the one experiment
// that carries once-per-process state (the QoS network calibration), so no
// timed pass pays it.
const registryWarmID = "ext-workload"

// tracedIDs are the experiments the traced run reports one by one; the
// rest are summed into experiments.rest_s.
var tracedIDs = []string{"ext-optimize", "ext-lossy", "table4", "ext-workload", "ext-multishell", "ext-netsim"}

// registryState is what the registry-all set-up hands the timed part.
type registryState struct {
	ids []string
}

var registryWorkload = workload{
	name: "registry-all",
	setup: func(r *run) (any, error) {
		st := &registryState{ids: experiments.IDs()}
		if len(st.ids) == 0 {
			return nil, fmt.Errorf("empty experiment registry")
		}
		if _, err := experiments.Run(context.Background(), registryWarmID); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", registryWarmID, err)
		}
		return st, nil
	},
	measure: measureRegistry,
	traced:  tracedRegistry,
	close:   func(any) {},
	layers:  []string{"experiments.", "optimize."},
}

// pass runs every registered experiment once, in ID order, and returns the
// tables by ID with each experiment's host seconds. With a tracer, each
// experiment gets a span under parent.
func pass(r *run, ids []string, parent int) (map[string][]report.Table, map[string]float64) {
	tables := make(map[string][]report.Table, len(ids))
	secs := make(map[string]float64, len(ids))
	for _, id := range ids {
		sp := r.trace.start("experiments.Run "+id, parent, 0)
		t0 := time.Now()
		ts, err := experiments.Run(context.Background(), id)
		secs[id] = time.Since(t0).Seconds()
		r.trace.end(sp)
		if err != nil {
			err = fmt.Errorf("experiments.Run %s: %w", id, err)
		}
		r.op(err)
		tables[id] = ts
	}
	return tables, secs
}

// measureRegistry times whole passes over the registry until r.seconds
// have passed, checks every pass's tables, and checks the optimizer's best
// candidate outside the timed part.
func measureRegistry(r *run, state any) error {
	st := state.(*registryState)
	var passS []float64
	perID := make(map[string][]float64, len(st.ids))
	var first map[string][]report.Table
	a0 := allocMB()
	start := time.Now()
	for len(passS) == 0 || time.Since(start).Seconds() < r.seconds {
		tables, secs := pass(r, st.ids, 0)
		total := 0.0
		for id, s := range secs {
			total += s
			perID[id] = append(perID[id], s)
		}
		passS = append(passS, total)
		r.check(checkRegistry(st.ids, tables))
		if first == nil {
			first = tables
		} else {
			r.check(samePass(st.ids, first, tables))
		}
	}
	r.set("alloc_mb", "MB", (allocMB()-a0)/float64(len(passS)))
	// A round is one pass. Its host time takes each experiment's median
	// over the passes, so a burst of outside load during one experiment of
	// one pass does not move it.
	roundS := 0.0
	for _, id := range st.ids {
		roundS += median(perID[id])
	}
	r.set("round_s", "s", roundS)
	r.set("ops_per_s", "1/s", float64(len(st.ids)*len(passS))/sum(passS))
	fmt.Fprintf(os.Stderr, "perfbench: pass seconds %.3f\n", passS)
	r.check(checkBestCandidate(r, first))
	return nil
}

// samePass checks that a later pass rendered every table byte for byte as
// the first did: every experiment is deterministic.
func samePass(ids []string, first, got map[string][]report.Table) error {
	for _, id := range ids {
		if renderTables(first[id]) != renderTables(got[id]) {
			return fmt.Errorf("%s: a later pass rendered different tables", id)
		}
	}
	return nil
}

// renderTables concatenates the tables' text renderings, the byte stream
// `sudcsim <id>` prints.
func renderTables(ts []report.Table) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
	}
	return b.String()
}

// studyConfig is the reference optimizer configuration with every worker
// count set to 1.
func studyConfig() optimize.Config {
	cfg := experiments.OptimizeStudyConfig()
	cfg.Workers = 1
	return cfg
}

// checkBestCandidate runs optimize.Search on the study configuration and
// checks its best candidate: a freshly built Evaluator gives it the same
// Score, its objective is goodput ÷ econ.Cost(...).PerHour, and the
// ext-optimize table of the registry pass reports that objective and
// design. The search and the re-score count as two operations.
func checkBestCandidate(r *run, tables map[string][]report.Table) error {
	cfg := studyConfig()
	space := optimize.DefaultSpace()
	out, err := optimize.Search(context.Background(), cfg, space)
	r.op(err)
	if err != nil {
		return nil
	}
	ev, err := optimize.NewEvaluator(cfg.Eval, space)
	if err != nil {
		r.op(err)
		return nil
	}
	best := out.Best
	score, err := ev.Evaluate(best.Design)
	r.op(err)
	if err != nil {
		return nil
	}
	model := cfg.Eval.Model
	if model == (econ.CostModel{}) {
		model = econ.DefaultCostModel()
	}
	cost, err := econ.Cost(model, best.Design)
	if err != nil {
		return fmt.Errorf("econ.Cost of the best design: %w", err)
	}
	return checkBest(best, score, float64(cost.PerHour), tables["ext-optimize"])
}

// checkBest checks the optimizer's best candidate against its re-score,
// its cost and the ext-optimize comparison table.
func checkBest(best optimize.Candidate, rescore optimize.Score, perHour float64, extOptimize []report.Table) error {
	if !best.Score.Feasible {
		return fmt.Errorf("optimizer best %s is infeasible", optimize.Key(best.Design))
	}
	if rescore != best.Score {
		return fmt.Errorf("best %s re-scored %+v, search recorded %+v", optimize.Key(best.Design), rescore, best.Score)
	}
	if obj := best.Score.GoodputMbps / perHour; best.Score.Objective != obj {
		return fmt.Errorf("best objective %v != goodput %v ÷ $/h %v = %v",
			best.Score.Objective, best.Score.GoodputMbps, perHour, obj)
	}
	cmp, ok := findTable(extOptimize, "ext-optimize-compare")
	if !ok {
		return fmt.Errorf("ext-optimize: no comparison table")
	}
	objCol, designCol := column(cmp, "best objective"), column(cmp, "best design")
	for _, row := range cmp.Rows {
		if row[0] != "heuristic" {
			continue
		}
		if want := fmt.Sprintf("%.4f", best.Score.Objective); row[objCol] != want {
			return fmt.Errorf("ext-optimize reports objective %s, the best candidate scores %s", row[objCol], want)
		}
		if want := optimize.Key(best.Design); row[designCol] != want {
			return fmt.Errorf("ext-optimize reports best design %s, the search found %s", row[designCol], want)
		}
		return nil
	}
	return fmt.Errorf("ext-optimize: no heuristic row")
}

// tracedRegistry is the traced run of registry-all: one traced pass and
// one untraced pass (for the tracing overhead), the per-experiment times,
// then the optimizer layer measured on the study configuration.
func tracedRegistry(r *run, state any) error {
	st := state.(*registryState)
	tr := r.trace
	r.trace = nil
	t0 := time.Now()
	tables, _ := pass(r, st.ids, 0)
	bare := time.Since(t0).Seconds()
	r.check(checkRegistry(st.ids, tables))
	r.trace = tr

	id := tr.start("registry pass", 0, 0)
	t0 = time.Now()
	tables, secs := pass(r, st.ids, id)
	traced := time.Since(t0).Seconds()
	tr.end(id)
	r.check(checkRegistry(st.ids, tables))
	r.set("trace.overhead_pct", "%", 100*(traced-bare)/bare)

	rest := 0.0
	for _, s := range secs {
		rest += s
	}
	for _, name := range tracedIDs {
		r.set("experiments."+name+"_s", "s", secs[name])
		rest -= secs[name]
	}
	r.set("experiments.rest_s", "s", rest)

	if err := tracedOptimize(r, tables); err != nil {
		return err
	}
	r.set("obs.observe_ns", "ns", observeNS(r))
	return nil
}

// tracedOptimize measures the optimizer layer: one optimize.Search on the
// study configuration, then every distinct design of its trace re-scored by
// a fresh Evaluator and its network side re-run on its own, so the
// evaluation splits into the netsim run and the rest (resilience, sched,
// econ).
func tracedOptimize(r *run, tables map[string][]report.Table) error {
	tr := r.trace
	cfg := studyConfig()
	space := optimize.DefaultSpace()
	id := tr.start("optimize.Search", 0, 0)
	t0 := time.Now()
	out, err := optimize.Search(context.Background(), cfg, space)
	searchS := time.Since(t0).Seconds()
	tr.end(id)
	r.op(err)
	if err != nil {
		return nil
	}
	r.set("optimize.search_s", "s", searchS)
	r.set("optimize.evaluated", "count", float64(out.Evaluated))
	r.set("optimize.cache_hits", "count", float64(out.CacheHits))

	id = tr.start("optimize.NewEvaluator", 0, 0)
	ev, err := optimize.NewEvaluator(cfg.Eval, space)
	tr.end(id)
	r.op(err)
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var evalMS, netMS []float64
	for _, c := range out.Trace {
		key := optimize.Key(c.Design)
		if seen[key] {
			continue
		}
		seen[key] = true
		id := tr.start("optimize.Evaluate "+key, 0, 0)
		t0 := time.Now()
		score, err := ev.Evaluate(c.Design)
		dt := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id)
		r.op(err)
		if err != nil || !score.Feasible {
			continue
		}
		r.check(sameScore(key, c.Score, score))
		sc, err := evalScenario(cfg.Eval, c.Design)
		if err != nil {
			r.check(err)
			continue
		}
		id = tr.start("netsim.Run "+key, 0, 0)
		t0 = time.Now()
		res, err := netsim.Run(sc)
		ndt := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id)
		r.op(err)
		if err != nil {
			continue
		}
		if got := float64(res.DeliveredRate) / 1e6 * float64(c.Design.Planes); got != score.NetworkMbps {
			r.check(fmt.Errorf("%s: per-plane netsim run delivers %v Mbps, Evaluate scored %v", key, got, score.NetworkMbps))
		}
		evalMS = append(evalMS, dt)
		netMS = append(netMS, ndt)
	}
	r.set("optimize.eval_ms", "ms", median(evalMS))
	r.set("optimize.eval_netsim_ms", "ms", median(netMS))
	r.set("optimize.eval_rest_ms", "ms", median(evalMS)-median(netMS))
	r.check(checkBest(out.Best, out.Best.Score, out.Best.Score.CostPerHour, tables["ext-optimize"]))
	return nil
}

// sameScore checks that a fresh Evaluator re-scores a traced design as
// the search did.
func sameScore(key string, want, got optimize.Score) error {
	if want != got {
		return fmt.Errorf("%s: re-scored %+v, search recorded %+v", key, got, want)
	}
	return nil
}

// evalScenario is the per-plane netsim scenario optimize.Evaluate runs for
// a design, built the way the evaluator documents it: the design's
// topology from netsim.DesignTopology (or DesignShells for shell stacks,
// altitudes stepped by econ.ShellSpacingKm), the EvalConfig's rate, fault
// and timing fields with their documented defaults, and a seed that is
// the FNV-64a hash of the design key.
func evalScenario(cfg optimize.EvalConfig, d econ.Design) (netsim.Scenario, error) {
	tech := cfg.Tech
	if tech.Capacity == 0 {
		tech = isl.Optical10G
	}
	perSat := cfg.PerSat
	if perSat == 0 {
		perSat = 1.5 * units.Gbps
	}
	step, epoch, dur := cfg.NetStepSec, cfg.NetEpochSec, cfg.NetDurationSec
	if step == 0 {
		step = 0.2
	}
	if epoch == 0 {
		epoch = 10
	}
	if dur == 0 {
		dur = 20
	}
	var spec netsim.TopologySpec
	var err error
	if d.Shells <= 1 {
		spec, err = netsim.DesignTopology(d.Planes, d.SatsPerPlane, d.AltitudeKm, d.K, d.Split, d.GEOSinks, tech)
	} else {
		shells := make([]netsim.ShellParams, d.Shells)
		for i := range shells {
			shells[i] = netsim.ShellParams{SatsPerPlane: d.SatsPerPlane,
				AltKm: d.AltitudeKm + float64(i)*econ.ShellSpacingKm, K: d.K, Split: d.Split}
		}
		kind := netsim.InterShellAligned
		if d.InterShell == econ.InterShellNearest {
			kind = netsim.InterShellNearest
		}
		spec, err = netsim.DesignShells(shells, kind, 0, tech)
	}
	if err != nil {
		return netsim.Scenario{}, err
	}
	return netsim.Scenario{
		Name:        optimize.Key(d),
		Topology:    spec,
		PerSat:      perSat,
		Faults:      netsim.FaultConfig{LinkOutage: cfg.LinkOutage},
		StepSec:     step,
		EpochSec:    epoch,
		DurationSec: dur,
		Seed:        fnvSeed(optimize.Key(d)),
	}, nil
}

// fnvSeed is the FNV-64a hash of key with the sign bit cleared.
func fnvSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// observeNS times obs.Histogram.Observe on the latency bucket layout over
// a seeded log-normal latency stream and returns nanoseconds per call.
func observeNS(r *run) float64 {
	rng := rand.New(rand.NewSource(derive(r.seed, "observe")))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = 0.05 * rng.ExpFloat64() * (1 + 10*rng.Float64())
	}
	const reps = 32
	var best float64
	for trial := 0; trial < 3; trial++ {
		h := obs.NewHistogram(obs.LatencyBuckets)
		id := r.trace.start("obs.Histogram.Observe", 0, 0)
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			for _, x := range xs {
				h.Observe(x)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(xs))
		r.trace.end(id)
		if h.Count() != int64(reps*len(xs)) {
			r.check(fmt.Errorf("obs histogram counted %d of %d observations", h.Count(), reps*len(xs)))
		}
		if trial == 0 || ns < best {
			best = ns
		}
	}
	return best
}
